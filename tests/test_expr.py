import numpy as np
import pytest

from conftest import kernel_gradient, kernel_hessian, kernel_value
from mpsckit import expr
from mpsckit.errors import EvalDomainError, ParseError
from mpsckit.expr import Bin, Call, Const, Neg, Pow, Var

V2 = ("x1", "x2")
V3 = ("x1", "x2", "x3")


def fd_gradient(e, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (kernel_value(e, xp) - kernel_value(e, xm)) / (2 * h)
    return g


def fd_hessian(e, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        H[i] = (fd_gradient(e, xp, h) - fd_gradient(e, xm, h)) / (2 * h)
    return 0.5 * (H + H.T)


class TestParse:
    def test_sub_mul(self):
        e = expr.parse_expr("x1 - 3*x2", V2)
        assert e == Bin("-", Var(0), Bin("*", Const(3.0), Var(1)))

    def test_unary_minus_binds_looser_than_pow(self):
        e = expr.parse_expr("-x1^2", V2)
        assert e == Neg(Pow(Var(0), 2))

    def test_var_order(self):
        e = expr.parse_expr("x2 - x1^2", V2)
        assert e == Bin("-", Var(1), Pow(Var(0), 2))

    def test_function_call(self):
        e = expr.parse_expr("sin(x1) * exp(x2)", V2)
        assert e == Bin("*", Call("sin", Var(0)), Call("exp", Var(1)))

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="x9"):
            expr.parse_expr("x1 + x9", V2)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="non-integer"):
            expr.parse_expr("x1^2.5", V2)

    def test_literal_that_overflows_a_float_is_rejected(self):
        # 1e400 would be an infinite constant, which no output can print
        with pytest.raises(ParseError, match=r"'1e400' \(offset 5\)") as ei:
            expr.parse_expr("x1 + 1e400*x2", V2)
        assert ei.value.offset == 5
        assert expr.parse_expr("1.7976931348623157e308", V2) == Const(1.7976931348623157e308)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as ei:
            expr.parse_expr("x1 + * x2", V2)
        assert ei.value.offset == 5

    def test_negative_exponent(self):
        e = expr.parse_expr("x1^-2", V2)
        assert e == Pow(Var(0), -2)


class TestEvaluate:
    def test_product(self):
        e = expr.parse_expr("x1*x2", V2)
        assert kernel_value(e, [2.0, 3.0]) == 6.0

    def test_parabola(self):
        e = expr.parse_expr("x2 - x1^2", V2)
        assert kernel_value(e, [1.0, 1.0]) == 0.0

    def test_log_domain_error(self):
        e = expr.parse_expr("log(x1)", V2)
        with pytest.raises(EvalDomainError):
            kernel_value(e, [0.0, 1.0])

    def test_sqrt_domain_error(self):
        e = expr.parse_expr("sqrt(x1)", V2)
        with pytest.raises(EvalDomainError):
            kernel_value(e, [-1.0, 0.0])

    def test_division_by_zero(self):
        e = expr.parse_expr("x2/x1", V2)
        with pytest.raises(EvalDomainError):
            kernel_value(e, [0.0, 1.0])

    def test_batch_matches_pointwise(self):
        e = expr.parse_expr("x1^2*x2 - sin(x1)", V2)
        X = np.array([[0.5, 1.0], [-1.0, 2.0], [0.0, 0.0]])
        out = kernel_value(e, X)
        for k in range(3):
            assert out[k] == pytest.approx(kernel_value(e, X[k]), abs=0)

    def test_nonfinite_input_rejected(self):
        e = expr.parse_expr("x1", V2)
        with pytest.raises(EvalDomainError, match="evaluation point must be finite"):
            kernel_value(e, [np.nan, 0.0])


class TestDerivatives:
    def test_gradient_product_at_origin(self):
        e = expr.parse_expr("x1*x2", V2)
        assert np.array_equal(kernel_gradient(e, [0.0, 0.0]), [0.0, 0.0])

    def test_hessian_quadratic(self):
        e = expr.parse_expr("x1^2 - x2", V2)
        assert np.array_equal(kernel_hessian(e, [3.0, -1.0]), [[2.0, 0.0], [0.0, 0.0]])

    def test_gradient_vs_central_differences(self):
        # independent finite-difference oracle, h = 1e-5
        e = expr.parse_expr("x2 - x1^2", V2)
        x = [1.0, 0.0]
        g = kernel_gradient(e, x)
        assert np.allclose(g, fd_gradient(e, x), rtol=1e-6, atol=1e-8)
        assert np.allclose(g, [-2.0, 1.0])

    def test_derivative_domain_error_is_raised(self):
        # d/dx sqrt(x) = 1/(2 sqrt(x)) blows up at 0 and must not mask to 0
        e = expr.parse_expr("sqrt(x1)", V2)
        with pytest.raises(EvalDomainError):
            kernel_gradient(e, [0.0, 0.0])


def _random_polynomial(rng, n):
    """Random polynomial of total degree <= 4 as source text."""
    terms = []
    for _ in range(rng.integers(1, 5)):
        c = rng.uniform(-3, 3)
        powers = np.zeros(n, dtype=int)
        for _ in range(rng.integers(0, 5)):
            powers[rng.integers(0, n)] += 1
        factors = [f"{c:.6f}"]
        factors += [f"x{j+1}^{p}" if p > 1 else f"x{j+1}"
                    for j, p in enumerate(powers) if p > 0]
        terms.append("*".join(factors))
    return " + ".join(terms)


class TestProperties:
    def test_symbolic_vs_fd_200_random_polynomials(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            names = tuple(f"x{j+1}" for j in range(n))
            e = expr.parse_expr(_random_polynomial(rng, n), names)
            x = rng.uniform(-1, 1, size=n)
            g, gfd = kernel_gradient(e, x), fd_gradient(e, x)
            scale = max(1.0, float(np.max(np.abs(gfd))))
            assert np.max(np.abs(g - gfd)) <= 1e-5 * scale
            H, Hfd = kernel_hessian(e, x), fd_hessian(e, x)
            hscale = max(1.0, float(np.max(np.abs(Hfd))))
            assert np.max(np.abs(H - Hfd)) <= 1e-4 * hscale

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            names = tuple(f"x{j+1}" for j in range(n))
            e = expr.parse_expr(_random_polynomial(rng, n), names)
            H = kernel_hessian(e, rng.uniform(-1, 1, size=n))
            assert np.array_equal(H, H.T)

    def test_print_parse_roundtrip(self):
        rng = np.random.default_rng(11)
        corpus = [
            "x1 - 3*x2", "-x1^2", "x2 - x1^2", "sin(x1)*cos(x2) - exp(x1/2)",
            "sqrt(x1^2 + 1) / (x2 + 2)", "-(x1 + x2)^3", "x1 - -x2",
            "1 - 2 - 3", "8/4/2", "--x1", "2*-3*x1", "x1^-1 + x2^0",
            "x1 + (x2 + x3)", "x1*(x2*x3)", "x1*(x2/x3)", "x1 - (x2 + x3)",
        ]
        for _ in range(100):
            corpus.append(_random_polynomial(rng, 3))
        for text in corpus:
            e = expr.parse_expr(text, V3)
            printed = expr.to_text(e, V3)
            assert expr.parse_expr(printed, V3) == e, (text, printed)
