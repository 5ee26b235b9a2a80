"""The tree walk: evaluates an expression tree node by node.

It is the reference the compiled kernels of `mpsckit.expr.compile_kernel`
are compared against, bit for bit and error for error (tests/test_problem.py).
"""

import numpy as np

from mpsckit.errors import EvalDomainError
from mpsckit.expr import Bin, Call, Const, Expr, Neg, Pow, Var


def _check_domain(ok, what, offset):
    if not np.all(ok):
        raise EvalDomainError(what, offset=offset)


def _eval(e, X):
    """Evaluate over a point batch X of shape (N, n)."""
    if isinstance(e, Const):
        return np.full(X.shape[0], e.value)
    if isinstance(e, Var):
        return X[:, e.index]
    if isinstance(e, Neg):
        return -_eval(e.arg, X)
    if isinstance(e, Bin):
        a = _eval(e.lhs, X)
        b = _eval(e.rhs, X)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        _check_domain(b != 0.0, "division by zero", e.offset)
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, X)
        if e.exponent < 0:
            _check_domain(base != 0.0, "zero base with negative exponent", e.offset)
        with np.errstate(over="ignore"):
            return base ** float(e.exponent)
    if isinstance(e, Call):
        a = _eval(e.arg, X)
        if e.fn == "sin":
            return np.sin(a)
        if e.fn == "cos":
            return np.cos(a)
        if e.fn == "exp":
            with np.errstate(over="ignore"):
                return np.exp(a)
        if e.fn == "log":
            _check_domain(a > 0.0, "log of a nonpositive value", e.offset)
            return np.log(a)
        if e.fn == "sqrt":
            _check_domain(a >= 0.0, "sqrt of a negative value", e.offset)
            return np.sqrt(a)
    raise TypeError(f"not an Expr: {e!r}")


def evaluate(e: Expr, x):
    """Evaluate at a single point (1-d x) or a batch (2-d x, one row each)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    single = x.ndim == 1
    X = x[None, :] if single else x
    out = _eval(e, X)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("evaluation overflowed to a non-finite value", offset=e.offset)
    return float(out[0]) if single else out
