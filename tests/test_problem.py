import ast
import gc
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import treewalk
from conftest import CORPUS_POINTS, problem_path

from mpsckit import expr as ex
from mpsckit import problem as pb
from mpsckit.errors import EvalDomainError, InfeasiblePointError, ParseError
from mpsckit.expr import Bin, Call, Const, Neg, Pow, Var, to_text
from mpsckit.numeric import Tolerances

TOL = Tolerances()


class TestLoad:
    def test_axes2d_counts(self, corpus):
        P = corpus["axes2d"]
        assert (P.n, P.m, P.p, P.l) == (2, 1, 0, 1)
        assert P.var_names == ("x1", "x2")

    def test_unconstrained_instance(self):
        P = pb.load_problem("vars x\nmin x^2\n", from_path=False)
        assert (P.m, P.p, P.l) == (0, 0, 0)

    def test_undeclared_variable_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            pb.load_problem("vars x1\nmin x1\nineq x9\n", from_path=False)

    def test_duplicate_var_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            pb.load_problem("vars x x\nmin x\n", from_path=False)

    def test_missing_min(self):
        with pytest.raises(ParseError, match="min"):
            pb.load_problem("vars x\nineq x\n", from_path=False)

    def test_problem_file_is_closed(self, monkeypatch):
        # an unclosed file warns from its finalizer, where the warning can
        # only reach sys.unraisablehook
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pb.load_problem(str(problem_path("axes2d")))
            gc.collect()
        assert unraisable == []

    def test_roundtrip_text(self, corpus):
        for P in corpus.values():
            Q = pb.load_problem(pb.problem_text(P), from_path=False)
            assert pb.problem_text(Q) == pb.problem_text(P)


class TestResidual:
    def test_feasible_points_have_zero_residual(self, corpus):
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            assert float(P.residual(np.array(CORPUS_POINTS[name]))) <= 1e-12

    def test_axes2d_at_11(self, corpus):
        # g = 0, min{G^2, H^2} = min{1, 1} = 1
        assert float(corpus["axes2d"].residual([1.0, 1.0])) == pytest.approx(1.0)

    def test_ray2d_along_axis(self, corpus):
        # at (t, 0): only min{t^2, t^4} = t^4 violates -> residual t^2
        t = 0.1
        assert float(corpus["ray2d"].residual([t, 0.0])) == pytest.approx(t * t)


class TestIndexSets:
    def test_wedge3d_origin(self, corpus):
        I = pb.index_sets(corpus["wedge3d"].constraint_values([0.0, 0.0, 0.0]), TOL)
        assert I.I_g == (0, 1, 2)
        assert I.I_GH == (0,) and I.I_G == () and I.I_H == ()

    def test_axes2d_origin(self, corpus):
        I = pb.index_sets(corpus["axes2d"].constraint_values([0.0, 0.0]), TOL)
        assert I.I_g == (0,) and I.I_GH == (0,)

    def test_one_sided_pair(self):
        P = pb.load_problem("vars x1 x2\nmin x1\nswitch x1 | x2\n", from_path=False)
        I = pb.index_sets(P.constraint_values([1.0, 0.0]), TOL)
        assert I.I_H == (0,) and I.I_GH == () and I.I_G == ()

    def test_infeasible_point_rejected(self, corpus):
        with pytest.raises(InfeasiblePointError):
            pb.index_sets(corpus["ray2d"].constraint_values([9.0, 9.0]), TOL)

    def test_constraint_values_at_x_evaluated_once(self, corpus, monkeypatch):
        # analyze --with-penalty reads the (g, h, G, H) values at x from its one
        # context: its feasibility gate, the index sets and the normal-cone
        # oracle all take them from there, and the probes evaluate them nowhere
        from mpsckit import report
        calls, evaluate = [], pb.MpscProblem._evaluate

        def spy(self, kind, items, x):
            calls.append((kind, tuple(items), np.array(x, float)))
            return evaluate(self, kind, items, x)

        monkeypatch.setattr(pb.MpscProblem, "_evaluate", spy)
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            calls.clear()
            report.analyze(P, x, TOL, with_penalty=True)
            at_x = [(kind, items) for kind, items, z in calls
                    if z.shape == x.shape and (z == x).all()]
            assert at_x.count(("v", P.items[1:])) == 1, name
            # one Jacobian row of f; a Hessian call ("jh") carries its own
            assert sum(kind == "j" and pb.OBJECTIVE in items for kind, items in at_x) == 1, name

    def test_invariant_partition(self, corpus):
        for name, P in corpus.items():
            I = pb.index_sets(P.constraint_values(np.array(CORPUS_POINTS[name])), TOL)
            union = set(I.I_G) | set(I.I_H) | set(I.I_GH)
            assert union == set(range(P.l))
            assert len(I.I_G) + len(I.I_H) + len(I.I_GH) == P.l


class TestBipartitions:
    def test_singleton(self, corpus):
        I = pb.index_sets(corpus["wedge3d"].constraint_values([0.0, 0.0, 0.0]), TOL)
        bs = pb.bipartitions(I)
        assert [(b.beta1, b.beta2) for b in bs] == [((), (0,)), ((0,), ())]

    def test_empty(self):
        I = pb.IndexSets((), (), (), (), ())
        assert [(b.beta1, b.beta2) for b in pb.bipartitions(I)] == [((), ())]

    def test_two_biactive(self, corpus):
        I = pb.index_sets(corpus["pinch2d"].constraint_values([0.0, 0.0]), TOL)
        assert len(pb.bipartitions(I)) == 4


class TestBranch:
    def test_wedge3d_g_pinned(self, corpus):
        P = corpus["wedge3d"]
        I = pb.index_sets(P.constraint_values([0.0, 0.0, 0.0]), TOL)
        br = pb.branch(P, I, pb.Bipartition((0,), ()))
        eqs = [to_text(P.expr(*it), P.var_names) for it in br.equalities()]
        assert eqs == ["x1"]
        assert len(P.g) == 3

    def test_ray2d_h_pinned(self, corpus):
        P = corpus["ray2d"]
        I = pb.index_sets(P.constraint_values([0.0, 0.0]), TOL)
        br = pb.branch(P, I, pb.Bipartition((), (0,)))
        eqs = [to_text(P.expr(*it), P.var_names) for it in br.equalities()]
        assert eqs == ["x2 - x1^2"]

    def test_no_switches_branch_is_instance(self):
        P = pb.load_problem("vars x\nmin x\nineq -x\n", from_path=False)
        I = pb.index_sets(P.constraint_values([0.0]), TOL)
        (b,) = pb.bipartitions(I)
        br = pb.branch(P, I, b)
        assert br.equalities() == []
        assert float(br.residual([0.5])) == 0.0

    def test_residual_reads_only_the_branch_items(self):
        # log(x2) is the unpinned side of the G branch: never evaluated there
        P = pb.load_problem("vars x1 x2\nmin x1\nineq x2 - 1\neq x1 - x2\n"
                            "switch x1 | log(x2)\n", from_path=False)
        br = pb.BranchProblem(P, (0,), ())
        assert float(br.residual([-1.0, -1.0])) == 1.0
        X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(64, 2))
        V = P.values(X, br.equalities() + [("g", 0)])
        want = np.sqrt(np.maximum(X[:, 1] - 1.0, 0.0) ** 2 + (X[:, 0] - X[:, 1]) ** 2
                       + X[:, 0] ** 2)
        assert np.allclose(br.residual_of(V), want, rtol=1e-14, atol=0.0)
        assert np.array_equal(br.residual_of(V), br.residual(X))


class TestBranchUnionLaw:
    def test_feasibility_iff_some_branch_feasible(self, corpus):
        rng = np.random.default_rng(42)
        for name, P in corpus.items():
            X = rng.uniform(-1.0, 1.0, size=(1000, P.n))
            res = P.residual(X)
            branch_res = np.min(
                np.stack([br.residual(X) for br in pb.all_branches(P)], axis=0), axis=0)
            feas = res <= TOL.tau_feas
            bfeas = branch_res <= TOL.tau_feas
            assert np.array_equal(feas, bfeas), name

    def test_index_sets_invariant_under_reordering(self, corpus):
        P = corpus["wedge3d"]
        perm = [2, 0, 1]
        Q = pb.MpscProblem(P.n, P.var_names, P.f,
                           tuple(P.g[i] for i in perm), P.h, P.switch_pairs)
        I_p = pb.index_sets(P.constraint_values([0.0, 0.0, 0.0]), TOL)
        I_q = pb.index_sets(Q.constraint_values([0.0, 0.0, 0.0]), TOL)
        assert {perm[i] for i in I_q.I_g} == set(I_p.I_g)
        assert I_q.I_GH == I_p.I_GH


# ---------------------------------------------------------------------------
# evaluation kernel
# ---------------------------------------------------------------------------

def sympy_items(path, P):
    """The problem file read by sympy: (symbols, expression per item of P.items)."""
    import sympy

    syms, exprs = None, {}
    g, h, pairs = [], [], []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "vars":
            syms = sympy.symbols(rest.split())
            names = {s.name: s for s in syms}
            continue
        read = lambda text: sympy.sympify(text.replace("^", "**"), locals=names)
        if head == "min":
            exprs["f", 0] = read(rest)
        elif head == "ineq":
            g.append(read(rest))
        elif head == "eq":
            h.append(read(rest))
        elif head == "switch":
            left, right = rest.split("|")
            pairs.append((read(left), read(right)))
    exprs.update({("g", i): e for i, e in enumerate(g)})
    exprs.update({("h", j): e for j, e in enumerate(h)})
    exprs.update({("G", k): G for k, (G, _) in enumerate(pairs)})
    exprs.update({("H", k): H for k, (_, H) in enumerate(pairs)})
    assert set(exprs) == set(P.items)
    return syms, [exprs[it] for it in P.items]


def assert_close(got, want, name):
    want = np.asarray(want, float)
    scale = 1e-12 * np.maximum(1.0, np.abs(want))
    assert got.shape == want.shape, name
    assert np.all(np.abs(got - want) <= scale), (name, got, want)


class TestKernel:
    def test_items_grouped_f_g_h_G_H(self, corpus):
        P = corpus["pinch2d"]
        assert P.items == (("f", 0), ("h", 0), ("G", 0), ("G", 1), ("H", 0), ("H", 1))
        P = corpus["wedge3d"]
        assert P.items == (("f", 0), ("g", 0), ("g", 1), ("g", 2), ("G", 0), ("H", 0))

    def test_empty_item_lists(self, corpus):
        P = corpus["axes2d"]
        assert P.values([0.0, 0.0], []).shape == (0,)
        assert P.values(np.zeros((4, 2)), []).shape == (4, 0)
        assert P.jacobian([0.0, 0.0], []).shape == (0, 2)
        assert P.jacobian(np.zeros((4, 2)), []).shape == (4, 0, 2)
        assert [a.shape for a in P.derivatives([0.0, 0.0], [])] == [(0, 2), (0, 2, 2)]
        assert [a.shape for a in P.derivatives(np.zeros((4, 2)), [])] == [(4, 0, 2),
                                                                           (4, 0, 2, 2)]

    def test_matches_sympy_on_corpus(self, corpus):
        import sympy

        from conftest import CORPUS_POINTS
        rng = np.random.default_rng(11)
        for name, P in corpus.items():
            syms, exprs = sympy_items(problem_path(name), P)
            value = sympy.lambdify(syms, exprs, "math")
            jac = sympy.lambdify(syms, [[sympy.diff(e, s) for s in syms] for e in exprs],
                                 "math")
            hessians = [sympy.lambdify(syms, sympy.hessian(e, syms).tolist(), "math")
                        for e in exprs]
            X = np.vstack([CORPUS_POINTS[name], rng.uniform(-2.0, 2.0, size=(16, P.n))])
            V, J = P.values(X, P.items), P.jacobian(X, P.items)
            DJ, H = P.derivatives(X, P.items)  # one "jh" kernel call for every item
            assert V.shape == (len(X), len(P.items))
            assert J.shape == DJ.shape == (len(X), len(P.items), P.n)
            assert H.shape == (len(X), len(P.items), P.n, P.n)
            assert np.array_equal(DJ, J)  # both kernels are the tree walk, bit for bit
            subset = P.items[:0:-2]  # a reordered subset comes back in the order asked
            order = [P.items.index(it) for it in subset]
            for r, x in enumerate(X):
                want_v, want_j = value(*x), np.array(jac(*x))
                want_h = np.array([hess(*x) for hess in hessians])
                assert_close(V[r], want_v, (name, r))
                assert_close(J[r], want_j, (name, r))
                assert_close(DJ[r], want_j, (name, r))
                assert_close(H[r], want_h, (name, r))
                assert_close(P.values(x, P.items), want_v, (name, r))
                assert_close(P.jacobian(x, P.items), want_j, (name, r))
                sub_j, sub_h = P.derivatives(x, subset)
                assert_close(sub_j, want_j[order], (name, r))
                assert_close(sub_h, want_h[order], (name, r))
                for it, want in zip(P.items, want_h):
                    assert_close(P.hessian(x, it), want, (name, r, it))

    def test_failing_item_raises_with_its_offset(self):
        from mpsckit.errors import EvalDomainError
        P = pb.load_problem("vars x1 x2\nmin x1\nineq x1 - 1\neq 2 + log(x2)\n"
                            "switch x1 | 1/x2\n", from_path=False)
        x = [1.0, 0.0]
        with pytest.raises(EvalDomainError) as err:
            P.values(x, P.items)
        assert err.value.offset == 4  # log in "2 + log(x2)", the first failing item
        with pytest.raises(EvalDomainError) as err:
            P.values(np.array([x, x]), [("H", 0), ("h", 0)])
        assert err.value.offset == 1  # / in "1/x2"
        with pytest.raises(EvalDomainError):
            P.constraint_values(x)
        assert np.array_equal(P.values(x, [("f", 0), ("g", 0), ("G", 0)]), [1.0, 0.0, 1.0])

    def test_derivative_error_keeps_its_offset(self):
        from mpsckit.errors import EvalDomainError
        P = pb.load_problem("vars x1 x2\nmin x1 + x2\nineq -x2\nineq sqrt(x2) - 5\n"
                            "switch x1 | x2\n", from_path=False)
        with pytest.raises(EvalDomainError, match=r"division by zero \(offset 0\)") as err:
            P.jacobian([0.0, 0.0], [("g", 1)])
        assert err.value.offset == 0  # sqrt in "sqrt(x2) - 5"

    def test_derivative_offsets_do_not_depend_on_call_order(self):
        # sqrt(x2) occurs in both inequalities; each derivative keeps its own
        # source offset, whichever item was differentiated first
        from mpsckit.errors import EvalDomainError
        P = pb.load_problem("vars x1 x2\nmin x1 + x2\nineq x1 + sqrt(x2)\n"
                            "ineq sqrt(x2) - 5\nswitch x1 | x2\n", from_path=False)
        for item, offset in ((("g", 0), 5), (("g", 1), 0)):
            with pytest.raises(EvalDomainError, match=rf"\(offset {offset}\)"):
                P.jacobian([0.0, 0.0], [item])

    def test_overflow_is_a_domain_error(self):
        # the suite turns RuntimeWarnings into errors, so an overflow warning
        # escaping the kernel would fail this test before EvalDomainError
        from mpsckit.errors import EvalDomainError
        P = pb.load_problem("vars x1 x2\nmin x1*x2*x2\n", from_path=False)
        x = [1e308, 1e308]
        for call in (lambda: P.values(x, P.items), lambda: P.jacobian([x, x], P.items),
                     lambda: P.hessian(x, ("f", 0))):
            with pytest.raises(EvalDomainError):
                call()


# ---------------------------------------------------------------------------
# compiled kernels against the tree walk
# ---------------------------------------------------------------------------

N_VARS = 3
_offsets = hst.sampled_from([-1, 0, 3, 7])  # few offsets, so equal subtrees recur
_leaves = hst.one_of(
    hst.builds(Const, hst.sampled_from([0.0, -0.0, 1.0, 2.0, -0.5, 3.25, 1e300, 1e400]),
               offset=_offsets),
    hst.builds(Var, hst.integers(0, N_VARS - 1), offset=_offsets))
EXPRESSIONS = hst.recursive(_leaves, lambda kids: hst.one_of(
    hst.builds(Neg, kids, offset=_offsets),
    hst.builds(Bin, hst.sampled_from("+-*/"), kids, kids, offset=_offsets),
    hst.builds(Pow, kids, hst.integers(-3, 4), offset=_offsets),
    hst.builds(Call, hst.sampled_from(ex.FUNCTIONS), kids, offset=_offsets)),
    max_leaves=10)


def tree_walk(trees, X):
    """The reference: evaluate tree by tree; (values, None) or (None, first error)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            cols = [treewalk.evaluate(e, X) for e in trees]
    except EvalDomainError as err:
        return None, (str(err), err.offset)
    return np.column_stack(cols), None


def compiled(trees, X):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ex.compile_kernel(trees)(X), None
    except EvalDomainError as err:
        return None, (str(err), err.offset)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestCompiledKernel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hst.lists(EXPRESSIONS, min_size=1, max_size=3), hst.integers(0, 2 ** 32 - 1),
           hst.sampled_from(["positive", "mixed", "huge"]))
    def test_matches_the_tree_walk_bit_for_bit(self, trees, seed, spread):
        # the trees, then every derivative tree of the first one
        trees = trees + [ex.diff(trees[0], j) for j in range(N_VARS)]
        rng = np.random.default_rng(seed)
        for rows in (1, 9, 512):
            if spread == "positive":
                X = rng.uniform(0.1, 2.0, size=(rows, N_VARS))
            else:
                X = rng.normal(0.0, 1e200 if spread == "huge" else 3.0, size=(rows, N_VARS))
                X[rng.uniform(size=X.shape) < 0.1] = 0.0
            want, want_err = tree_walk(trees, X)
            got, got_err = compiled(trees, X)
            assert got_err == want_err
            if want_err is None:
                assert_bitwise(got, want)

    def test_overflow_of_an_earlier_item_wins(self):
        P = pb.load_problem("vars x1 x2\nmin x1\nineq exp(x1) - 1\nineq 5 + log(x2)\n",
                            from_path=False)
        # a constant item that is not finite: the parser rejects the literal 1e400
        P = replace(P, g=P.g + (Const(1e400, offset=0),))
        x = [1000.0, 0.0]
        with pytest.raises(EvalDomainError, match=r"overflowed.*\(offset 8\)"):
            P.values(x, [("g", 0), ("g", 1)])
        with pytest.raises(EvalDomainError, match=r"log of a nonpositive value \(offset 4\)"):
            P.values(x, [("g", 1), ("g", 0)])
        with pytest.raises(EvalDomainError, match=r"overflowed.*\(offset 0\)"):
            P.values([0.0, 1.0], [("g", 2)])  # a constant item is checked too

    def test_domain_error_after_an_overflowed_tree_reports_that_tree(self):
        # row 1 overflows trees 1 and 2; row 0 then fails tree 3's log check:
        # the walk stops at tree 1's output check first
        P = pb.load_problem("vars x1 x2\nmin x1\nineq x2 - 1\nineq exp(x1)\n"
                            "ineq 2 * exp(x1)\nineq 5 + log(x2)\n", from_path=False)
        trees = [P.expr("g", i) for i in range(4)]
        X = np.array([[1.0, 0.0], [1000.0, 1.0]])
        for first, want in ((0, trees[1].offset), (2, trees[2].offset), (3, 4)):
            what = "log of a nonpositive value" if first == 3 else "overflowed"
            err = compiled(trees[first:], X)[1]
            assert err == tree_walk(trees[first:], X)[1]
            assert what in err[0] and err[1] == want
        assert trees[1].offset != trees[2].offset

    def test_derivatives_report_the_gradient_trees_first(self):
        # the "jh" kernel computes every gradient tree, then the Hessians'
        # upper-triangle trees, so its first error is the walk's over that
        # order: at (0.1, 1e155) the Hessian of g0 overflows and so does the
        # gradient of g1, which wins though g0 comes first
        P = pb.load_problem("vars x1 x2\nmin x1\nineq 1e308 * x1^2\nineq x2^3\n",
                            from_path=False)
        items = [("g", 0), ("g", 1)]
        grads = [d for it in items for d in P.gradient_trees[it]]
        hess = [ex.diff(P.gradient_trees[it][i], j) for it in items
                for i, j in zip(*np.triu_indices(P.n))]
        far, near = np.array([[0.1, 1e155]]), np.array([[0.1, 1.0]])
        assert tree_walk(grads, near)[1] is None
        assert tree_walk(grads, far)[1] != tree_walk(hess, far)[1]
        for x, want in ((far, tree_walk(grads, far)[1]), (near, tree_walk(hess, near)[1])):
            X = np.vstack([x, [0.0, 0.0]])
            with pytest.raises(EvalDomainError) as err:
                P.derivatives(X, items)
            assert (str(err.value), err.value.offset) == tree_walk(grads + hess, X)[1] == want
        # so the Hessian of g1 alone now raises where only its gradient overflows
        with pytest.raises(EvalDomainError, match=r"overflowed.*\(offset 2\)"):
            P.hessian([0.1, 1e155], ("g", 1))
        assert np.array_equal(P.hessian([0.1, 2.0 ** 300], ("g", 1)),
                              [[0.0, 0.0], [0.0, 6 * 2.0 ** 300]])

    @pytest.mark.parametrize("items", [1, 4, 40])
    def test_two_finiteness_checks_whatever_the_width(self, items, monkeypatch):
        # one check of the point and one of the outputs, not one per tree
        sources = []

        def spy(src, *args):
            sources.append(src)
            return compile(src, *args)
        monkeypatch.setattr(ex, "compile", spy, raising=False)
        trees = [Bin("*", Var(i % 3), Const(float(i))) for i in range(items)]
        ex.compile_kernel(trees)
        ex.compile_kernel([ex.diff(e, j) for e in trees for j in range(3)])
        assert [src.count("isfinite") for src in sources] == [2, 2]

    def test_constant_columns_share_one_store(self, monkeypatch):
        # tilted_sheet3d's "jh" kernel over [f, H0, g0] has 36 columns, all
        # constant (every gradient entry and every Hessian entry); a kernel of
        # computed columns beside -0.0, 0.0 and other constants still stores
        # them in one whole-row broadcast, byte for byte the walk's
        sources = []

        def spy(src, *args):
            sources.append(src)
            return compile(src, *args)
        monkeypatch.setattr(ex, "compile", spy, raising=False)
        P = pb.load_problem(str(problem_path("tilted_sheet3d")))
        items = [pb.OBJECTIVE, ("H", 0), ("g", 0)]
        X = np.random.default_rng(0).normal(size=(9, 3))
        trees = [d for it in items for d in P.gradient_trees[it]]
        trees += [ex.diff(P.gradient_trees[it][min(i, j)], max(i, j)) for it in items
                  for i in range(3) for j in range(3)]
        assert_bitwise(P._evaluate("jh", items, X), tree_walk(trees, X)[0])
        signed = [Const(-0.0), Var(0), Const(0.0), Bin("*", Var(1), Const(-0.0)),
                  Const(-0.0), Const(2.5), Neg(Var(2)), Const(0.0)]
        for trees in ([Var(0), Const(2.0)], signed):
            got, want = compiled(trees, X)[0], tree_walk(trees, X)[0]
            assert got.tobytes() == want.tobytes()
        assert np.signbit(got[:, [0, 4]]).all() and not np.signbit(got[:, [2, 7]]).any()
        stores = [[line.strip() for line in src.splitlines()
                   if re.match(r"\s*out\[.*\] = (?!t\d+$)", line)] for src in sources]
        assert stores == [["out[...] = _row"]] * 3

    @staticmethod
    def _assert_whole_hessians(P, items, X):
        """P.derivatives' Hessians equal their transposes byte for byte and
        their upper triangles the walk of each upper entry's tree; where the
        walk of the gradient trees, then those entries, fails, the same error."""
        upper = [ex.diff(P.gradient_trees[it][i], j) for it in items
                 for i, j in zip(*np.triu_indices(P.n))]
        grads = [d for it in items for d in P.gradient_trees[it]]
        want, err = tree_walk(grads + upper, X)
        if err is not None:
            with pytest.raises(EvalDomainError) as got:
                P.derivatives(X, items)
            assert (str(got.value), got.value.offset) == err
            return
        J, Hs = P.derivatives(X, items)
        assert Hs.tobytes() == Hs.swapaxes(-1, -2).tobytes()
        iu = np.triu_indices(P.n)
        assert Hs[..., iu[0], iu[1]].reshape(len(X), -1).tobytes() == want[:, len(grads):].tobytes()
        assert J.reshape(len(X), -1).tobytes() == want[:, :len(grads)].tobytes()

    def test_whole_hessians_are_symmetric_to_the_bit_on_the_corpus(self, corpus):
        rng = np.random.default_rng(8)
        for P in corpus.values():
            for rows in (1, 9):
                self._assert_whole_hessians(P, list(P.items), rng.normal(size=(rows, P.n)))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(hst.lists(EXPRESSIONS, min_size=1, max_size=3), hst.integers(0, 2 ** 32 - 1))
    def test_whole_hessians_are_symmetric_to_the_bit(self, trees, seed):
        P = pb.MpscProblem(N_VARS, ("x1", "x2", "x3"), trees[0], tuple(trees[1:]), (), ())
        rng = np.random.default_rng(seed)
        for X in (rng.uniform(0.1, 2.0, size=(9, N_VARS)), rng.normal(0.0, 3.0, size=(1, N_VARS))):
            self._assert_whole_hessians(P, list(P.items), X)

    def test_non_finite_point_is_a_domain_error(self, corpus):
        P = corpus["axes2d"]
        for call in (lambda: P.values([np.inf, 0.0], P.items),
                     lambda: P.jacobian(np.array([[0.0, 0.0], [np.nan, 0.0]]), P.items)):
            with pytest.raises(EvalDomainError, match="evaluation point must be finite"):
                call()
        assert P.values([np.inf, 0.0], []).shape == (0,)  # no item, nothing evaluated

    def test_same_subtree_at_two_offsets_keeps_both(self):
        # sqrt(x2) at offset 5 and at offset 0: each derivative keeps its own
        # check, in one kernel and in either order
        P = pb.load_problem("vars x1 x2\nmin x1 + x2\nineq x1 + sqrt(x2)\n"
                            "ineq sqrt(x2) - 5\nswitch x1 | x2\n", from_path=False)
        for items, offset in (([("g", 0), ("g", 1)], 5), ([("g", 1), ("g", 0)], 0)):
            with pytest.raises(EvalDomainError, match=rf"division by zero \(offset {offset}\)"):
                P.jacobian([0.0, 0.0], items)
            with pytest.raises(EvalDomainError, match=rf"sqrt.*\(offset {offset}\)"):
                P.values([0.0, -1.0], items)
        assert np.array_equal(P.jacobian([[0.0, 4.0]], [("g", 0), ("g", 1)]),
                              [[[1.0, 0.25], [0.0, 0.25]]])


def _expr_kernel_uses(tree):
    """Names of expr's evaluate/gradient/hessian/diff a module imports or calls."""
    kernel = {"evaluate", "gradient", "hessian", "diff"}
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_expr = node.module in ("expr", "mpsckit.expr")
            for alias in node.names:
                if from_expr and alias.name in kernel:
                    uses.append(alias.name)
                elif not from_expr and alias.name == "expr":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "mpsckit.expr")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in kernel \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_only_the_kernel_evaluates_expressions():
    # the tree walk (expr.evaluate) is the tests' reference only, and only
    # expr.py generates code
    src = Path(pb.__file__).parent
    assert _expr_kernel_uses(ast.parse((src / "problem.py").read_text()))
    offenders = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = [u for u in _expr_kernel_uses(tree)
                if path.name not in ("expr.py", "problem.py") or u.endswith("evaluate")]
        uses += [node.func.id for node in ast.walk(tree) if path.name != "expr.py"
                 and isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in ("exec", "compile", "eval")]
        if uses:
            offenders[path.name] = uses
    assert offenders == {}


def _callers(name):
    """(module file, function) pairs of the package that call `name`."""
    out = set()
    for path in sorted(Path(pb.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update((path.name, fn.name) for node in ast.walk(fn)
                           if isinstance(node, ast.Call)
                           and name in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None)))
    return out


def test_only_the_point_context_and_penalty_draw_neighbourhood_samples():
    # a point-level check reads ctx.shells, so its samples are drawn once per
    # context and are the ones every other check at the point reads; in cones
    # and cq the only other random draw is ACQ's weights of the interior
    # directions of a cone piece, which samples no point; soc draws nothing
    offsets = _callers("ball_offsets")
    assert {name for name, _ in offsets} == {"cones.py", "penalty.py"}
    assert {fn for name, fn in offsets if name == "cones.py"} == {"shells"}
    assert {c for c in _callers("rng") if c[0] in ("cones.py", "cq.py", "soc.py")} \
        == {("cones.py", "shells"), ("cq.py", "acq_directions")}


def test_the_cone_layer_runs_no_solver():
    # cones builds the cones; projections onto F belong to penalty and solver
    tree = ast.parse((Path(pb.__file__).parent / "cones.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "solver" not in imported and imported <= {"__future__", "dataclasses", "functools",
                                                     "errors", "numeric", "problem"}


def test_only_the_cone_quadratic_form_routine_eigensolves_in_soc_and_cq():
    # WSONC, SSONC and PSOQN's curvature test all decide d^T Q d over cone
    # pieces through quadform_min_over_cone: the projected eigensolve on a
    # subspace and the copositivity test's stacked eigensolves elsewhere
    assert {c for c in _callers("eigh_stack")
            if c[0] in ("soc.py", "cq.py")} == {("soc.py", "quadform_min_over_cone")}


def test_no_module_calls_a_numpy_set_routine():
    # with numpy 2.4 each of these imports numpy.ma, a cost to every fresh
    # process that reaches the call; np.isin does not
    banned = {"unique", "union1d", "intersect1d", "setdiff1d", "setxor1d"}
    calls = {(path.name, node.func.attr)
             for path in sorted(Path(pb.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in banned}
    assert calls == set()


def test_the_critical_cone_is_built_only_by_the_point_context():
    # report and SSONC read ctx.critical, one cut-form cone per point, and
    # I_g^- reads the linearization piece's implicit equalities, not an LP of its own
    assert _callers("critical_cone") == {("cones.py", "critical")}
    assert not {("cq.py", "i_g_minus")} & (_callers("combination") | _callers("combination_lp"))


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_process_wide_caches_or_function_local_imports():
    offenders = []
    for path in sorted(Path(pb.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            offenders += [(path.name, fn.name, "@" + _decorator_name(d))
                          for d in fn.decorator_list
                          if _decorator_name(d) in ("lru_cache", "cache")]
            offenders += [(path.name, fn.name, "import") for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_private_lapack_gufunc_is_reached_only_through_numeric():
    # numpy.linalg._umath_linalg is private: numeric.lstsq_stack is its one
    # user, so a numpy release that moves it breaks in exactly one place
    users = [path.name for path in sorted(Path(pb.__file__).parent.glob("*.py"))
             if "_umath_linalg" in path.read_text()]
    assert users == ["numeric.py"]
