import gc
import sys
import warnings

import numpy as np
import pytest

from conftest import problem_path

from mpsckit import problem as pb
from mpsckit.errors import InfeasiblePointError, ParseError
from mpsckit.expr import to_text
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
        I = pb.index_sets(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)
        assert I.I_g == (0, 1, 2)
        assert I.I_GH == (0,) and I.I_G == () and I.I_H == ()

    def test_axes2d_origin(self, corpus):
        I = pb.index_sets(corpus["axes2d"], [0.0, 0.0], TOL)
        assert I.I_g == (0,) and I.I_GH == (0,)

    def test_one_sided_pair(self):
        P = pb.load_problem("vars x1 x2\nmin x1\nswitch x1 | x2\n", from_path=False)
        I = pb.index_sets(P, [1.0, 0.0], TOL)
        assert I.I_H == (0,) and I.I_GH == () and I.I_G == ()

    def test_infeasible_point_rejected(self, corpus):
        with pytest.raises(InfeasiblePointError):
            pb.index_sets(corpus["ray2d"], [9.0, 9.0], TOL)

    def test_invariant_partition(self, corpus):
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            I = pb.index_sets(P, np.array(CORPUS_POINTS[name]), TOL)
            union = set(I.I_G) | set(I.I_H) | set(I.I_GH)
            assert union == set(range(P.l))
            assert len(I.I_G) + len(I.I_H) + len(I.I_GH) == P.l


class TestBipartitions:
    def test_singleton(self, corpus):
        I = pb.index_sets(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)
        bs = pb.bipartitions(I)
        assert [(b.beta1, b.beta2) for b in bs] == [((), (0,)), ((0,), ())]

    def test_empty(self):
        I = pb.IndexSets((), (), (), (), ())
        assert [(b.beta1, b.beta2) for b in pb.bipartitions(I)] == [((), ())]

    def test_two_biactive(self, corpus):
        I = pb.index_sets(corpus["pinch2d"], [0.0, 0.0], TOL)
        assert len(pb.bipartitions(I)) == 4


class TestBranch:
    def test_wedge3d_g_pinned(self, corpus):
        P = corpus["wedge3d"]
        I = pb.index_sets(P, [0.0, 0.0, 0.0], TOL)
        br = pb.branch(P, I, pb.Bipartition((0,), ()))
        eqs = [to_text(e, P.var_names) for e in br.equalities()]
        assert eqs == ["x1"]
        assert len(P.g) == 3

    def test_ray2d_h_pinned(self, corpus):
        P = corpus["ray2d"]
        I = pb.index_sets(P, [0.0, 0.0], TOL)
        br = pb.branch(P, I, pb.Bipartition((), (0,)))
        eqs = [to_text(e, P.var_names) for e in br.equalities()]
        assert eqs == ["x2 - x1^2"]

    def test_no_switches_branch_is_instance(self):
        P = pb.load_problem("vars x\nmin x\nineq -x\n", from_path=False)
        I = pb.index_sets(P, [0.0], TOL)
        (b,) = pb.bipartitions(I)
        br = pb.branch(P, I, b)
        assert br.equalities() == []
        assert float(br.residual([0.5])) == 0.0


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
        I_p = pb.index_sets(P, [0.0, 0.0, 0.0], TOL)
        I_q = pb.index_sets(Q, [0.0, 0.0, 0.0], TOL)
        assert {perm[i] for i in I_q.I_g} == set(I_p.I_g)
        assert I_q.I_GH == I_p.I_GH
