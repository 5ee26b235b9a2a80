import numpy as np
import pytest

from conftest import CORPUS_POINTS
from mpsckit import cones, cq
from mpsckit.cones import PointContext
from mpsckit.cq import CqVerdict
from mpsckit.errors import LatticeContradictionError
from mpsckit.numeric import Tolerances
from mpsckit.problem import Bipartition, load_problem

TOL = Tolerances()


def rank_oracle(P, x, items):
    rows = [np.asarray(P.grad(P.expr(k, i), x)) for k, i in items]
    return np.linalg.matrix_rank(np.array(rows), tol=1e-8)


class TestLicq:
    def test_diagonal2d_fails(self, corpus):
        v = cq.check_licq(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS" and v.mode == "exact"
        assert v.evidence["rows"] == 3 and v.evidence["rank"] == 2

    def test_wedge3d_fails(self, corpus):
        v = cq.check_licq(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        assert v.evidence["rows"] == 5

    def test_single_boundary_constraint_holds(self):
        P = load_problem("vars x\nmin x\nineq -x\n", from_path=False)
        assert cq.check_licq(PointContext(P, [0.0], TOL)).status == "HOLDS"


class TestWcr:
    def test_wedge3d_holds(self, corpus):
        assert cq.check_wcr(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)).status == "HOLDS"

    def test_tilted_sheet3d_fails_with_verified_witness(self, corpus):
        P = corpus["tilted_sheet3d"]
        v = cq.check_wcr(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = v.evidence["witness"]
        items = cones.active_items(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert rank_oracle(P, np.array(w["point"]), items) == w["rank"]
        assert w["rank"] != v.evidence["rank"]

    def test_ray2d_holds(self, corpus):
        assert cq.check_wcr(PointContext(corpus["ray2d"], [0.0, 0.0], TOL)).status == "HOLDS"


class TestPwcr:
    def test_wedge3d_fails_on_g_pinned_branch(self, corpus):
        v = cq.check_pwcr(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        bad = [r for r in v.evidence["bipartitions"] if not r["constant"]]
        assert bad and bad[0]["bipartition"] == [[0], []]

    def test_tilted_sheet3d_holds(self, corpus):
        ctx = PointContext(corpus["tilted_sheet3d"], [0.0, 0.0, 0.0], TOL)
        assert cq.check_pwcr(ctx).status == "HOLDS"

    def test_ray2d_holds(self, corpus):
        assert cq.check_pwcr(PointContext(corpus["ray2d"], [0.0, 0.0], TOL)).status == "HOLDS"


class TestRcrcq:
    def test_diagonal2d_holds(self, corpus):
        assert cq.check_rcrcq(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL)).status == "HOLDS"

    def test_tilted_sheet3d_fails(self, corpus):
        v = cq.check_rcrcq(PointContext(corpus["tilted_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"

    def test_linear_constraints_hold(self):
        P = load_problem("vars x1 x2\nmin x1\nineq x1 + x2\nineq -x1\n", from_path=False)
        assert cq.check_rcrcq(PointContext(P, [0.0, 0.0], TOL)).status == "HOLDS"

    def test_single_triple_agrees_with_wcr(self, corpus, tol):
        # WCR is the (I_g, I_GH, I_GH) instance of the RCRCQ family
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            items = cones.active_items(ctx)
            rep = cq.rank_constancy(ctx, items, "wcr")
            wcr = cq.check_wcr(ctx)
            expected = "HOLDS" if rep["constant"] and not rep["thin_margin"] else (
                "FAILS" if not rep["constant"] else "UNKNOWN")
            assert wcr.status == expected, name


class TestIgMinus:
    def test_wedge3d_g_side(self, corpus):
        picked, cross = cq.i_g_minus(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL),
                                     Bipartition((0,), ()))
        assert picked == (0,)
        assert cross["agree"]

    def test_wedge3d_h_side(self, corpus):
        picked, cross = cq.i_g_minus(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL),
                                     Bipartition((), (0,)))
        assert picked == ()
        assert cross["agree"]

    def test_ray2d_h_side(self, corpus):
        picked, cross = cq.i_g_minus(PointContext(corpus["ray2d"], [0.0, 0.0], TOL),
                                     Bipartition((), (0,)))
        assert picked == (1,)
        assert cross["agree"]

    def test_lp_matches_i0_on_corpus(self, corpus, tol):
        from mpsckit.problem import bipartitions
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            for b in bipartitions(ctx.I):
                picked, cross = cq.i_g_minus(ctx, b)
                assert cross["agree"], (name, b)
                assert set(picked) == set(cross["I0"]), (name, b)


class TestPcrsc:
    def test_wedge3d_holds(self, corpus):
        ctx = PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)
        assert cq.check_pcrsc(ctx).status == "HOLDS"

    def test_ray2d_fails(self, corpus):
        v = cq.check_pcrsc(PointContext(corpus["ray2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        bad = [r for r in v.evidence["bipartitions"] if not r["constant"]]
        assert bad and bad[0]["bipartition"] == [[], [0]]
        assert bad[0]["I_g_minus"] == [1]

    def test_linear_constraints_hold(self):
        P = load_problem("vars x1 x2\nmin x1\nineq x1 + x2\nineq -x1\n", from_path=False)
        assert cq.check_pcrsc(PointContext(P, [0.0, 0.0], TOL)).status == "HOLDS"


class TestAcq:
    def test_parabola_sheet3d_fails(self, corpus):
        v = cq.check_acq(PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = np.array(v.evidence["witness_generator"])
        # witness leaves along x1 with the x2 = x1^2 sheet left behind
        assert w[0] > 0.9
        assert v.evidence["probe_residual"] > 10 * TOL.tau_feas

    def test_crossplanes3d_holds(self, corpus):
        v = cq.check_acq(PointContext(corpus["crossplanes3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.mode == "sampled"

    def test_single_linear_equality_holds(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1 - x2\n", from_path=False)
        assert cq.check_acq(PointContext(P, [0.0, 0.0], TOL)).status == "HOLDS"

    def test_diagonal2d_exact(self, corpus):
        v = cq.check_acq(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.mode == "exact"


class TestPsoqn:
    def test_unconstrained_holds(self):
        P = load_problem("vars x\nmin x^2\n", from_path=False)
        assert cq.check_psoqn(PointContext(P, [0.0], TOL)).status == "HOLDS"

    def test_single_inequality_holds(self):
        P = load_problem("vars x\nmin x\nineq -x\n", from_path=False)
        assert cq.check_psoqn(PointContext(P, [0.0], TOL)).status == "HOLDS"

    def test_opposed_gradients_unknown(self):
        P = load_problem("vars x\nmin x^2\nineq x\nineq -x\n", from_path=False)
        v = cq.check_psoqn(PointContext(P, [0.0], TOL))
        assert v.status == "UNKNOWN"


class TestLattice:
    def test_rcrcq_holds_propagates(self):
        table = cq.lattice_closure({"RCRCQ": CqVerdict("RCRCQ", "HOLDS", "sampled")})
        for name in ("PCRSC", "WCR", "SSOCQ", "WSOCQ", "ACQ", "GCQ"):
            assert table[name].status == "HOLDS"
            assert table[name].mode == "inferred"
        assert table["LICQ"].status == "UNKNOWN"
        assert table["PWCR"].status == "UNKNOWN"

    def test_acq_fails_propagates_backward(self):
        table = cq.lattice_closure({"ACQ": CqVerdict("ACQ", "FAILS", "sampled")})
        for name in ("RCRCQ", "LICQ", "PCRSC", "SSOCQ"):
            assert table[name].status == "FAILS"
        assert table["WCR"].status == "UNKNOWN"
        assert table["GCQ"].status == "UNKNOWN"

    def test_incomparable_nodes_no_contradiction(self):
        table = cq.lattice_closure({
            "WCR": CqVerdict("WCR", "HOLDS", "sampled"),
            "PWCR": CqVerdict("PWCR", "FAILS", "sampled"),
        })
        assert table["WCR"].status == "HOLDS"
        assert table["PWCR"].status == "FAILS"

    def test_contradiction_raises(self):
        with pytest.raises(LatticeContradictionError):
            cq.lattice_closure({
                "RCRCQ": CqVerdict("RCRCQ", "HOLDS", "sampled"),
                "ACQ": CqVerdict("ACQ", "FAILS", "sampled"),
            })


class TestGoldenTriples:
    def test_golden_verdict_triples(self, corpus):
        triples = {
            "wedge3d": ("HOLDS", "FAILS", "HOLDS"),
            "tilted_sheet3d": ("FAILS", "HOLDS", None),
            "ray2d": ("HOLDS", "HOLDS", "FAILS"),
        }
        for name, (wcr, pwcr, pcrsc) in triples.items():
            P = corpus[name]
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, TOL)
            assert cq.check_wcr(ctx).status == wcr, name
            assert cq.check_pwcr(ctx).status == pwcr, name
            if pcrsc is not None:
                assert cq.check_pcrsc(ctx).status == pcrsc, name

    def test_closure_no_contradiction_on_corpus(self, corpus, tol):
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            table = cq.run_all(PointContext(P, x, tol), with_psoqn=False)
            assert set(table) == set(cq.CQ_NAMES) - {"PSOQN"} or "PSOQN" in table

    def test_determinism(self, corpus):
        P = corpus["wedge3d"]
        a = cq.run_all(PointContext(P, [0.0, 0.0, 0.0], TOL))
        b = cq.run_all(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert {k: v.status for k, v in a.items()} == {k: v.status for k, v in b.items()}


class TestAcqTangentialIntersections:
    # branches whose equalities touch tangentially have fat residual tubes;
    # the contraction filter must not let tube points fabricate tangent
    # evidence for linearization directions that leave the feasible set
    def test_ray2d_fails(self, corpus):
        v = cq.check_acq(PointContext(corpus["ray2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = np.array(v.evidence["witness_generator"])
        assert w[0] > 0.9  # the (t, 0) escape ray

    def test_pinch2d_fails(self, corpus):
        v = cq.check_acq(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = np.array(v.evidence["witness_generator"])
        assert abs(w[0]) > 0.9 and abs(w[1]) < 0.1

    def test_pinch2d_cloud_is_empty(self, corpus):
        from mpsckit import cones
        cloud = cones.sample_tangent_directions(corpus["pinch2d"], [0.0, 0.0], TOL)
        assert len(cloud) == 0
