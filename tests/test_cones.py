import numpy as np
import pytest

from conftest import in_cone_union

from mpsckit import cones
from mpsckit.cones import AXIS_A, AXIS_B, CROSS, ORIGIN, PointContext
from mpsckit.errors import InfeasiblePointError
from mpsckit.numeric import Tolerances
from mpsckit.problem import load_problem

TOL = Tolerances()


class TestCrossCones:
    def test_a_zero_b_nonzero(self):
        k = cones.cross_cones(0.0, 5.0, TOL)
        assert k.case == "a_zero_b_nonzero"
        assert (k.tangent, k.frechet_normal, k.limiting_normal) == (AXIS_B, AXIS_A, AXIS_A)

    def test_both_zero(self):
        k = cones.cross_cones(0.0, 0.0, TOL)
        assert k.case == "both_zero"
        assert (k.tangent, k.frechet_normal, k.limiting_normal) == (CROSS, ORIGIN, CROSS)

    def test_a_nonzero_b_zero(self):
        k = cones.cross_cones(3.0, 0.0, TOL)
        assert k.tangent == AXIS_A

    def test_off_set_rejected(self):
        with pytest.raises(InfeasiblePointError):
            cones.cross_cones(1.0, 1.0, TOL)


class TestLinearizationCone:
    def test_parabola_sheet_union_is_halfspace(self, corpus):
        L = cones.linearization_cone(PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert len(L.pieces) == 2
        rng = np.random.default_rng(0)
        for d in rng.normal(size=(200, 3)):
            assert in_cone_union(L, d, TOL) == (d[0] >= -1e-12)

    def test_diagonal2d_pieces_are_origin(self, corpus):
        L = cones.linearization_cone(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        for piece in L.pieces:
            assert piece.lineality_basis(TOL).shape[1] == 0
            assert piece.is_subspace(TOL)
        assert not in_cone_union(L, [1.0, 0.0], TOL)
        assert in_cone_union(L, [0.0, 0.0], TOL)

    def test_no_constraints_full_space(self):
        P = load_problem("vars x1 x2\nmin x1\n", from_path=False)
        L = cones.linearization_cone(PointContext(P, [0.3, -0.4], TOL))
        assert len(L.pieces) == 1
        assert in_cone_union(L, [17.0, -5.0], TOL)


class TestCriticalCone:
    def test_pinch2d_is_horizontal_axis(self, corpus):
        C = cones.critical_cone(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert in_cone_union(C, [1.0, 0.0], TOL)
        assert in_cone_union(C, [-1.0, 0.0], TOL)
        assert not in_cone_union(C, [0.0, 1.0], TOL)
        assert not in_cone_union(C, [1.0, 0.5], TOL)

    def test_diagonal2d_is_origin(self, corpus):
        C = cones.critical_cone(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert not in_cone_union(C, [1.0, 0.0], TOL)
        assert not in_cone_union(C, [1.0, 1.0], TOL)
        assert in_cone_union(C, [0.0, 0.0], TOL)

    def test_unconstrained_stationary_full_space(self):
        P = load_problem("vars x1 x2\nmin x1^2 + x2^2\n", from_path=False)
        C = cones.critical_cone(PointContext(P, [0.0, 0.0], TOL))
        assert in_cone_union(C, [3.0, -4.0], TOL)


class TestCriticalSubspace:
    def test_parabola_sheet_spans_e3(self, corpus):
        B = cones.critical_subspace(PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert B.shape == (3, 1)
        assert np.allclose(np.abs(B[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_pinch2d_trivial(self, corpus):
        B = cones.critical_subspace(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert B.shape == (2, 0)

    def test_no_active_constraints_full(self):
        P = load_problem("vars x1 x2\nmin x1\nineq x1 - 1\n", from_path=False)
        B = cones.critical_subspace(PointContext(P, [0.0, 0.0], TOL))
        assert B.shape == (2, 2)

    def test_subspace_inside_every_linearization_piece(self, corpus, tol):
        # the unconditional inclusion is into the linearization cone; the
        # critical cone only contains the subspace at S-stationary points
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            B = cones.critical_subspace(ctx)
            L = cones.linearization_cone(ctx)
            for j in range(B.shape[1]):
                for piece in L.pieces:
                    slack = tol.tau_feas * 2.0
                    assert piece.contains(B[:, j], slack), name
                    assert piece.contains(-B[:, j], slack), name


class TestTangentSampling:
    def test_halfline(self):
        P = load_problem("vars x\nmin x\nineq -x\n", from_path=False)
        cloud = cones.sample_tangent_directions(P, [0.0], TOL)
        assert len(cloud) > 0
        assert np.all(cloud.directions > 0.999)

    def test_isolated_point_empty_cloud(self, corpus):
        cloud = cones.sample_tangent_directions(corpus["diagonal2d"], [0.0, 0.0], TOL)
        assert len(cloud) == 0

    def test_parabola_sheet_cloud_in_tangent_union(self, corpus):
        cloud = cones.sample_tangent_directions(
            corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL)
        assert len(cloud) > 0
        # T = ({0} x R x R) u (R+ x {0} x R) within the angular tolerance
        for d in cloud.directions:
            in_plane = abs(d[0]) <= np.sin(TOL.angular_tol)
            on_sheet = d[0] >= -1e-9 and abs(d[1]) <= np.sin(TOL.angular_tol)
            assert in_plane or on_sheet


class TestExplicitMembership:
    def test_negative_axis_outside_halfspace_union(self, corpus):
        L = cones.linearization_cone(PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert not in_cone_union(L, [-1.0, 0.0, 0.0], TOL)
        assert in_cone_union(L, [0.0, 0.0, 0.0], TOL)


class TestPointContext:
    def test_rows_match_the_kernel(self, corpus):
        P = corpus["wedge3d"]
        ctx = PointContext(P, [0.1, -0.2, 0.3], TOL)
        items = [("H", 0), ("g", 2), ("f", 0), ("g", 2)]
        assert np.array_equal(ctx.rows(items), P.jacobian([0.1, -0.2, 0.3], items))
        assert np.array_equal(ctx.grad("g", 2), P.jacobian([0.1, -0.2, 0.3], [("g", 2)])[0])
        assert ctx.rows([]).shape == (0, 3)

    def test_undefined_gradient_of_an_unused_item_is_not_evaluated(self):
        # sqrt(x2) - 5 is inactive at the origin and its gradient is undefined
        # there: only two CQ checkers fail, PSOQN, which uses every inequality
        # gradient, and ACQ, which samples points with x2 < 0
        from mpsckit import report
        P = load_problem("vars x1 x2\nmin x1 + x2\nineq -x2\nineq sqrt(x2) - 5\n"
                         "switch x1 | x2\n", from_path=False)
        rep = report.analyze(P, [0.0, 0.0], TOL)
        assert [e["component"] for e in rep["errors"]] == ["cq.ACQ", "cq.PSOQN"]
        assert set(rep["verdicts"]["stationarity"]) == {"W", "M", "S", "normal_cone_oracle"}
