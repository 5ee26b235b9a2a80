from pathlib import Path

import numpy as np
import pytest

from conftest import CORPUS_POINTS
from mpsckit import penalty, report
from mpsckit.cones import PointContext
from mpsckit.errors import EvalDomainError, InfeasiblePointError
from mpsckit.numeric import Tolerances, sanitize
from mpsckit.problem import OBJECTIVE, all_branches, load_problem

TOL = Tolerances()


class TestResidual:
    def test_feasible_zero(self, corpus):
        assert penalty.residual(corpus["axes2d"].constraint_values([0.0, 0.0])) == 0.0

    def test_axes2d_at_11(self, corpus):
        r = penalty.residual(corpus["axes2d"].constraint_values([1.0, 1.0]))
        assert r == pytest.approx(1.0)

    def test_ray2d_quadratic_along_axis(self, corpus):
        t = 0.05
        assert penalty.residual(corpus["ray2d"].constraint_values([t, 0.0])) == pytest.approx(t * t)

    def test_swap_invariance(self, corpus):
        from mpsckit.problem import MpscProblem
        rng = np.random.default_rng(0)
        for name, P in corpus.items():
            swapped = MpscProblem(P.n, P.var_names, P.f, P.g, P.h,
                                  tuple((H, G) for G, H in P.switch_pairs))
            X = rng.uniform(-1, 1, size=(100, P.n))
            assert np.allclose(P.residual(X), swapped.residual(X)), name


class TestPenalizedObjective:
    @staticmethod
    def at(P, x, kappa):
        """The penalized objective at x from f and the residual there."""
        f = P.values(np.asarray(x, float), [OBJECTIVE])[0]
        return penalty.penalized_objective(f, penalty.residual(P.constraint_values(x)), kappa)

    def test_feasible_equals_f(self, corpus):
        P = corpus["axes2d"]
        assert self.at(P, [0.0, 0.0], 7.0) == pytest.approx(0.0)

    def test_axes2d_value(self, corpus):
        # (1 - 3) + 2 * 1
        v = self.at(corpus["axes2d"], [1.0, 1.0], 2.0)
        assert v == pytest.approx(0.0)

    def test_affine_in_kappa(self, corpus):
        P = corpus["ray2d"]
        x = [0.3, -0.2]
        r = penalty.residual(P.constraint_values(x))
        v1 = self.at(P, x, 1.0)
        v3 = self.at(P, x, 3.0)
        assert v3 - v1 == pytest.approx(2.0 * r, rel=1e-12)

    def test_monotone_in_kappa(self, corpus):
        rng = np.random.default_rng(1)
        P = corpus["axes2d"]
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            vals = [self.at(P, x, k) for k in (0.5, 1.0, 2.0)]
            assert vals[0] <= vals[1] <= vals[2] + 1e-15


class TestDistance:
    """Distances through penalty.nearest_feasible, the error-bound
    probe's path: every row of a batch is projected onto every branch of P."""

    def test_feasible_point_zero(self, corpus):
        P = corpus["axes2d"]
        d, Y = penalty.nearest_feasible(P, [[0.0, 0.0]], TOL, all_branches(P))
        assert d[0] == 0.0 and np.allclose(Y[0], [0.0, 0.0])

    def test_ray2d_off_axis(self, corpus):
        P = corpus["ray2d"]
        d, Y = penalty.nearest_feasible(P, [[0.1, 0.0]], TOL, all_branches(P))
        assert d[0] == pytest.approx(0.1, abs=1e-4)
        assert np.allclose(Y[0], [0.0, 0.0], atol=1e-3)

    def test_plane_distance(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1\n")
        d, Y = penalty.nearest_feasible(P, [[0.3, 0.7]], TOL, all_branches(P))
        assert d[0] == pytest.approx(0.3, abs=1e-6)
        assert np.allclose(Y[0], [0.0, 0.7], atol=1e-6)

    def test_zero_set_agreement(self, corpus):
        rng = np.random.default_rng(2)
        P = corpus["axes2d"]
        X = rng.uniform(-0.5, 0.5, size=(25, 2))
        d, Y = penalty.nearest_feasible(P, X, TOL, all_branches(P))
        for x, dist, y in zip(X, d, Y):
            r = penalty.residual(P.constraint_values(x))
            assert (dist == 0.0) == (r <= TOL.tau_feas)
            assert penalty.residual(P.constraint_values(y)) <= TOL.tau_feas


class TestErrorBound:
    def test_linear_constraints_hold(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1 - x2\nineq -x1\n")
        rep = penalty.error_bound_probe(PointContext(P, [0.0, 0.0], TOL))
        assert rep.verdict == "HOLDS"

    def test_ray2d_fails_with_growth(self, corpus):
        rep = penalty.error_bound_probe(PointContext(corpus["ray2d"], [0.0, 0.0], TOL))
        assert rep.verdict == "FAILS"
        seq = rep.witness_sequence
        ratios = [s["ratio"] for s in seq]
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] >= 16.0 * (1.0 - penalty.GROWTH_SLACK) * ratios[0]
        # the escape ray is (t, 0)
        for s in seq:
            assert s["point"][0] > 0 and abs(s["point"][1]) <= 1e-9

    def test_diagonal2d_holds(self, corpus):
        rep = penalty.error_bound_probe(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert rep.verdict == "HOLDS"
        assert rep.alpha_hat <= 4.0

    def test_needs_feasible_center(self, corpus):
        with pytest.raises(InfeasiblePointError):
            penalty.error_bound_probe(PointContext(corpus["ray2d"], [1.0, 1.0], TOL))

    @pytest.mark.parametrize("seed", [42, *range(1, 21)])
    def test_parabola_sheet3d_fails_along_l_minus_t(self, corpus, seed):
        # L = {d1 >= 0} there, but T holds no d with d1 > 0 and d2 != 0:
        # dist/t stays bounded below while the residual is o(t)
        tol = Tolerances(seed=seed)
        ctx = PointContext(corpus["parabola_sheet3d"], np.zeros(3), tol)
        rep = penalty.error_bound_probe(ctx)
        assert rep.verdict == "FAILS"
        seq = rep.witness_sequence
        d = [np.array(s["point"]) / s["radius"] for s in seq]
        assert all(np.allclose(di, d[0], atol=1e-12) for di in d)
        assert d[0][0] > 0 and abs(d[0][1]) > 0.1
        ratios = [s["ratio"] for s in seq]
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] >= 16.0 * (1.0 - penalty.GROWTH_SLACK) * ratios[0]

    def test_one_projection_of_one_direction_set(self, corpus, monkeypatch):
        # every projected direction is tested at all three radii, in one call
        calls = []
        nearest = penalty.nearest_feasible

        def recording(P, X, tol, branches):
            calls.append((np.array(X), len(branches)))
            return nearest(P, X, tol, branches)

        monkeypatch.setattr(penalty, "nearest_feasible", recording)
        for name, P in corpus.items():
            calls.clear()
            ctx = PointContext(P, np.zeros(P.n), TOL)
            rep = penalty.error_bound_probe(ctx)
            assert len(calls) == 1, name
            X, n_branches = calls[0]
            assert n_branches == len(all_branches(P)), name
            radii = [c["radius"] for c in rep.ratio_curve]
            D = X.reshape(len(radii), -1, P.n) / np.array(radii)[:, None, None]
            assert np.allclose(D, D[0], atol=1e-12), name
            assert np.allclose(D[0, :2 * P.n], np.vstack([np.eye(P.n), -np.eye(P.n)])), name

    # feasible points where not every switch is biactive, so that the branches
    # at x are fewer than the problem's; at the first two the inactive side
    # x1 = 0 lies within the probe ball
    OFF_BIACTIVE = [("axes2d", (1e-6, 0.0)), ("axes2d", (1e-3, 0.0)),
                    ("axes2d", (0.5, 0.0)), ("axes2d", (0.0, -0.3)),
                    ("wedge3d", (0.0, -0.5, 0.3)), ("ray2d", (0.0, -0.4)),
                    ("crossplanes3d", (0.3, 0.3, 0.0)), ("parabola_sheet3d", (0.0, 0.2, 0.0)),
                    ("tilted_sheet3d", (-0.2, 0.3, 0.0))]

    @pytest.mark.parametrize("name, x", [*OFF_BIACTIVE, *CORPUS_POINTS.items()])
    def test_the_error_bound_is_every_branchs(self, corpus, monkeypatch, name, x):
        # the probe ball can reach switch sides inactive at x, so the probe
        # projects onto every branch of the problem: its report is the one
        # that projecting every ray onto every branch gives
        P = corpus[name]
        ctx = PointContext(P, x, TOL)
        rep = sanitize(penalty.error_bound_probe(ctx))
        assert (len(ctx.branches) < len(all_branches(P))) == ((name, x) in self.OFF_BIACTIVE)
        nearest = penalty.nearest_feasible
        monkeypatch.setattr(penalty, "nearest_feasible",
                            lambda P, X, tol, branches: nearest(P, X, tol, all_branches(P)))
        assert sanitize(penalty.error_bound_probe(PointContext(P, x, TOL))) == rep

    @pytest.mark.parametrize("name, x", [*OFF_BIACTIVE, *CORPUS_POINTS.items()])
    def test_branches_pin_one_side_of_every_switch(self, corpus, name, x):
        # the branches at x, on which ACQ projects, are some of P's, on which
        # the error bound projects; each pins G or H of every switch
        P = corpus[name]
        ctx, every = PointContext(P, x, TOL), all_branches(P)
        for br in ctx.branches + every:
            assert len(br.equalities()) == P.p + P.l, (name, x, br.label())
            assert sorted(br.eq_G + br.eq_H) == list(range(P.l)), (name, x, br.label())
        assert all(br in every for br in ctx.branches), (name, x)
        assert_pieces_are_the_branches(ctx)

    def test_cones_wide_pieces_are_the_branches(self):
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        ctx = PointContext(load_problem(str(path)), np.zeros(8), TOL)
        assert len(ctx.branches) == 64
        assert_pieces_are_the_branches(ctx)

    def test_an_inactive_side_within_the_ball_is_projected_onto(self, corpus):
        # at (1e-6, 0) only x2 = 0 is active, but on the ray (1e-6, -t) the
        # branch x1 = 0 is 1e-6 away, as far as the residual says
        rep = penalty.error_bound_probe(PointContext(corpus["axes2d"], [1e-6, 0.0], TOL))
        assert rep.verdict == "HOLDS"
        assert rep.alpha_hat < 1.01

def assert_pieces_are_the_branches(ctx):
    """Cone piece k is that of branch k, whose split partitions I_GH."""
    I = ctx.I
    assert len(ctx.linearization) == len(ctx.critical) == len(ctx.branches)
    for br, piece, cut in zip(ctx.branches, ctx.linearization, ctx.critical):
        rows = ctx.rows(br.equalities())
        assert piece.A_eq.shape == rows.shape and piece.A_eq.tobytes() == rows.tobytes()
        assert cut.parent is piece
        beta1, beta2 = ctx.split(br)
        assert sorted(beta1 + beta2) == list(I.I_GH) and not set(beta1) & set(beta2)
        assert sorted(I.I_G + tuple(beta1)) == list(br.eq_G)


def at_origin(P):
    """The point context at the origin and the error-bound probe's report
    there, which the penalty probe takes."""
    ctx = PointContext(P, [0.0, 0.0], TOL)
    return ctx, penalty.error_bound_probe(ctx)


class TestExactPenalty:
    def test_diagonal2d_certificate(self, corpus):
        P = corpus["diagonal2d"]
        rep = penalty.exact_penalty_probe(*at_origin(P))
        assert rep.error_bound.verdict == "HOLDS"
        assert rep.kappa_bar_hat is not None and rep.kappa_bar_hat > 0
        by_factor = {round(g["kappa"] / rep.kappa_bar_hat, 3): g for g in rep.kappa_grid}
        assert by_factor[2.0]["local_min"] is True
        assert by_factor[4.0]["local_min"] is True

    def test_constant_objective_always_local_min(self):
        P = load_problem("vars x1 x2\nmin 0\nswitch x1 | x2\n")
        rep = penalty.exact_penalty_probe(*at_origin(P))
        assert all(g["local_min"] for g in rep.kappa_grid)

    def test_ray2d_no_certificate_and_grid_fails(self, corpus):
        P = corpus["ray2d"]
        rep = penalty.exact_penalty_probe(*at_origin(P))
        assert rep.error_bound.verdict == "FAILS"
        assert rep.kappa_bar_hat is None
        assert rep.notes
        # f = -x1 beats every finite kappa along (t, 0)
        assert all(not g["local_min"] for g in rep.kappa_grid)
        w = rep.kappa_grid[0]["witness"]
        assert w is not None and w[0] > 0

    def test_lipschitz_estimate_covers_samples(self, corpus):
        P = corpus["diagonal2d"]
        rep = penalty.exact_penalty_probe(*at_origin(P))
        rng = np.random.default_rng(9)
        X = rng.uniform(-rep.minimality_radius, rep.minimality_radius, size=(200, 2))
        X = X[np.linalg.norm(X, axis=1) <= rep.minimality_radius]
        norms = np.linalg.norm(P.jacobian(X, [("f", 0)])[:, 0], axis=1)
        assert rep.L_f_hat >= np.max(norms) - 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_minimality_axis_rays_match_the_loop(self, n):
        # reference: x plus one step per axis, sign and halving, +0.0 off the axis
        P = load_problem("vars " + " ".join(f"x{j}" for j in range(n)) + "\nmin x0\n")
        for x in (np.full(n, -0.0), np.random.default_rng(n).normal(size=n)):
            want = []
            for j in range(n):
                for sgn in (1.0, -1.0):
                    for k in range(13):
                        step = np.zeros(n)
                        step[j] = sgn * 0.05 * 2.0 ** (-k)
                        want.append(x + step)
            Y = penalty._minimality_samples(P, x, 0.05, 7, np.random.default_rng(0))
            assert Y[7:].tobytes() == np.array(want).tobytes()


class TestDistanceInfo:
    def test_witness_attains_reported_distance(self, corpus):
        rng = np.random.default_rng(5)
        P = corpus["ray2d"]
        X = rng.uniform(-0.4, 0.4, size=(10, 2))
        d, Y = penalty.nearest_feasible(P, X, TOL, all_branches(P))
        for x, dist, y in zip(X, d, Y):
            assert np.linalg.norm(x - y) == pytest.approx(dist, abs=1e-12)


class TestAnalyzeWithPenalty:
    def test_error_bound_holds_only_where_acq_does_not_fail(self, corpus):
        # calmness (the local error bound) forces T(x) = L(x)
        for name, P in corpus.items():
            rep = report.analyze(P, CORPUS_POINTS[name], TOL, with_penalty=True)
            if rep["errorbound"]["verdict"] == "HOLDS":
                assert rep["verdicts"]["cq"]["ACQ"]["status"] != "FAILS", name

    def test_error_bound_probe_runs_once(self, corpus, monkeypatch):
        calls = []
        probe = penalty.error_bound_probe

        def counting(*args, **kwargs):
            calls.append(args)
            return probe(*args, **kwargs)

        monkeypatch.setattr(penalty, "error_bound_probe", counting)
        rep = report.analyze(corpus["diagonal2d"], [0.0, 0.0], TOL, with_penalty=True)
        assert len(calls) == 1
        assert rep["errorbound"] == rep["penalty"]["error_bound"]
        assert rep["errors"] == []

    def test_probe_error_skips_the_penalty_section(self, corpus, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            raise EvalDomainError("sqrt of a negative value", offset=4)

        monkeypatch.setattr(penalty, "error_bound_probe", failing)
        rep = report.analyze(corpus["diagonal2d"], [0.0, 0.0], TOL, with_penalty=True)
        assert "errorbound" not in rep and "penalty" not in rep
        assert rep["errors"] == [{"component": "errorbound",
                                  "message": "sqrt of a negative value (offset 4)"}]
        assert len(calls) == 1

    def test_domain_error_in_the_probe_is_reported_once(self, monkeypatch):
        # the error-bound probe evaluates sqrt(x1) at x1 < 0; the penalty
        # section, which needs its report, is skipped rather than probing again
        calls = []
        probe = penalty.error_bound_probe

        def counting(*args, **kwargs):
            calls.append(args)
            return probe(*args, **kwargs)

        monkeypatch.setattr(penalty, "error_bound_probe", counting)
        P = load_problem("vars x1 x2\nmin x1 + x2\nineq -x2\nineq sqrt(x1) - 5\n"
                         "switch x1 | x2\n")
        rep = report.analyze(P, [0.0, 0.0], TOL, with_penalty=True)
        assert [e["component"] for e in rep["errors"]] == ["cq.ACQ", "cq.PSOQN", "errorbound"]
        assert "errorbound" not in rep and "penalty" not in rep
        assert len(calls) == 1
