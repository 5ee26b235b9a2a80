import numpy as np
import pytest

from mpsckit import penalty, report
from mpsckit.errors import EvalDomainError, InfeasiblePointError
from mpsckit.numeric import Tolerances
from mpsckit.problem import load_problem

TOL = Tolerances()


class TestResidual:
    def test_feasible_zero(self, corpus):
        assert penalty.residual(corpus["axes2d"], [0.0, 0.0]) == 0.0

    def test_axes2d_at_11(self, corpus):
        assert penalty.residual(corpus["axes2d"], [1.0, 1.0]) == pytest.approx(1.0)

    def test_ray2d_quadratic_along_axis(self, corpus):
        t = 0.05
        assert penalty.residual(corpus["ray2d"], [t, 0.0]) == pytest.approx(t * t)

    def test_swap_invariance(self, corpus):
        from mpsckit.problem import MpscProblem
        rng = np.random.default_rng(0)
        for name, P in corpus.items():
            swapped = MpscProblem(P.n, P.var_names, P.f, P.g, P.h,
                                  tuple((H, G) for G, H in P.switch_pairs))
            X = rng.uniform(-1, 1, size=(100, P.n))
            assert np.allclose(P.residual(X), swapped.residual(X)), name


class TestPenalizedObjective:
    def test_feasible_equals_f(self, corpus):
        P = corpus["axes2d"]
        assert penalty.penalized_objective(P, [0.0, 0.0], 7.0) == pytest.approx(0.0)

    def test_axes2d_value(self, corpus):
        # (1 - 3) + 2 * 1
        v = penalty.penalized_objective(corpus["axes2d"], [1.0, 1.0], 2.0)
        assert v == pytest.approx(0.0)

    def test_affine_in_kappa(self, corpus):
        P = corpus["ray2d"]
        x = [0.3, -0.2]
        r = penalty.residual(P, x)
        v1 = penalty.penalized_objective(P, x, 1.0)
        v3 = penalty.penalized_objective(P, x, 3.0)
        assert v3 - v1 == pytest.approx(2.0 * r, rel=1e-12)

    def test_monotone_in_kappa(self, corpus):
        rng = np.random.default_rng(1)
        P = corpus["axes2d"]
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            vals = [penalty.penalized_objective(P, x, k) for k in (0.5, 1.0, 2.0)]
            assert vals[0] <= vals[1] <= vals[2] + 1e-15


class TestDistance:
    """Distances through penalty._nearest_feasible_batch, the error-bound
    probe's path: every row of a batch is projected onto every branch."""

    def test_feasible_point_zero(self, corpus):
        d, Y = penalty._nearest_feasible_batch(corpus["axes2d"], [[0.0, 0.0]], TOL)
        assert d[0] == 0.0 and np.allclose(Y[0], [0.0, 0.0])

    def test_ray2d_off_axis(self, corpus):
        d, Y = penalty._nearest_feasible_batch(corpus["ray2d"], [[0.1, 0.0]], TOL)
        assert d[0] == pytest.approx(0.1, abs=1e-4)
        assert np.allclose(Y[0], [0.0, 0.0], atol=1e-3)

    def test_plane_distance(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1\n", from_path=False)
        d, Y = penalty._nearest_feasible_batch(P, [[0.3, 0.7]], TOL)
        assert d[0] == pytest.approx(0.3, abs=1e-6)
        assert np.allclose(Y[0], [0.0, 0.7], atol=1e-6)

    def test_zero_set_agreement(self, corpus):
        rng = np.random.default_rng(2)
        P = corpus["axes2d"]
        X = rng.uniform(-0.5, 0.5, size=(25, 2))
        d, Y = penalty._nearest_feasible_batch(P, X, TOL)
        for x, dist, y in zip(X, d, Y):
            r = penalty.residual(P, x)
            assert (dist == 0.0) == (r <= TOL.tau_feas)
            assert penalty.residual(P, y) <= TOL.tau_feas


class TestErrorBound:
    def test_linear_constraints_hold(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1 - x2\nineq -x1\n", from_path=False)
        rep = penalty.error_bound_probe(P, [0.0, 0.0], TOL)
        assert rep.verdict == "HOLDS"

    def test_ray2d_fails_with_growth(self, corpus):
        rep = penalty.error_bound_probe(corpus["ray2d"], [0.0, 0.0], TOL)
        assert rep.verdict == "FAILS"
        seq = rep.witness_sequence
        ratios = [s["ratio"] for s in seq]
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert ratios[2] >= 16.0 * (1.0 - penalty.GROWTH_SLACK) * ratios[0]
        # the escape ray is (t, 0)
        for s in seq:
            assert s["point"][0] > 0 and abs(s["point"][1]) <= 1e-9

    def test_diagonal2d_holds(self, corpus):
        rep = penalty.error_bound_probe(corpus["diagonal2d"], [0.0, 0.0], TOL)
        assert rep.verdict == "HOLDS"
        assert rep.alpha_hat <= 4.0

    def test_needs_feasible_center(self, corpus):
        with pytest.raises(InfeasiblePointError):
            penalty.error_bound_probe(corpus["ray2d"], [1.0, 1.0], TOL)


class TestExactPenalty:
    def test_diagonal2d_certificate(self, corpus):
        rep = penalty.exact_penalty_probe(corpus["diagonal2d"], [0.0, 0.0], TOL)
        assert rep.error_bound.verdict == "HOLDS"
        assert rep.kappa_bar_hat is not None and rep.kappa_bar_hat > 0
        by_factor = {round(g["kappa"] / rep.kappa_bar_hat, 3): g for g in rep.kappa_grid}
        assert by_factor[2.0]["local_min"] is True
        assert by_factor[4.0]["local_min"] is True

    def test_constant_objective_always_local_min(self):
        P = load_problem("vars x1 x2\nmin 0\nswitch x1 | x2\n", from_path=False)
        rep = penalty.exact_penalty_probe(P, [0.0, 0.0], TOL)
        assert all(g["local_min"] for g in rep.kappa_grid)

    def test_ray2d_no_certificate_and_grid_fails(self, corpus):
        rep = penalty.exact_penalty_probe(corpus["ray2d"], [0.0, 0.0], TOL)
        assert rep.error_bound.verdict == "FAILS"
        assert rep.kappa_bar_hat is None
        assert rep.notes
        # f = -x1 beats every finite kappa along (t, 0)
        assert all(not g["local_min"] for g in rep.kappa_grid)
        w = rep.kappa_grid[0]["witness"]
        assert w is not None and w[0] > 0

    def test_lipschitz_estimate_covers_samples(self, corpus):
        P = corpus["diagonal2d"]
        rep = penalty.exact_penalty_probe(P, [0.0, 0.0], TOL)
        rng = np.random.default_rng(9)
        X = rng.uniform(-rep.minimality_radius, rep.minimality_radius, size=(200, 2))
        X = X[np.linalg.norm(X, axis=1) <= rep.minimality_radius]
        norms = np.linalg.norm(P.jacobian(X, [("f", 0)])[:, 0], axis=1)
        assert rep.L_f_hat >= np.max(norms) - 1e-9


class TestDistanceInfo:
    def test_witness_attains_reported_distance(self, corpus):
        rng = np.random.default_rng(5)
        P = corpus["ray2d"]
        X = rng.uniform(-0.4, 0.4, size=(10, 2))
        d, Y = penalty._nearest_feasible_batch(P, X, TOL)
        for x, dist, y in zip(X, d, Y):
            assert np.linalg.norm(x - y) == pytest.approx(dist, abs=1e-12)


class TestAnalyzeWithPenalty:
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

    def test_probe_error_reported_for_both_sections(self, corpus, monkeypatch):
        def failing(*args, **kwargs):
            raise EvalDomainError("sqrt of a negative value", offset=4)

        monkeypatch.setattr(penalty, "error_bound_probe", failing)
        rep = report.analyze(corpus["diagonal2d"], [0.0, 0.0], TOL, with_penalty=True)
        assert "errorbound" not in rep and "penalty" not in rep
        assert [e["component"] for e in rep["errors"]] == ["errorbound", "penalty"]
        assert all(e["message"] == "sqrt of a negative value (offset 4)" for e in rep["errors"])
