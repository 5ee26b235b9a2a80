import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mpsckit import solver
from mpsckit.numeric import Tolerances
from mpsckit.problem import (Bipartition, MpscProblem, all_branches, branch,
                             index_sets, load_problem)
from mpsckit.report import annotate_stationarity

TOL = Tolerances()


@pytest.fixture(autouse=True)
def small_solves(monkeypatch):
    """Fewer multistart points and inner steps than the defaults."""
    monkeypatch.setattr(solver, "LHS_STARTS", 4)
    monkeypatch.setattr(solver, "MAX_INNER", 120)


class TestDescentBatch:
    def test_gradient_once_per_iteration_values_only_at_trial_points(self):
        A = np.array([1.0, 10.0])  # f(z) = 0.5 * sum(A * z^2) per row
        calls = []

        def objective(rows, Z, V=None, grad=False):
            calls.append((grad, V is None, rows.copy(), Z.copy()))
            V = Z.copy() if V is None else V  # the "item values" are the point
            f = 0.5 * np.sum(A * V ** 2, axis=1)
            return (f, V, A * Z) if grad else (f, V)

        Y0 = np.array([[1.0, 1.0], [-2.0, 0.5], [0.3, -0.7]])
        Y, V = solver._descent_batch(objective, Y0, 5)
        assert [grad for grad, _, _, _ in calls].count(True) == 5
        assert calls[0][0]
        evaluated = []
        for grad, fresh, rows, Z in calls:
            if grad:
                assert np.array_equal(rows, np.arange(3))
                assert fresh == (not evaluated)  # cached values after the start
                iterate = Z
            else:  # a trial point: never the iterate whose gradient was asked
                assert fresh and np.all(np.any(Z != iterate[rows], axis=1))
            if fresh:
                evaluated += [(r, z.tobytes()) for r, z in zip(rows, Z)]
        assert len(evaluated) == len(set(evaluated))  # no point evaluated twice
        assert np.array_equal(V, Y)  # the returned values are the final rows'
        assert np.all(np.sum(A * Y ** 2, axis=1) < np.sum(A * Y0 ** 2, axis=1))

    def test_one_jacobian_call_per_iteration_on_ray2d(self, corpus, monkeypatch):
        # in a real branch solve every gradient is one "j" kernel call and no
        # "v" call after a descent's first, and each iterate's values come
        # from one evaluation (at the start or as the accepted trial); only a
        # row whose backtracking failed retries its last rejected trial point
        kinds, descents = [], []
        evaluate, descent = MpscProblem._evaluate, solver._descent_batch

        def counted_evaluate(self, kind, items, x):
            kinds.append(kind)
            return evaluate(self, kind, items, x)

        def counted_descent(objective, Y, *args, **kw):
            gradients, iterates, evaluated = [], [], []

            def counted(rows, Z, V=None, grad=False):
                start = len(kinds)
                out = objective(rows, Z, V, grad)
                points = [(r, z.tobytes()) for r, z in zip(rows, Z)]
                if grad:
                    gradients.append(kinds[start:])
                    iterates.extend(points)
                if V is None:
                    evaluated.extend(points)
                return out
            out = descent(counted, Y, *args, **kw)
            descents.append((gradients, iterates, evaluated))
            return out

        monkeypatch.setattr(MpscProblem, "_evaluate", counted_evaluate)
        monkeypatch.setattr(solver, "_descent_batch", counted_descent)
        P = corpus["ray2d"]
        sol = solver.solve_branch(P, all_branches(P)[1], np.array([0.4, 0.3]), TOL)
        assert sol.status == "feasible" and len(descents) == sol.iterations
        for gradients, iterates, evaluated in descents:
            assert gradients[0] == ["v", "j"]
            assert all(calls == ["j"] for calls in gradients[1:])
            times = Counter(evaluated)
            assert all(times[point] == 1 for point in iterates)

def test_descent_loops_use_ndarray_reductions():
    # the descent and its three objective closures reduce with ndarray
    # methods, not numpy's module-level wrappers
    tree = ast.parse(Path(solver.__file__).read_text())
    loops = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and fn.name in ("_descent_batch", "objective")]
    assert len(loops) == 4
    wrapped = [(fn.name, node.lineno) for fn in loops for node in ast.walk(fn)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
               and node.func.attr in ("sum", "any", "all", "max", "min")]
    assert wrapped == []


class TestProjectBranch:
    def test_already_feasible_is_fixed(self):
        P = load_problem("vars x1 x2\nmin x1\nineq -x1\n", from_path=False)
        br = all_branches(P)[0]
        y = solver.project_branch(P, br, [0.3, 0.7], TOL)
        assert np.allclose(y, [0.3, 0.7], atol=1e-9)

    def test_orthogonal_projection_on_plane(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1\n", from_path=False)
        br = all_branches(P)[0]
        y = solver.project_branch(P, br, [0.3, 0.7], TOL)
        assert np.allclose(y, [0.0, 0.7], atol=1e-6)

    def test_parabola_projection(self):
        P = load_problem("vars x1 x2\nmin x1\neq x2 - x1^2\n", from_path=False)
        br = all_branches(P)[0]
        y = solver.project_branch(P, br, [0.2, 0.1], TOL)
        assert float(br.residual(y)) <= 1e-8
        # grid oracle over the parabola arc
        t = np.linspace(-1.0, 1.0, 20001)
        arc = np.stack([t, t * t], axis=1)
        best = np.min(np.linalg.norm(arc - np.array([0.2, 0.1]), axis=1))
        assert np.linalg.norm(y - [0.2, 0.1]) <= best + 1e-4

    def test_ray2d_branch_collapses_to_origin(self, corpus):
        P = corpus["ray2d"]
        I = index_sets(P, [0.0, 0.0], TOL)
        br = branch(P, I, Bipartition((), (0,)))
        y = solver.project_branch(P, br, [0.2, 0.1], TOL)
        assert float(br.residual(y)) <= 1e-8
        # the tau_feas tube admits parabola points with x1 ~ sqrt(tau_feas)
        assert np.allclose(y, [0.0, 0.0], atol=2e-4)


def polish_per_row(br, X, tol, iters=40):
    """Reference Gauss-Newton polish: one point and one constraint at a time."""
    P = br.problem
    X = np.array(X, float)
    for _ in range(iters):
        live = np.where(br.residual(X) > max(tol.tau_feas * 1e-6, 1e-15))[0]
        if live.size == 0:
            break
        moved = False
        for idx in live:
            x = X[idx]
            rows = [P.jacobian(x, [it])[0] for it in br.equalities()]
            vals = [P.values(x, [it])[0] for it in br.equalities()]
            for i in range(P.m):
                v = P.values(x, [("g", i)])[0]
                if v > 0.0:
                    rows.append(P.jacobian(x, [("g", i)])[0])
                    vals.append(v)
            if not rows:
                continue
            step, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
            if np.all(np.isfinite(step)):
                X[idx] = x - step
                moved = True
        if not moved:
            break
    return X


class TestGaussNewtonPolish:
    def test_batched_equals_per_row_on_corpus_branches(self, corpus):
        rng = np.random.default_rng(42)
        violated_rows = 0
        for name, P in sorted(corpus.items()):
            for br in all_branches(P):
                X = rng.normal(scale=0.5, size=(24, P.n))
                if P.g:
                    violated_rows += int(np.sum(np.any(P.constraint_values(X)[0] > 0.0, axis=1)))
                got = solver._gauss_newton_polish(br, X, TOL)
                assert np.array_equal(got, polish_per_row(br, X, TOL)), (name, br.label())
        assert violated_rows > 0

    def test_batched_equals_per_row_after_penalty_phase(self, monkeypatch):
        monkeypatch.setattr(solver, "SIGMA_SCHEDULE", (1e2,))
        monkeypatch.setattr(solver, "PENALTY_STEPS", 5)
        P = load_problem("vars x1 x2 x3\nmin x1\nineq x1^2 + x2^2 - 1\n"
                         "ineq x3 - x1*x2\neq exp(x1) - 1 - x3\nswitch x1 | x2 - x3\n",
                         from_path=False)
        rng = np.random.default_rng(7)
        for br in all_branches(P):
            X = rng.normal(scale=1.5, size=(32, 3))
            assert np.any(P.constraint_values(X)[0] > 0.0)
            Y = solver.project_branch_cloud(P, br, X, TOL)
            for Z in (X, Y):
                assert np.array_equal(solver._gauss_newton_polish(br, Z, TOL),
                                      polish_per_row(br, Z, TOL)), br.label()

    def test_inequality_gradient_skipped_where_it_holds(self):
        # d/dx1 sqrt(x1) is not finite at x1 = 0, where the inequality holds
        P = load_problem("vars x1 x2\nmin x2\nineq sqrt(x1) - 1\neq x2 - 1\n",
                         from_path=False)
        br = all_branches(P)[0]
        X = np.array([[0.0, 0.5], [0.0, 3.0], [4.0, 2.0]])
        got = solver._gauss_newton_polish(br, X, TOL)
        assert np.array_equal(got, polish_per_row(br, X, TOL))
        assert np.all(br.residual(got) <= TOL.tau_feas)


class TestSolveBranch:
    def test_equality_pins_solution(self):
        P = load_problem("vars x\nmin x^2\neq x - 1\n", from_path=False)
        sol = solver.solve_branch(P, all_branches(P)[0], [3.0], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(1.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_wedge3d_g_branch(self, corpus):
        P = corpus["wedge3d"]
        I = index_sets(P, [0.0, 0.0, 0.0], TOL)
        br = branch(P, I, Bipartition((0,), ()))
        sol = solver.solve_branch(P, br, [0.5, 0.5, 0.5], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-6)

    def test_contradictory_equalities_stall(self):
        P = load_problem("vars x\nmin x\neq x\neq x - 1\n", from_path=False)
        sol = solver.solve_branch(P, all_branches(P)[0], [0.0], TOL)
        assert sol.status == "infeasible-stall"

    def test_start_count_is_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(solver, "LHS_STARTS", 2)
        P = load_problem("vars x\nmin x^2\n", from_path=False)
        sol = solver.solve_branch(P, all_branches(P)[0], [1.0], TOL)
        assert "starts=3" in sol.log


class TestSolveEnumerative:
    def test_axes2d_best_is_origin(self, corpus):
        sol = solver.solve_enumerative(corpus["axes2d"], [1.0, 1.0], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(sol.x, [0.0, 0.0], atol=1e-5)

    def test_unconstrained_quadratic(self):
        P = load_problem("vars x1 x2\nmin (x1 - 1)^2 + (x2 + 2)^2\n", from_path=False)
        sol = solver.solve_enumerative(P, [5.0, 5.0], TOL)
        assert np.allclose(sol.x, [1.0, -2.0], atol=1e-5)

    def test_ray2d(self, corpus):
        sol = solver.solve_enumerative(corpus["ray2d"], [0.4, 0.3], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-5)


class TestSolvePenaltyDescent:
    def test_smooth_regime_matches_enumerative(self):
        P = load_problem("vars x1 x2\nmin (x1 - 1)^2 + (x2 + 2)^2\nineq x1 - 2\n",
                         from_path=False)
        ref = solver.solve_enumerative(P, [0.0, 0.0], TOL)
        sol = solver.solve_penalty_descent(P, [0.0, 0.0], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(ref.value, abs=1e-6)

    def test_axes2d_from_11(self, corpus):
        ref = solver.solve_enumerative(corpus["axes2d"], [1.0, 1.0], TOL)
        sol = solver.solve_penalty_descent(corpus["axes2d"], [1.0, 1.0], TOL)
        assert sol.status == "feasible"
        assert sol.value >= ref.value - 1e-6

    def test_empty_feasible_set_fails(self):
        P = load_problem("vars x\nmin x\neq x\neq x - 1\n", from_path=False)
        sol = solver.solve_penalty_descent(P, [0.3], TOL)
        assert sol.status in ("failure", "infeasible-stall")


class TestProperties:
    def test_deterministic(self, corpus):
        a = solver.solve_enumerative(corpus["axes2d"], [1.0, 1.0], TOL)
        b = solver.solve_enumerative(corpus["axes2d"], [1.0, 1.0], TOL)
        assert np.array_equal(a.x, b.x) and a.value == b.value


class TestStationaritySanity:
    def test_feasible_solutions_are_nearly_w_stationary(self, corpus):
        for name in ("axes2d", "ray2d", "diagonal2d"):
            sol = solver.solve_enumerative(corpus[name], [0.7, -0.4], TOL)
            assert sol.status == "feasible"
            annotate_stationarity(corpus[name], sol, TOL)
            assert sol.stationarity["W_within_10_tau_kkt"], (name, sol.stationarity)

    def test_annotation_skips_infeasible(self):
        P = load_problem("vars x\nmin x\neq x\neq x - 1\n", from_path=False)
        sol = solver.solve_branch(P, all_branches(P)[0], [0.0], TOL)
        annotate_stationarity(P, sol, TOL)
        assert sol.stationarity == {}
