import ast
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import problem_path, project_branch
from scipy.optimize import minimize

from mpsckit import cli, solver
from mpsckit.numeric import Tolerances, ball_offsets
from mpsckit.problem import (Bipartition, BranchProblem, MpscProblem, all_branches,
                             branch, index_sets, load_problem)
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
            return (f, V, A * Z, A * Z) if grad else (f, V)  # steepest descent

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
        # in a real branch solve every gradient is one "j" kernel call; only
        # the solve's first descent evaluates values before its first
        # gradient, each later one starts from the values the last returned,
        # and no (row, point) pair is evaluated twice over the whole solve:
        # each iterate's values come from one evaluation (at the start or as
        # the accepted trial), and a row whose backtracking failed reuses its
        # last rejected trial's values when that point comes round again
        kinds, descents, evaluated = [], [], []
        evaluate, descent = MpscProblem._evaluate, solver._descent_batch

        def counted_evaluate(self, kind, items, x):
            kinds.append(kind)
            return evaluate(self, kind, items, x)

        def counted_descent(objective, Y, *args, **kw):
            gradients, iterates = [], []

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
            descents.append((gradients, iterates))
            return out

        monkeypatch.setattr(MpscProblem, "_evaluate", counted_evaluate)
        monkeypatch.setattr(solver, "_descent_batch", counted_descent)
        P = corpus["ray2d"]
        sol = solver.solve_branch(P, all_branches(P)[1], np.array([0.4, 0.3]), TOL)
        assert sol.status == "feasible" and len(descents) == sol.iterations > 1
        times = Counter(evaluated)
        for d, (gradients, iterates) in enumerate(descents):
            assert gradients[0] == (["j"] if d else ["v", "j"])
            assert all(calls == ["j"] for calls in gradients[1:])
            assert all(times[point] == 1 for point in iterates)
        assert set(times.values()) == {1}

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
        y = project_branch(P, br, [0.3, 0.7], TOL)
        assert np.allclose(y, [0.3, 0.7], atol=1e-9)

    def test_orthogonal_projection_on_plane(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1\n", from_path=False)
        br = all_branches(P)[0]
        y = project_branch(P, br, [0.3, 0.7], TOL)
        assert np.allclose(y, [0.0, 0.7], atol=1e-6)

    def test_parabola_projection(self):
        P = load_problem("vars x1 x2\nmin x1\neq x2 - x1^2\n", from_path=False)
        br = all_branches(P)[0]
        y = project_branch(P, br, [0.2, 0.1], TOL)
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
        y = project_branch(P, br, [0.2, 0.1], TOL)
        assert float(br.residual(y)) <= 1e-8
        # the tau_feas tube admits parabola points with x1 ~ sqrt(tau_feas)
        assert np.allclose(y, [0.0, 0.0], atol=2e-4)

    def test_matches_slsqp_on_corpus_branches(self, corpus):
        # every feasible row is as near its start as scipy's SLSQP gets from
        # that start, up to 1e-6 (nearer is allowed: the tau_feas tube)
        rng = np.random.default_rng(11)
        compared = feasible = 0
        for name, P in sorted(corpus.items()):
            for br in all_branches(P):
                X0 = ball_offsets(rng, 8, P.n, 0.6)
                Y = solver.project_branch_cloud(P, br, X0, TOL)
                ok = br.residual(Y) <= TOL.tau_feas
                feasible += int(ok.sum())
                for x0, y in zip(X0[ok], Y[ok]):
                    z = slsqp_projection(P, br, x0)
                    if br.residual(z) > TOL.tau_feas:
                        continue  # SLSQP stalled short of the branch set
                    compared += 1
                    assert np.linalg.norm(y - x0) <= np.linalg.norm(z - x0) + 1e-6, \
                        (name, br.label(), x0)
        assert feasible == 8 * sum(len(all_branches(P)) for P in corpus.values())
        assert compared >= 0.9 * feasible

    def test_stages_take_few_gradient_steps(self, capsys, monkeypatch):
        # analyze --with-penalty on axes2d and ray2d: the Gauss-Newton stages
        # converge in a few steps each instead of running to PENALTY_STEPS
        stages, descent = [], solver._descent_batch

        def counted_descent(objective, Y, *args, **kw):
            steps = [0]

            def counted(rows, Z, V=None, grad=False):
                steps[0] += grad
                return objective(rows, Z, V, grad)
            out = descent(counted, Y, *args, **kw)
            if sys._getframe(1).f_code.co_name == "project_branch_cloud":
                stages.append(steps[0])
            return out

        monkeypatch.setattr(solver, "_descent_batch", counted_descent)
        for name in ("axes2d", "ray2d"):
            path = str(problem_path(name))
            assert cli.main(["analyze", path, "--point", "0,0", "--with-penalty"]) == 0
        capsys.readouterr()
        assert len(stages) > 0 and max(stages) <= 15

    def test_non_finite_direction_takes_no_trial(self, monkeypatch):
        # where sqrt(sigma) * grad c overflows (2e307 * x1) the direction is
        # not finite and no row moves; where only the gradient overflows
        # (x1 + 1e307) the Gauss-Newton direction is finite and every row
        # lands on the plane; no non-finite trial point reaches the kernel
        # either way; with the polish both planes are reached, and the
        # overflowing residual at x1 = 0.7 does not warn
        trials, evaluate = [], MpscProblem._evaluate

        def checked_evaluate(self, kind, items, x):
            trials.append(np.asarray(x, float).copy())
            return evaluate(self, kind, items, x)

        monkeypatch.setattr(MpscProblem, "_evaluate", checked_evaluate)
        monkeypatch.setattr(solver, "_gauss_newton_polish", lambda br, X, tol: X)
        X0 = np.array([[1e-10, 0.7], [-1e-300, 0.1]])
        for text, X, Y_want, rtol in (
                ("vars x1 x2\nmin x1\neq 2e307 * x1\n", X0, X0, 0.0),
                # the last stage's minimizer sits 1e301 (sigma = 1e6) short
                ("vars x1\nmin x1\neq x1 + 1e307\n", X0[:, :1], np.full((2, 1), -1e307), 1e-5)):
            P = load_problem(text, from_path=False)
            Y = solver.project_branch_cloud(P, all_branches(P)[0], X, TOL)
            assert np.allclose(Y, Y_want, rtol=rtol, atol=0.0), text
        assert len(trials) > 0 and all(np.isfinite(x).all() for x in trials)
        monkeypatch.undo()
        P = load_problem("vars x1 x2\nmin x1\neq 2e307 * x1\n", from_path=False)
        Y = solver.project_branch_cloud(P, all_branches(P)[0], X0, TOL)
        assert np.allclose(Y, [[0.0, 0.7], [0.0, 0.1]], atol=1e-12)
        P = load_problem("vars x1\nmin x1\neq x1 + 1e307\n", from_path=False)
        Y = solver.project_branch_cloud(P, all_branches(P)[0], [[0.7]], TOL)
        assert np.allclose(Y, -1e307, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", ["1e5", "1e6"])
    def test_badly_scaled_plane(self, scale, tmp_path, capsys):
        # sigma * |grad c|^2 far above 1 / eps: I + sigma * grad c grad c^T
        # is singular in floating point, the stacked least squares is not
        text = f"vars x1 x2\nmin x1\neq {scale} * x1 + {scale} * x2\n"
        P = load_problem(text, from_path=False)
        Y = solver.project_branch_cloud(P, all_branches(P)[0], [[0.3, 0.7], [0.2, -0.6]], TOL)
        assert np.allclose(Y, [[-0.2, 0.2], [0.4, -0.4]], atol=1e-6)
        path = tmp_path / "plane.mpsc"
        path.write_text(text)
        assert cli.main(["analyze", str(path), "--point", "0,0", "--with-penalty"]) == 0
        capsys.readouterr()


def slsqp_projection(P, br, x0):
    """scipy's SLSQP from x0 on min ||y - x0||^2 over the branch set; an
    equality system with more rows than variables, which SLSQP refuses, is
    posed as pairs of opposite inequalities."""
    eqs, gs = br.equalities(), [("g", i) for i in range(P.m)]
    split = len(eqs) > P.n
    sides = (1.0, -1.0) if split else (1.0,)

    def stacked(items, signs):
        return {"fun": lambda y: np.concatenate([s * P.values(y, items) for s in signs]),
                "jac": lambda y: np.concatenate([s * P.jacobian(y, items) for s in signs])}

    cons = [{"type": "ineq" if split else "eq", **stacked(eqs, sides)}] if eqs else []
    cons += [{"type": "ineq", **stacked(gs, (-1.0,))}] if gs else []
    res = minimize(lambda y: ((y - x0) ** 2).sum(), x0, jac=lambda y: 2.0 * (y - x0),
                   constraints=cons, method="SLSQP", options={"ftol": 1e-14, "maxiter": 500})
    return res.x


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

    def test_batched_equals_per_row_with_mixed_use_patterns(self):
        # one iteration's live rows use the equality alone, with either
        # inequality, or with both: four stacked solves side by side
        P = load_problem("vars x1 x2 x3\nmin x3\nineq x1^2 - 1\nineq x2 - 1\n"
                         "eq x3 - x1*x2\n", from_path=False)
        br = all_branches(P)[0]
        rng = np.random.default_rng(3)
        X = np.array([[a, b, c] for a in (0.5, -2.0) for b in (0.2, 3.0)
                      for c in rng.normal(size=4)])
        used = P.values(X, [("g", 0), ("g", 1)]) > 0.0
        assert len({tuple(u) for u in used}) == 4
        got = solver._gauss_newton_polish(br, X, TOL)
        assert np.array_equal(got, polish_per_row(br, X, TOL))
        assert np.all(br.residual(got) <= TOL.tau_feas)

    def test_polish_work_counts(self, capsys, monkeypatch):
        # analyze --with-penalty on wedge3d: the polish makes no per-row
        # np.linalg.lstsq call, and in each iteration one stacked solve per
        # distinct pattern of used constraints among its live rows, over
        # that pattern's rows and constraints
        iterations, lstsq_calls = [], []
        residual_of, lstsq_stack, lstsq = (BranchProblem.residual_of,
                                           solver.lstsq_stack, np.linalg.lstsq)

        def counted_residual_of(self, V):  # once per polish iteration
            res = residual_of(self, V)
            if sys._getframe(1).f_code.co_name == "_gauss_newton_polish":
                live = res > max(TOL.tau_feas * 1e-6, 1e-15)
                use = (V[live] > 0.0) | (np.arange(V.shape[1]) < len(self.equalities()))
                patterns = Counter(tuple(u) for u in use if u.any())
                iterations.append((sorted((rows, sum(u)) for u, rows in patterns.items()), []))
            return res

        def counted_stack(A, b):  # the projection's stages solve stacks too
            if sys._getframe(1).f_code.co_name == "_gauss_newton_polish":
                iterations[-1][1].append(A.shape[:2])
            return lstsq_stack(A, b)

        def counted_lstsq(*args, **kw):
            lstsq_calls.append(sys._getframe(1).f_code.co_name)
            return lstsq(*args, **kw)

        monkeypatch.setattr(BranchProblem, "residual_of", counted_residual_of)
        monkeypatch.setattr(solver, "lstsq_stack", counted_stack)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        path = str(problem_path("wedge3d"))
        assert cli.main(["analyze", path, "--point", "0,0,0", "--with-penalty"]) == 0
        capsys.readouterr()
        assert "_gauss_newton_polish" not in lstsq_calls
        assert sum(len(want) >= 3 for want, _ in iterations) >= 4
        for want, got in iterations:
            assert sorted(got) == want


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
