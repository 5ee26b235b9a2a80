import ast
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import CORPUS_POINTS, problem_path, project_branch
from scipy.linalg import lstsq as scipy_lstsq
from scipy.optimize import minimize

from mpsckit import cli, solver
from mpsckit.errors import MpscError
from mpsckit.numeric import Tolerances, ball_offsets
from mpsckit.penalty import nearest_feasible
from mpsckit.problem import BranchProblem, MpscProblem, all_branches, load_problem
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

        def objective(rows, Z, V=None, f=None, grad=False):
            calls.append((grad, V is None, None if f is None else f.copy(), rows.copy(),
                          Z.copy()))
            V = Z.copy() if V is None else V  # the "item values" are the point
            f = 0.5 * np.sum(A * V ** 2, axis=1) if f is None else f
            return (f, V, A * Z, A * Z) if grad else (f, V)  # steepest descent

        Y0 = np.array([[1.0, 1.0], [-2.0, 0.5], [0.3, -0.7]])
        Y, V = solver._descent_batch(objective, Y0, 5)
        assert [grad for grad, *_ in calls].count(True) == 5
        assert calls[0][0]
        evaluated = []
        for grad, fresh, f, rows, Z in calls:
            if grad:
                assert np.array_equal(rows, np.arange(3))
                assert fresh == (not evaluated)  # cached values after the start
                # after the start the merit comes from the accepted trial, the
                # merit at that point to the bit
                assert (f is None) == (not evaluated)
                if f is not None:
                    assert f.tobytes() == (0.5 * np.sum(A * Z ** 2, axis=1)).tobytes()
                iterate = Z
            else:  # a trial point: never the iterate whose gradient was asked
                assert fresh and f is None and np.all(np.any(Z != iterate[rows], axis=1))
            if fresh:
                evaluated += [(r, z.tobytes()) for r, z in zip(rows, Z)]
        assert len(evaluated) == len(set(evaluated))  # no point evaluated twice
        assert np.array_equal(V, Y)  # the returned values are the final rows'
        assert np.all(np.sum(A * Y ** 2, axis=1) < np.sum(A * Y0 ** 2, axis=1))

    def test_gradients_only_at_rows_that_moved(self):
        # the objective is fixed within one call, so a row that accepted no
        # step keeps its f, g and d: no row is asked for its gradient twice at
        # one iterate (row 1 starts at the minimizer and is asked once), and
        # each row comes out bit for bit as when it descends alone
        A = np.array([1.0, 10.0])
        asked = []

        def objective(rows, Z, V=None, f=None, grad=False):
            V = Z.copy() if V is None else V
            f = 0.5 * np.sum(A * V ** 2, axis=1) if f is None else f
            if grad:
                asked.append((rows.copy(), Z.copy()))
            return (f, V, A * Z, A * Z) if grad else (f, V)

        Y0 = np.array([[1.0, 1.0], [0.0, 0.0], [-2.0, 0.5], [0.3, -0.7]])
        Y, V = solver._descent_batch(objective, Y0, 8)
        points = [(r, z.tobytes()) for rows, Z in asked for r, z in zip(rows, Z)]
        assert len(points) == len(set(points))
        assert [r for r, _ in points].count(1) == 1
        assert len(asked) == 8 and np.array_equal(asked[0][0], np.arange(4))
        assert all(0 < len(rows) < 4 for rows, _ in asked[1:])
        alone = np.vstack([solver._descent_batch(objective, y[None], 8)[0] for y in Y0])
        assert Y.tobytes() == alone.tobytes() and V.tobytes() == alone.tobytes()

    def test_skipped_rows_leave_every_corpus_solve_unchanged(self, monkeypatch, tmp_path,
                                                              capsys):
        # solve --json on the 8 corpus problems in both modes writes the same
        # bytes (and the same stderr where it exits 2 and writes none) when
        # every descent iteration re-evaluates every row
        subset_calls = []

        def runs():
            out = []
            for name in sorted(CORPUS_POINTS):
                ones = ",".join("1" for _ in CORPUS_POINTS[name])
                for extra in (["--mode", "enumerative"], ["--mode", "penalty", "--from", ones]):
                    path = tmp_path / "out.json"
                    path.unlink(missing_ok=True)
                    code = cli.main(["solve", str(problem_path(name)), *extra,
                                     "--json", str(path)])
                    out.append((name, extra[1], code, capsys.readouterr().err,
                                path.exists() and path.read_bytes()))
            return out

        want = runs()
        monkeypatch.setattr(solver, "_descent_batch",
                            full_gradients(solver._descent_batch, subset_calls))
        assert runs() == want
        assert sum(bool(w) for *_, w in want) == 14 and len(subset_calls) > 0

    def test_one_jacobian_call_per_iteration_on_ray2d(self, corpus, monkeypatch):
        # in a real branch solve every gradient is one "jh" kernel call (the
        # gradient rows and the Newton direction's Hessians of all its items);
        # only the solve's first descent evaluates values before its first
        # gradient, each later one starts from the values the last returned,
        # and no (row, point) pair is evaluated twice over the whole solve:
        # each iterate's values come from one evaluation (at the start or as
        # the accepted trial), and a row whose backtracking failed stops, so
        # it never meets its last rejected trial again
        kinds, descents, evaluated = [], [], []
        evaluate, descent = MpscProblem._evaluate, solver._descent_batch

        def counted_evaluate(self, kind, items, x):
            kinds.append(kind)
            return evaluate(self, kind, items, x)

        def counted_descent(objective, Y, *args, **kw):
            gradients, iterates, merits = [], [], []

            def counted(rows, Z, V=None, f=None, grad=False):
                start = len(kinds)
                out = objective(rows, Z, V, f, grad)
                points = [(r, z.tobytes()) for r, z in zip(rows, Z)]
                if grad:
                    gradients.append(kinds[start:])
                    iterates.extend(points)
                    merits.append(f is None)
                if V is None:
                    evaluated.extend(points)
                return out
            out = descent(counted, Y, *args, **kw)
            descents.append((gradients, iterates, merits))
            return out

        monkeypatch.setattr(MpscProblem, "_evaluate", counted_evaluate)
        monkeypatch.setattr(solver, "_descent_batch", counted_descent)
        P = corpus["ray2d"]
        sol = solver.solve_branch(P, all_branches(P)[1], np.array([0.4, 0.3]), TOL)
        assert sol.status == "feasible" and len(descents) == sol.iterations > 1
        times = Counter(evaluated)
        for d, (gradients, iterates, merits) in enumerate(descents):
            assert gradients[0] == (["jh"] if d else ["v", "jh"])
            assert all(calls == ["jh"] for calls in gradients[1:])
            # each descent computes its start's merit; later ones are handed on
            assert merits == [True] + [False] * (len(merits) - 1)
            assert all(times[point] == 1 for point in iterates)
        assert set(times.values()) == {1}

    def test_unbounded_walk_work_counts(self, corpus, monkeypatch):
        # parabola_sheet3d's H branch is unbounded below (x1 grows along
        # x2 = x1^2), so after its first descent (which backtracks) every
        # descent runs to the cap and takes each trial at t = 1: each step makes
        # one "v" call (its trial) and one "jh" call (the next gradient).  The
        # merit is computed once per (row, point) of a descent, at its start and
        # at each trial; an accepted trial's merit is handed on to its gradient
        # call, the same bits
        kinds, steps, merits, handed = [], [], Counter(), []
        evaluate, descent = MpscProblem._evaluate, solver._descent_batch

        def counted_evaluate(self, kind, items, x):
            kinds.append(kind)
            return evaluate(self, kind, items, x)

        def spied_descent(objective, Y, *args, **kw):
            d = len(steps)
            steps.append([])

            def spied(rows, Z, V=None, f=None, grad=False):
                if f is None:
                    merits.update((d, r, z.tobytes()) for r, z in zip(rows, Z))
                else:  # a values call on V computes the merit from scratch
                    merit = objective(rows, Z, V)[0]
                start = len(kinds)
                out = objective(rows, Z, V, f, grad)
                steps[d].append((grad, len(rows), kinds[start:]))
                if f is not None:  # the closure returns the merit it was handed
                    handed.append(out[0] is f and f.tobytes() == merit.tobytes())
                return out
            return descent(spied, Y, *args, **kw)

        monkeypatch.setattr(MpscProblem, "_evaluate", counted_evaluate)
        monkeypatch.setattr(solver, "_descent_batch", spied_descent)
        P = corpus["parabola_sheet3d"]
        br = next(b for b in all_branches(P) if b.label() == "H")
        sol = solver.solve_branch(P, br, np.zeros(3), TOL)
        assert sol.iterations == len(steps) > 10
        calls = [c for d in steps for c in d]
        assert calls[0] == (True, solver.LHS_STARTS + 1, ["v", "jh"])
        assert all(k == (["jh"] if grad else ["v"]) for grad, _, k in calls[1:])
        for d in steps[1:]:
            rows = d[0][1]
            assert d == [(True, rows, ["jh"]), (False, rows, ["v"])] * solver.MAX_INNER
        starts = sum(d[0][1] for d in steps)
        trials = sum(rows for grad, rows, _ in calls if not grad)
        assert len(merits) == starts + trials and set(merits.values()) == {1}
        gradients = sum(grad for grad, _, _ in calls)
        assert len(handed) == gradients - len(steps) and all(handed)


def full_gradients(descent, subset_calls=None):
    """descent with every gradient asked at every row: a gradient call at some
    rows is answered from one full-batch call at the current rows, with the
    values and merits the loop last passed for each (at the start or when it
    moved), and is logged in subset_calls."""
    def forced(objective, Y, *args, **kw):
        Y_all, V_all, f_all = np.array(Y, float), None, None

        def full(rows, Z, V=None, f=None, grad=False):
            nonlocal V_all, f_all
            if not grad:
                return objective(rows, Z, V, f)
            if len(rows) < len(Y_all) and subset_calls is not None:
                subset_calls.append(len(rows))
            Y_all[rows] = Z
            if V is not None:
                V_all = np.array(V) if V_all is None else V_all
                V_all[rows] = V
            if f is not None:
                f_all[rows] = f
            f_all, V_all, g, d = objective(np.arange(len(Y_all)), Y_all.copy(), V_all, f_all,
                                           grad=True)
            f_all = np.array(f_all)  # not a view of V_all
            return f_all[rows], V_all[rows], g[rows], d[rows]
        return descent(full, Y, *args, **kw)
    return forced


def test_projection_steps_solve_through_eigh_stack():
    # the stacked least squares (minimum-norm SVD steps) is the polish's
    # alone; the projection's stage steps solve in constraint space through
    # eigh_stack, as the ALM's Newton directions and soc's copositivity test do
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(solver.__file__).parent.glob("*.py")}

    def callers(name):
        return sorted(f"{stem}.{fn.name}" for stem, tree in trees.items()
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      and any(isinstance(node, ast.Call)
                              and name in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))
                              for node in ast.walk(fn)))
    assert callers("lstsq_stack") == ["solver._gauss_newton_polish"]
    assert callers("eigh_stack") == ["soc.quadform_min_over_cone", "solver._floored_newton",
                                     "solver._gauss_newton_step"]
    # the projection's objective, nested in project_branch_cloud
    assert callers("_gauss_newton_step") == ["solver.objective", "solver.project_branch_cloud"]


def _np_call(node):
    """The dotted name of a call of np.<name> or np.linalg.<name>, else None."""
    func = node.func if isinstance(node, ast.Call) else None
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id == "np":
        return func.attr
    if isinstance(func.value, ast.Attribute) and func.value.attr == "linalg" \
            and isinstance(func.value.value, ast.Name) and func.value.value.id == "np":
        return f"linalg.{func.attr}"
    return None


def test_descent_loops_use_ndarray_reductions():
    # the descent, its three objective closures and the Newton direction
    # reduce with ndarray methods, not numpy's module-level wrappers, and
    # call no Python-level wrapper of numpy.linalg (eigh_stack and
    # lstsq_stack reach LAPACK directly) and build no triangle indices
    tree = ast.parse(Path(solver.__file__).read_text())
    loops = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and fn.name in ("_descent_batch", "objective", "_floored_newton")]
    assert len(loops) == 5
    calls = [(fn.name, node.lineno, _np_call(node)) for fn in loops
             for node in ast.walk(fn) if isinstance(node, ast.Call)]
    wrapped = [(name, line, call) for name, line, call in calls if call is not None
               and (call in ("sum", "any", "all", "max", "min", "triu_indices")
                    or call.startswith("linalg."))]
    assert wrapped == []
    assert _np_call(ast.parse("np.linalg.eigh(H)").body[0].value) == "linalg.eigh"


class TestFlooredNewton:
    def test_bad_rows_are_nan_and_finite_rows_keep_their_one_row_bits(self):
        # rows 1 and 3 have a non-finite H and g, row 5's direction overflows;
        # called under the errstate of _descent_batch, as the ALM calls it
        rng = np.random.default_rng(5)
        A = rng.normal(size=(7, 3, 3))
        H, g = A + A.transpose(0, 2, 1), rng.normal(size=(7, 3))  # indefinite
        H[4] = H[5] = 0.0  # every eigenvalue floored at 1e-8
        H[1, 0, 2], g[3, 1], g[5] = np.nan, np.inf, 1e305
        with np.errstate(over="ignore", invalid="ignore"):
            d = solver._floored_newton(H.copy(), g)
            one = [solver._floored_newton(H[r:r + 1].copy(), g[r:r + 1])[0] for r in range(7)]
        assert np.isnan(d[[1, 3, 5]]).all()
        for r in (0, 2, 4, 6):
            assert d[r].tobytes() == one[r].tobytes()
            lam, Q = np.linalg.eigh(H[r])
            lam = np.maximum(np.abs(lam), 1e-8 * (1.0 + np.abs(lam).max()))
            assert np.allclose(d[r], Q @ ((g[r] @ Q) / lam), rtol=1e-12, atol=0.0)
        assert np.array_equal(d[4], g[4] / 1e-8)


def mixed_use_case():
    """A problem and 16 rows of it that use its equality alone, with either
    inequality, or with both."""
    P = load_problem("vars x1 x2 x3\nmin x3\nineq x1^2 - 1\nineq x2 - 1\n"
                     "eq x3 - x1*x2\n")
    rng = np.random.default_rng(3)
    return P, np.array([[a, b, c] for a in (0.5, -2.0) for b in (0.2, 3.0)
                        for c in rng.normal(size=4)])


class TestProjectBranch:
    def test_already_feasible_is_fixed(self):
        P = load_problem("vars x1 x2\nmin x1\nineq -x1\n")
        br = all_branches(P)[0]
        y = project_branch(P, br, [0.3, 0.7], TOL)
        assert np.allclose(y, [0.3, 0.7], atol=1e-9)

    def test_orthogonal_projection_on_plane(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1\n")
        br = all_branches(P)[0]
        y = project_branch(P, br, [0.3, 0.7], TOL)
        assert np.allclose(y, [0.0, 0.7], atol=1e-6)

    def test_parabola_projection(self):
        P = load_problem("vars x1 x2\nmin x1\neq x2 - x1^2\n")
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
        br = BranchProblem(P, ())
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

    def test_gradients_only_at_the_rows_that_use_them(self, corpus, monkeypatch):
        # a row uses an item when it is an equality of the branch or its value
        # there is > 0; neither the stages nor the polish ask for a gradient at
        # a row that does not use it
        jacobian, calls = MpscProblem.jacobian, []

        def spy(self, Z, items):
            calls.append((np.array(Z), list(items)))
            return jacobian(self, Z, items)

        monkeypatch.setattr(MpscProblem, "jacobian", spy)
        rng = np.random.default_rng(17)
        cases = [mixed_use_case()] + [
            (P, np.vstack([ball_offsets(rng, 6, P.n, r) for r in (0.5, 0.05, 0.005)]))
            for _, P in sorted(corpus.items())]
        pairs = 0
        for P, X in cases:
            for br in all_branches(P):
                calls.clear()
                solver.project_branch_cloud(P, br, X, TOL)
                for Z, items in calls:
                    is_eq = np.array([it in br.equalities() for it in items])
                    used = is_eq | (P.values(Z, items) > 0.0)
                    assert used.all(), (br.label(), items, Z[~used.all(axis=1)])
                    pairs += used.size
        assert pairs > 0

    def test_stages_take_few_gradient_steps(self, capsys, monkeypatch):
        # analyze --with-penalty on axes2d and ray2d: the Gauss-Newton stages
        # converge in a few steps each instead of running to PENALTY_STEPS
        stages, descent = [], solver._descent_batch

        def counted_descent(objective, Y, *args, **kw):
            steps = [0]

            def counted(rows, Z, V=None, f=None, grad=False):
                steps[0] += grad
                return objective(rows, Z, V, f, grad)
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
            P = load_problem(text)
            Y = solver.project_branch_cloud(P, all_branches(P)[0], X, TOL)
            assert np.allclose(Y, Y_want, rtol=rtol, atol=0.0), text
        assert len(trials) > 0 and all(np.isfinite(x).all() for x in trials)
        monkeypatch.undo()
        P = load_problem("vars x1 x2\nmin x1\neq 2e307 * x1\n")
        Y = solver.project_branch_cloud(P, all_branches(P)[0], X0, TOL)
        assert np.allclose(Y, [[0.0, 0.7], [0.0, 0.1]], atol=1e-12)
        P = load_problem("vars x1\nmin x1\neq x1 + 1e307\n")
        Y = solver.project_branch_cloud(P, all_branches(P)[0], [[0.7]], TOL)
        assert np.allclose(Y, -1e307, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", ["1e5", "1e6"])
    def test_badly_scaled_plane(self, scale, tmp_path, capsys):
        # sigma * |grad c|^2 far above 1 / eps: I + sigma * grad c grad c^T
        # is singular in floating point, the stacked least squares is not
        text = f"vars x1 x2\nmin x1\neq {scale} * x1 + {scale} * x2\n"
        P = load_problem(text)
        Y = solver.project_branch_cloud(P, all_branches(P)[0], [[0.3, 0.7], [0.2, -0.6]], TOL)
        assert np.allclose(Y, [[-0.2, 0.2], [0.4, -0.4]], atol=1e-6)
        path = tmp_path / "plane.mpsc"
        path.write_text(text)
        assert cli.main(["analyze", str(path), "--point", "0,0", "--with-penalty"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("scale", ["1", "1e3", "1e5", "1e6"])
    def test_duplicated_rows(self, scale):
        # two equal equality rows and the inequality on the same plane make
        # Ju Ju^T singular, and I / sigma + Ju Ju^T too in floating point at
        # 1e5 and 1e6 (np.linalg.solve raises on it); with the eigenvalues
        # clipped at 0 before 1 / sigma is added it never is
        row = f"{scale} * x1 + {scale} * x2"
        P = load_problem(f"vars x1 x2\nmin x1\neq {row}\neq {row}\nineq {row}\n")
        Y = solver.project_branch_cloud(P, all_branches(P)[0], [[0.3, 0.7], [0.2, -0.6]], TOL)
        assert np.allclose(Y, [[-0.2, 0.2], [0.4, -0.4]], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", ["1e150", "1e200", "1e300"])
    def test_huge_gradients_land_on_the_plane(self, scale):
        # past |grad c| ~ 1e154 Ju Ju^T overflows: those rows take no stage
        # step, and the polish's least squares places them on the plane
        P = load_problem(f"vars x1 x2\nmin x1\neq {scale} * x1 + {scale} * x2\n")
        Y = solver.project_branch_cloud(P, all_branches(P)[0], [[0.3, 0.7], [0.2, -0.6]], TOL)
        assert np.allclose(Y, [[-0.2, 0.2], [0.4, -0.4]], rtol=0.0, atol=1e-12)


class TestGaussNewtonStep:
    """The constraint-space step against scipy's least squares on the
    n-column system [I; sqrt(sigma) Ju] d = [b; sqrt(sigma) c], one matrix at
    a time."""

    def _systems(self, rng, consistent):
        # per point a scale 1e-3 to 1e3 and one of: a zero gradient row, an
        # inequality row masked off (gradient and value zeroed, as where it
        # holds) or a duplicated row (equal gradient and value); consistent
        # values c = Ju y lie in the range of Ju, random ones need not
        N, n, K = 8, int(rng.integers(1, 6)), int(rng.integers(1, 7))
        Ju = rng.normal(size=(N, K, n)) * 10.0 ** rng.uniform(-3, 3, size=(N, 1, 1))
        c = rng.normal(size=(N, K)) * 10.0 ** rng.uniform(-3, 3, size=(N, 1))
        for r, kind in enumerate(rng.integers(4, size=N)):
            k = int(rng.integers(K))
            if kind in (1, 2):
                Ju[r, k], c[r, k] = 0.0, (0.0 if kind == 2 else c[r, k])
            elif kind == 3 and K > 1:
                Ju[r, (k + 1) % K], c[r, (k + 1) % K] = Ju[r, k], c[r, k]
        if consistent:
            c = (Ju @ rng.normal(size=(N, n, 1)))[:, :, 0]
        return Ju, rng.normal(size=(N, n)), c

    def _compare(self, consistent):
        """(|d - oracle|, oracle, sigma, Ju, c) for each system with
        cond([I; sqrt(sigma) Ju]) <= 1e6."""
        rng = np.random.default_rng(29 if consistent else 31)
        out = []
        for _ in range(150):
            Ju, b, c = self._systems(rng, consistent)
            for sigma in solver.SIGMA_SCHEDULE:
                d = solver._gauss_newton_step(Ju, b, c, sigma)
                for r in range(len(b)):
                    A = np.vstack([np.eye(b.shape[1]), np.sqrt(sigma) * Ju[r]])
                    if np.linalg.cond(A) > 1e6:
                        continue
                    ref = scipy_lstsq(A, np.concatenate([b[r], np.sqrt(sigma) * c[r]]))[0]
                    out.append((np.linalg.norm(d[r] - ref), ref, sigma, Ju[r], c[r]))
        return out

    def test_matches_least_squares(self):
        # zero, masked and duplicated rows at every stage's sigma: the two
        # agree to 1e-9 relative wherever cond([I; sqrt(sigma) Ju]) <= 1e6
        compared = self._compare(consistent=True)
        assert len(compared) > 3000
        for err, ref, *_ in compared:
            assert err <= 1e-9 * np.linalg.norm(ref)

    def test_inconsistent_values_cost_sigma_eps(self):
        # the part of c outside the range of Ju does not move the minimizer;
        # kept, it would reach the step through Ju^T q ~ eps |Ju| on the null
        # eigenvectors q, weighted sigma (3% of the solution on one system
        # here), but its eigencomponents at rounding level are dropped
        compared = self._compare(consistent=False)
        assert len(compared) > 3000
        for err, ref, *_ in compared:
            assert err <= 1e-7 * np.linalg.norm(ref)

    def test_eigenvalues_rounded_below_zero_are_clipped(self, monkeypatch):
        # rounding moves the zero eigenvalues of Ju Ju^T (here two: four rows
        # in two variables) by up to about eps * its largest; one that lands
        # on -1 / sigma would make M singular, but clipped at 0 it is harmless
        rng = np.random.default_rng(5)
        Ju = 1e3 * rng.normal(size=(3, 4, 2))
        b, c = rng.normal(size=(3, 2)), (Ju @ rng.normal(size=(3, 2, 1)))[:, :, 0]
        want = solver._gauss_newton_step(Ju, b, c, 1e6)
        eigh_stack = solver.eigh_stack

        def rounded(H):
            lam, Q = eigh_stack(H)
            return np.where(np.arange(lam.shape[1]) < 2, -1e-6, lam), Q

        monkeypatch.setattr(solver, "eigh_stack", rounded)
        got = solver._gauss_newton_step(Ju, b, c, 1e6)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)

    def test_non_finite_rows_get_nan(self):
        # a row whose Ju Ju^T overflows or is NaN takes no trial; the others
        # keep their one-row bits
        rng = np.random.default_rng(3)
        Ju, b, c = rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        Ju[1, 0, 0], Ju[2, 1, 2] = 1e200, np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            d = solver._gauss_newton_step(Ju, b, c, 1e4)
            one = [solver._gauss_newton_step(Ju[r:r + 1], b[r:r + 1], c[r:r + 1], 1e4)[0]
                   for r in (0, 3)]
        assert np.isnan(d[[1, 2]]).all()
        assert d[0].tobytes() == one[0].tobytes() and d[3].tobytes() == one[1].tobytes()


def slsqp_projection(P, br, x0):
    """scipy's SLSQP from x0 on min ||y - x0||^2 over the branch set."""
    return slsqp_on_branch(P, br, x0, lambda y: ((y - x0) ** 2).sum(),
                           lambda y: 2.0 * (y - x0))


def slsqp_on_branch(P, br, x0, fun, jac):
    """scipy's SLSQP from x0 on min fun over the branch set; an equality
    system with more rows than variables, which SLSQP refuses, is posed as
    pairs of opposite inequalities."""
    eqs, gs = br.equalities(), [("g", i) for i in range(P.m)]
    split = len(eqs) > P.n
    sides = (1.0, -1.0) if split else (1.0,)

    def stacked(items, signs):
        return {"fun": lambda y: np.concatenate([s * P.values(y, items) for s in signs]),
                "jac": lambda y: np.concatenate([s * P.jacobian(y, items) for s in signs])}

    cons = [{"type": "ineq" if split else "eq", **stacked(eqs, sides)}] if eqs else []
    cons += [{"type": "ineq", **stacked(gs, (-1.0,))}] if gs else []
    res = minimize(fun, x0, jac=jac, constraints=cons, method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 500})
    return res.x


def polish_per_row(br, X, tol, iters=40):
    """Reference Gauss-Newton polish: one point and one constraint at a time,
    each step the least squares over every equality then every inequality,
    one that holds a zero row with value 0."""
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
                rows.append(P.jacobian(x, [("g", i)])[0] if v > 0.0 else np.zeros(P.n))
                vals.append(v if v > 0.0 else 0.0)
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
                         "ineq x3 - x1*x2\neq exp(x1) - 1 - x3\nswitch x1 | x2 - x3\n")
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
        P = load_problem("vars x1 x2\nmin x2\nineq sqrt(x1) - 1\neq x2 - 1\n")
        br = all_branches(P)[0]
        X = np.array([[0.0, 0.5], [0.0, 3.0], [4.0, 2.0]])
        got = solver._gauss_newton_polish(br, X, TOL)
        assert np.array_equal(got, polish_per_row(br, X, TOL))
        assert np.all(br.residual(got) <= TOL.tau_feas)

    def test_batched_equals_per_row_with_mixed_use_patterns(self):
        # one iteration's live rows use the equality alone, with either
        # inequality, or with both: four patterns in one stacked solve
        P, X = mixed_use_case()
        br = all_branches(P)[0]
        used = P.values(X, [("g", 0), ("g", 1)]) > 0.0
        assert len({tuple(u) for u in used}) == 4
        got = solver._gauss_newton_polish(br, X, TOL)
        assert np.array_equal(got, polish_per_row(br, X, TOL))
        assert np.all(br.residual(got) <= TOL.tau_feas)

    def test_polish_work_counts(self, capsys, monkeypatch):
        # analyze --with-penalty on wedge3d and ray2d: the polish makes no
        # per-row np.linalg.lstsq call, and in each iteration one stacked
        # solve over all of its live rows and all of the branch's constraints
        iterations, lstsq_calls = [], []
        residual_of, lstsq_stack, lstsq = (BranchProblem.residual_of,
                                           solver.lstsq_stack, np.linalg.lstsq)

        def counted_residual_of(self, V):  # once per polish iteration
            res = residual_of(self, V)
            if sys._getframe(1).f_code.co_name == "_gauss_newton_polish":
                live = int((res > max(TOL.tau_feas * 1e-6, 1e-15)).sum())
                iterations.append(([(live, V.shape[1])] if live else [], []))
            return res

        def counted_stack(A, b):
            iterations[-1][1].append(A.shape[:2])
            return lstsq_stack(A, b)

        def counted_lstsq(*args, **kw):
            lstsq_calls.append(sys._getframe(1).f_code.co_name)
            return lstsq(*args, **kw)

        monkeypatch.setattr(BranchProblem, "residual_of", counted_residual_of)
        monkeypatch.setattr(solver, "lstsq_stack", counted_stack)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        for name, point in (("wedge3d", "0,0,0"), ("ray2d", "0,0")):
            path = str(problem_path(name))
            assert cli.main(["analyze", path, "--point", point, "--with-penalty"]) == 0
        capsys.readouterr()
        assert "_gauss_newton_polish" not in lstsq_calls
        assert sum(bool(want) and want[0][0] >= 3 for want, _ in iterations) >= 4
        for want, got in iterations:
            assert got == want


class TestBatchInvariance:
    """A row's result does not depend on the rows batched with it: no stop
    rule or step of a solver loop reads another row, so each row comes out
    bit for bit the same alone, in its batch and in a permuted batch."""

    @staticmethod
    def _assert_rowwise(run, X):
        """run(X) returns arrays indexed by row; each row's entries have the
        same bytes from X whole, from X permuted and from the row alone; the
        permutation is one cycle through the rows of a seeded order, so no row
        keeps its place in a batch of two or more."""
        p = np.random.default_rng(1).permutation(len(X))
        perm = p[(np.argsort(p) + 1) % len(X)]
        assert len(X) < 2 or (perm != np.arange(len(X))).all()
        batches = [run(X), [out[np.argsort(perm)] for out in run(X[perm])]]
        for i in range(len(X)):
            alone = [out[0].tobytes() for out in run(X[i:i + 1])]
            for outs in batches:
                assert [out[i].tobytes() for out in outs] == alone, (i, X[i])

    @pytest.mark.parametrize("name", sorted(CORPUS_POINTS))
    def test_projection_rows(self, name, corpus):
        # rows at three distances from the origin, as the error-bound probe's
        P = corpus[name]
        rng = np.random.default_rng(17)
        X = np.vstack([ball_offsets(rng, 6, P.n, r) for r in (0.5, 0.05, 0.005)])
        for br in all_branches(P):
            self._assert_rowwise(lambda Z: [solver.project_branch_cloud(P, br, Z, TOL)], X)

    def test_projection_row_beside_a_non_finite_unused_gradient(self):
        # d/dx1 sqrt(x1) is not finite at x1 = 0, where the inequality holds:
        # the row (0, 0.5) projects the same beside (4, 2), which violates it
        P = load_problem("vars x1 x2\nmin x2\nineq sqrt(x1) - 1\neq x2 - 1\n")
        (br,) = all_branches(P)
        X = np.array([[0.0, 0.5], [4.0, 2.0]])
        for rows in (X, X[::-1]):  # either row first in the whole batch
            self._assert_rowwise(lambda Z: [solver.project_branch_cloud(P, br, Z, TOL)], rows)

    def test_ray2d_point_among_40_rows(self, corpus):
        # (0.0025, 0) was 1.4e-13 farther from F projected alone than with 40 other rows
        P = corpus["ray2d"]
        X = np.vstack([[0.0025, 0.0], ball_offsets(np.random.default_rng(3), 40, 2, 0.01)])
        self._assert_rowwise(lambda Z: list(nearest_feasible(P, Z, TOL, all_branches(P))), X)

    @pytest.mark.parametrize("name", sorted(CORPUS_POINTS))
    def test_solve_branch_start_rows(self, name, corpus):
        # the start sets solve_branch draws at the origin and at all ones:
        # final rows, KKT residuals, residuals and statuses
        P = corpus[name]
        for br in all_branches(P):
            for x0 in (np.zeros(P.n), np.ones(P.n)):
                starts = np.vstack([x0, solver.lhs_starts(TOL.rng("solve", br.label()),
                                                          solver.LHS_STARTS, x0, solver.START_BOX)])
                self._assert_rowwise(lambda Z: solver._alm_batch(P, br, Z, TOL)[:4], starts)


class TestSolveBranch:
    def test_equality_pins_solution(self):
        P = load_problem("vars x\nmin x^2\neq x - 1\n")
        sol = solver.solve_branch(P, all_branches(P)[0], [3.0], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(1.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_wedge3d_g_branch(self, corpus):
        P = corpus["wedge3d"]
        br = BranchProblem(P, (0,))
        sol = solver.solve_branch(P, br, [0.5, 0.5, 0.5], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-6)

    def test_contradictory_equalities_stall(self):
        P = load_problem("vars x\nmin x\neq x\neq x - 1\n")
        sol = solver.solve_branch(P, all_branches(P)[0], [0.0], TOL)
        assert sol.status == "infeasible-stall"

    def test_matches_slsqp_on_bounded_corpus_branches(self, corpus):
        # from the starts solve_branch draws, its value is at most the best
        # that scipy's SLSQP reaches on the branch NLP, plus 1e-6
        compared = 0
        for name in ("axes2d", "ray2d", "pinch2d", "diagonal2d"):
            P = corpus[name]
            f = lambda y: float(P.values(y, [("f", 0)])[0])
            df = lambda y: P.jacobian(y, [("f", 0)])[0]
            for x0 in (np.array([0.7, -0.4]), np.array([-1.3, 0.9])):
                for br in all_branches(P):
                    sol = solver.solve_branch(P, br, x0, TOL)
                    assert sol.status == "feasible", (name, br.label(), x0)
                    starts = np.vstack([x0, solver.lhs_starts(
                        TOL.rng("solve", br.label()), solver.LHS_STARTS, x0, solver.START_BOX)])
                    ref = [f(z) for z in (slsqp_on_branch(P, br, s, f, df) for s in starts)
                           if br.residual(z) <= TOL.tau_feas]
                    compared += bool(ref)
                    assert not ref or sol.value <= min(ref) + 1e-6, (name, br.label(), x0)
        assert compared >= 16

    def test_start_count_is_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(solver, "LHS_STARTS", 2)
        P = load_problem("vars x\nmin x^2\n")
        sol = solver.solve_branch(P, all_branches(P)[0], [1.0], TOL)
        assert "starts=3" in sol.log


class TestSolveEnumerative:
    def test_axes2d_best_is_origin(self, corpus):
        sol = solver.solve_enumerative(corpus["axes2d"], [1.0, 1.0], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(sol.x, [0.0, 0.0], atol=1e-5)

    def test_unconstrained_quadratic(self):
        P = load_problem("vars x1 x2\nmin (x1 - 1)^2 + (x2 + 2)^2\n")
        sol = solver.solve_enumerative(P, [5.0, 5.0], TOL)
        assert np.allclose(sol.x, [1.0, -2.0], atol=1e-5)

    def test_ray2d(self, corpus):
        sol = solver.solve_enumerative(corpus["ray2d"], [0.4, 0.3], TOL)
        assert sol.status == "feasible"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-5)


class TestSolvePenaltyDescent:
    def test_smooth_regime_matches_enumerative(self):
        P = load_problem("vars x1 x2\nmin (x1 - 1)^2 + (x2 + 2)^2\nineq x1 - 2\n")
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
        P = load_problem("vars x\nmin x\neq x\neq x - 1\n")
        sol = solver.solve_penalty_descent(P, [0.3], TOL)
        assert sol.status in ("failure", "infeasible-stall")

    def test_incumbent_values_come_from_the_descent(self, corpus, monkeypatch):
        # the stopping residual, a failure's value and residual and the polish
        # branch are read from the item values the descent returns at its
        # incumbent: the only evaluation at a single point is one of every
        # item's value at the polished point
        calls, evaluate = [], MpscProblem._evaluate

        def spy(self, kind, items, x):
            calls.append((kind, tuple(items), np.ndim(x)))
            return evaluate(self, kind, items, x)

        monkeypatch.setattr(MpscProblem, "_evaluate", spy)
        empty = load_problem("vars x\nmin x\neq x\neq x - 1\n")
        runs = [(P, x0) for P in corpus.values() for x0 in (np.zeros(P.n), np.ones(P.n))]
        statuses = []
        for P, x0 in runs + [(empty, np.array([0.3]))]:
            calls.clear()
            try:
                status = solver.solve_penalty_descent(P, x0, TOL).status
            except MpscError:  # an overflow in the descent
                status = "error"
            statuses.append(status)
            polished = [("v", P.items, 1)]
            single = [call for call in calls if call[2] == 1]
            assert single == ([] if status in ("failure", "error") else polished), status
        assert statuses[-1] == "failure" and "feasible" in statuses


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
        P = load_problem("vars x\nmin x\neq x\neq x - 1\n")
        sol = solver.solve_branch(P, all_branches(P)[0], [0.0], TOL)
        annotate_stationarity(P, sol, TOL)
        assert sol.stationarity == {}
