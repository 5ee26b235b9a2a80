"""Desk-scale local solving over branch feasible sets.

Every loop descends through _descent_batch, an Armijo line search batched
over rows along the direction its objective callback returns; the callback
evaluates the loop's items once per point and makes one Jacobian call per
gradient.  project_branch_cloud projects by quadratic penalty, with damped
Gauss-Newton steps (one stacked least-squares solve per iteration) at each
penalty stage, plus a Gauss-Newton polish with one stacked least-squares
solve per pattern of used constraints; the other loops step along the
gradient.
solve_branch runs an augmented-Lagrangian loop over all starts;
solve_penalty_descent minimizes f + kappa * residual, then polishes on its
incumbent's branch.  The enumerative solver keeps the best feasible branch
over every switch sign assignment, which is exact on the union structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import Tolerances, lstsq_stack
from .problem import (OBJECTIVE, BranchProblem, MpscProblem, all_branches,
                      branch_from_assignment)


# every descent: Armijo sufficient-decrease constant
ARMIJO_C = 1e-4
# projection: penalty per stage, Gauss-Newton steps per stage (a cap: a stage
# ends when its steps stall), polish step cap
SIGMA_SCHEDULE = (1e2, 1e4, 1e6)
PENALTY_STEPS = 60
POLISH_ITERS = 40
# ALM: outer steps, descent steps per outer step (also per kappa stage of the
# penalty descent), penalty growth (also of kappa) and the KKT residual target
MAX_OUTER = 50
MAX_INNER = 200
PENALTY_GROWTH = 10.0
TAU_KKT = 1e-6
# multistart: Latin hypercube starts in a box of this half-width around x0
LHS_STARTS = 8
START_BOX = 2.0
# penalty descent: first and largest kappa
KAPPA0 = 1.0
KAPPA_MAX = 1e12


@dataclass
class LocalSolution:
    x: np.ndarray
    value: float
    residual: float
    branch: str
    status: str  # feasible | infeasible-stall | diverged | failure
    stationarity: dict = field(default_factory=dict)
    iterations: int = 0
    log: list = field(default_factory=list)


def lhs_starts(rng, count, center, halfwidth):
    """Latin hypercube sample in a box around `center`."""
    center = np.asarray(center, float)
    n = center.shape[0]
    u = (rng.permuted(np.tile(np.arange(count), (n, 1)), axis=1).T
         + rng.uniform(size=(count, n))) / count
    return center + halfwidth * (2.0 * u - 1.0)


# ---------------------------------------------------------------------------
# batched line-search descent
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # an infinite trial fails Armijo
def _descent_batch(objective, Y, iters, gtol=0.0, V=None, t_max=1e6):
    """Row-wise descent with Armijo backtracking along a search direction;
    returns the final rows and their item values V.

    objective(rows, Z) evaluates the loop's items at the given rows only (each
    row can carry its own anchor/multiplier state) and returns the objective
    values and V; objective(rows, Z, V, grad=True) reads cached values V (None:
    evaluate them) and also returns the gradients g and the search directions
    d (d is g for steepest descent).  A trial point is Z - t * d, accepted on
    sufficient decrease along <g, d>; t starts at 1, halves on rejection and
    doubles on acceptance up to t_max.  So the items are evaluated at the
    start, unless the caller passes their values V at Y, then only at trial
    points, each once per row: a rejected trial met again reuses its cached
    values, and a row whose slope <g, d> is not above gtol^2 (or is NaN)
    takes no trial.
    """
    Y = np.array(Y, float)
    N = Y.shape[0]
    rows_all = np.arange(N)
    t = np.ones(N)
    last = np.empty_like(Y)  # the last trial point of the rows in stuck
    stuck = np.zeros(N, bool)  # rows whose every halving failed last iteration
    ft, Vt = np.empty(N), None
    stall = 0
    for _ in range(iters):
        f, V, g, d = objective(rows_all, Y, V, grad=True)
        slope = (g * d).sum(axis=1)  # |g|^2 for steepest descent; NaN: no trial
        live = slope > max(gtol * gtol, 1e-26)
        if not live.any():
            break
        Vt = np.empty_like(V) if Vt is None else Vt
        trial = Y - t[:, None] * d
        rows = live.nonzero()[0]
        if stuck.any():  # a first trial that is the last rejected one reuses ft, Vt
            rows = rows[~(stuck[rows] & (trial[rows] == last[rows]).all(axis=1))]
        if rows.size:
            ft[rows], Vt[rows] = objective(rows, trial[rows])
        need = live & (ft > f - ARMIJO_C * t * slope)
        for _ in range(30):  # a row outside need keeps its t, so its trial
            if not need.any():
                break
            np.multiply(t, 0.5, out=t, where=need)
            trial = Y - t[:, None] * d
            rows = need.nonzero()[0]
            ft[rows], Vt[rows] = objective(rows, trial[rows])
            need &= ft > f - ARMIJO_C * t * slope
        stuck = need
        np.copyto(last, trial, where=need[:, None])
        accept = live & ~need
        decrease = float(abs(f[accept] - ft[accept]).max()) if accept.any() else 0.0
        stall = stall + 1 if decrease <= 1e-14 * (1.0 + float(abs(f).max())) else 0
        np.copyto(Y, trial, where=accept[:, None])
        # after the last use of f, which may view V
        np.copyto(V, Vt, where=accept[:, None])
        np.minimum(t * 2.0, t_max, out=t, where=accept)
        np.maximum(t, 1e-18, out=t, where=need)
        if stall >= 3:
            break
    return Y, V


# ---------------------------------------------------------------------------
# branch helpers
# ---------------------------------------------------------------------------

def _gate(items, W):
    """The items whose weight column has a positive entry, and those columns."""
    keep = (W > 0.0).any(axis=0)
    return [it for it, k in zip(items, keep) if k], W[:, keep]


def _add_gradients(out, J, *weights):
    """out += w * J[:, c] over the columns c of J, w the c-th weight column."""
    for c, w in enumerate(w for W in weights for w in W.T):
        out += w[:, None] * J[:, c]
    return out


def _gauss_newton_polish(br: BranchProblem, X, tol: Tolerances):
    """Newton steps on the violated constraint system to sharpen feasibility.

    Values, and gradients where used (every equality, an inequality only where
    violated), are evaluated in batches over the live rows; the least-squares
    steps on the equalities then the violated inequalities are solved in one
    stack per pattern of used constraints, and a non-finite step is skipped.
    """
    P = br.problem
    cons = br.equalities() + [("g", i) for i in range(P.m)]
    n_eq = len(cons) - P.m
    X = np.array(X, float)
    for _ in range(POLISH_ITERS):
        V = P.values(X, cons)
        live = np.where(br.residual_of(V) > max(tol.tau_feas * 1e-6, 1e-15))[0]
        if live.size == 0:
            break
        vals = V[live]
        use = (vals > 0.0) | (np.arange(len(cons)) < n_eq)
        J = np.zeros(vals.shape + (P.n,))
        for j, it in enumerate(cons):
            if np.any(use[:, j]):
                J[use[:, j], j] = P.jacobian(X[live[use[:, j]]], [it])[:, 0]
        step = np.full((live.size, P.n), np.nan)
        todo = use.any(axis=1)
        while todo.any():  # one stacked solve per pattern of used constraints
            pattern = use[todo.argmax()]
            rows = todo & (use == pattern).all(axis=1)
            step[rows] = lstsq_stack(J[rows][:, pattern], vals[rows][:, pattern])
            todo &= ~rows
        ok = np.isfinite(step).all(axis=1)
        if not ok.any():
            break
        X[live[ok]] -= step[ok]
    return X


def project_branch_cloud(P: MpscProblem, br: BranchProblem, X0, tol: Tolerances):
    """Approximate projection of a batch of points onto the branch set.

    Minimizes ||y - x0||^2 + sigma * (||g+||^2 + ||e||^2) at each sigma of
    SIGMA_SCHEDULE by damped Gauss-Newton steps (the step length starts at 1
    and never exceeds it), then polishes with Gauss-Newton.  Rows that end
    infeasible are the caller's to filter.
    """
    gs = [("g", i) for i in range(P.m)]
    eqs = br.equalities()
    X0 = np.atleast_2d(np.asarray(X0, float))
    Y = X0.copy()

    def objective(rows, Z, V=None, grad=False):  # at the current stage's sigma
        V = P.values(Z, gs + eqs) if V is None else V
        gp = np.maximum(V[:, :P.m], 0.0)
        ev = V[:, P.m:]
        fv = ((Z - X0[rows]) ** 2).sum(axis=1) \
            + sigma * ((gp ** 2).sum(axis=1) + (ev ** 2).sum(axis=1))
        if not grad:
            return fv, V
        gated, Gp = _gate(gs, gp)
        J = P.jacobian(Z, gated + eqs)
        g = _add_gradients(2.0 * (Z - X0[rows]), J, 2.0 * sigma * Gp, 2.0 * sigma * ev)
        # Gauss-Newton: d solves (I + sigma * sum_used grad c grad c^T) d = g / 2,
        # over every equality and each inequality where it is violated, as the
        # least-squares problem [I; sqrt(sigma) J_used] d = [Z - x0; sqrt(sigma) c],
        # whose I rows keep it well posed however large sigma * |grad c|^2 is
        r = np.sqrt(sigma)
        Ju = J * np.concatenate([Gp > 0.0, np.ones(ev.shape, bool)], axis=1)[:, :, None]
        A = np.concatenate([np.broadcast_to(np.eye(P.n), (len(Z), P.n, P.n)),
                            r * Ju], axis=1)
        b = np.concatenate([Z - X0[rows], r * Gp, r * ev], axis=1)
        ok = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
        d = np.full(Z.shape, np.nan)  # a non-finite system or step: no trial
        if ok.any():
            d[ok] = lstsq_stack(A[ok], b[ok])
        d[~np.isfinite(d).all(axis=1)] = np.nan
        return fv, V, g, d

    V = None  # items at Y, independent of sigma: each stage starts from the last's
    for sigma in SIGMA_SCHEDULE:
        Y, V = _descent_batch(objective, Y, PENALTY_STEPS, V=V, t_max=1.0)
    return _gauss_newton_polish(br, Y, tol)


# ---------------------------------------------------------------------------
# augmented-Lagrangian branch solver (batched over starts)
# ---------------------------------------------------------------------------

def _alm_batch(P: MpscProblem, br: BranchProblem, X0, tol: Tolerances):
    """Run the ALM loop on every start row; returns (X, kkt, res, status)."""
    gs = [("g", i) for i in range(P.m)]
    eqs = br.equalities()
    X = np.atleast_2d(np.asarray(X0, float)).copy()
    N = X.shape[0]
    lam = np.zeros((N, len(gs)))
    rho = np.zeros((N, len(eqs)))
    sigma = np.full(N, 10.0)
    prev_res = np.full(N, np.inf)
    kkt = np.full(N, np.inf)
    X_prev = V = None
    outer_used = 0

    def objective(rows, Z, V=None, grad=False):  # at the current sigma, rho and lam
        V = P.values(Z, [OBJECTIVE] + eqs + gs) if V is None else V
        fv, ev, gv = V[:, 0], V[:, 1:1 + len(eqs)], V[:, 1 + len(eqs):]
        s = sigma[rows]
        w = np.maximum(0.0, lam[rows] + s[:, None] * gv)
        if ev.size:
            fv = fv + (rho[rows] * ev + 0.5 * s[:, None] * ev ** 2).sum(axis=1)
        if gv.size:
            fv = fv + (w ** 2 - lam[rows] ** 2).sum(axis=1) / (2.0 * s)
        if not grad:
            return fv, V
        gated, W = _gate(gs, w)
        J = P.jacobian(Z, [OBJECTIVE] + eqs + gated)
        g = _add_gradients(J[:, 0], J[:, 1:], rho[rows] + s[:, None] * ev, W)
        return fv, V, g, g

    for _ in range(MAX_OUTER):
        outer_used += 1
        # the items at X do not depend on sigma, rho or lam: the next descent reuses V
        X, V = _descent_batch(objective, X, MAX_INNER, gtol=0.1 * TAU_KKT, V=V)
        res = br.residual_of(V[:, 1:])  # eqs + gs at X
        rho = rho + sigma[:, None] * V[:, 1:1 + len(eqs)]
        lam = np.maximum(0.0, lam + sigma[:, None] * V[:, 1 + len(eqs):])

        J = P.jacobian(X, [OBJECTIVE] + eqs + gs)
        kkt_vec = _add_gradients(J[:, 0], J[:, 1:], rho, lam)
        kkt = np.linalg.norm(kkt_vec, axis=1)
        moved = np.linalg.norm(X - X_prev, axis=1) if X_prev is not None \
            else np.full(N, np.inf)
        X_prev = X.copy()
        # a stalled iterate on the feasible set is accepted even without a
        # small KKT residual (branch minimizers need not be KKT points)
        done = ((kkt <= TAU_KKT) | (moved <= 1e-9 * (1.0 + np.linalg.norm(X, axis=1)))) \
            & (res <= tol.tau_feas)
        diverged = np.linalg.norm(X, axis=1) > 1e8
        if np.all(done | diverged):
            break
        grow = ~done & (res > 0.25 * prev_res)
        sigma[grow] = np.minimum(sigma[grow] * PENALTY_GROWTH, 1e12)
        prev_res = np.minimum(prev_res, res)

    X = _gauss_newton_polish(br, X, tol)
    res = br.residual(X)
    diverged = np.linalg.norm(X, axis=1) > 1e8
    status = np.where(diverged, "diverged",
                      np.where(res <= tol.tau_feas, "feasible", "infeasible-stall"))
    return X, kkt, res, status, outer_used


def solve_branch(P: MpscProblem, br: BranchProblem, x0,
                 tol: Tolerances) -> LocalSolution:
    """Best local solution of the branch NLP over multistart."""
    x0 = np.asarray(x0, float)
    rng = tol.rng("solve", br.label())
    starts = np.vstack([x0[None, :],
                        lhs_starts(rng, LHS_STARTS, x0, START_BOX)])
    X, kkt, res, status, outer = _alm_batch(P, br, starts, tol)
    fvals = P.values(X, [OBJECTIVE])[:, 0]
    order = sorted(range(len(X)),
                   key=lambda i: (status[i] != "feasible", fvals[i], i))
    best = order[0]
    return LocalSolution(
        x=X[best], value=float(fvals[best]), residual=float(res[best]),
        branch=br.label(), status=str(status[best]), iterations=outer,
        log=[f"kkt={kkt[best]:.2e}", f"starts={len(X)}"],
    )


def solve_enumerative(P: MpscProblem, x0, tol: Tolerances) -> LocalSolution:
    """Best-of-branches over every switch sign assignment (2^l solves)."""
    best = None
    table = []
    for bi, br in enumerate(all_branches(P)):
        sol = solve_branch(P, br, x0, tol)
        table.append((br.label(), sol.status, sol.value))
        if sol.status != "feasible":
            continue
        if best is None or sol.value < best.value - 1e-12:
            best = sol
    if best is None:
        out = LocalSolution(x=np.asarray(x0, float), value=np.nan, residual=np.inf,
                            branch="none", status="failure")
        out.log = [f"{lab}: {st}" for lab, st, _ in table]
        return out
    best.log += [f"{lab}: {st} value={val:.6g}" if np.isfinite(val) else f"{lab}: {st}"
                 for lab, st, val in table]
    return best


def solve_penalty_descent(P: MpscProblem, x0, tol: Tolerances) -> LocalSolution:
    """Minimize f + kappa * residual with a growing penalty parameter.

    The min{G^2, H^2} term is differentiated through its active smooth
    piece; exact ties take the G side.
    """
    x = np.atleast_2d(np.asarray(x0, float)).copy()
    kappa, kappas, V = KAPPA0, [], None
    gs, hs = [("g", i) for i in range(P.m)], [("h", j) for j in range(P.p)]
    pairs = [it for k in range(P.l) for it in (("G", k), ("H", k))]
    ends = np.cumsum([1, P.m, P.p, P.l, P.l])  # V's columns: f, g, h, G, H

    def objective(rows, Z, V=None, grad=False):  # at the current kappa
        V = P.values(Z, P.items) if V is None else V  # f first: the first error
        g, h, G, H = (V[:, a:b] for a, b in zip(ends, ends[1:]))
        r = np.sqrt((np.maximum(g, 0.0) ** 2).sum(axis=1) + (h ** 2).sum(axis=1)
                    + np.minimum(G ** 2, H ** 2).sum(axis=1))
        fv = V[:, 0] + kappa * r
        if not grad:
            return fv, V
        active = r > 0.0
        if not active.any():
            out = P.jacobian(Z, [OBJECTIVE])[:, 0]
            return fv, V, out, out
        gated, W = _gate(gs, np.maximum(g, 0.0))
        J = P.jacobian(Z, [OBJECTIVE] + gated + hs + pairs)
        out, dGH = J[:, 0], J[:, 1 + len(gated) + P.p:]
        dr = _add_gradients(np.zeros_like(Z), J[:, 1:], W, h)
        for k in range(P.l):
            use_g = G[:, k] ** 2 <= H[:, k] ** 2  # tie -> G piece
            dr += np.where(use_g[:, None], G[:, k:k + 1] * dGH[:, 2 * k],
                           H[:, k:k + 1] * dGH[:, 2 * k + 1])
        safe = np.where(active, r, 1.0)
        out[active] += kappa * (dr[active] / safe[active, None])
        return fv, V, out, out

    while kappa <= KAPPA_MAX:
        x, V = _descent_batch(objective, x, MAX_INNER, gtol=0.1 * TAU_KKT, V=V)
        kappas.append(kappa)
        if float(P.residual(x[0])) <= tol.tau_feas * 10:
            break
        kappa *= PENALTY_GROWTH
    else:
        return LocalSolution(x=x[0], value=float(P.values(x[0], [OBJECTIVE])[0]),
                             residual=float(P.residual(x[0])), branch="penalty",
                             status="failure", log=[f"kappa_final={kappas[-1]:.1e}"])

    # polish on the branch matching the active pattern at the incumbent
    g, h, G, H = P.constraint_values(x[0])
    eq_G = tuple(k for k in range(P.l) if G[k] ** 2 <= H[k] ** 2)
    eq_H = tuple(k for k in range(P.l) if G[k] ** 2 > H[k] ** 2)
    br = branch_from_assignment(P, eq_G, eq_H)
    X, kkt, res, status, outer = _alm_batch(P, br, x, tol)
    sol = LocalSolution(
        x=X[0], value=float(P.values(X[0], [OBJECTIVE])[0]),
        residual=float(P.residual(X[0])),
        branch=br.label(), status=str(status[0]), iterations=len(kappas) + outer,
        log=[f"kappa_final={kappas[-1]:.1e}", f"kkt={kkt[0]:.2e}", "branch polish"],
    )
    if sol.residual > tol.tau_feas:
        sol.status = "infeasible-stall"
    return sol
