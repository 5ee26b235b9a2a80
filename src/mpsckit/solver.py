"""Desk-scale local solving over branch feasible sets.

Every loop descends through _descent_batch, Armijo gradient descent batched
over rows, with one objective callback that evaluates the loop's items once
per point and makes one Jacobian call per gradient.
project_branch_cloud projects by quadratic penalty plus a Gauss-Newton polish;
solve_branch runs an augmented-Lagrangian loop over all starts;
solve_penalty_descent minimizes f + kappa * residual, then polishes on its
incumbent's branch.  The enumerative solver keeps the best feasible branch
over every switch sign assignment, which is exact on the union structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError
from .numeric import Tolerances
from .problem import (OBJECTIVE, BranchProblem, MpscProblem, all_branches,
                      branch_from_assignment)


# every descent: Armijo sufficient-decrease constant
ARMIJO_C = 1e-4
# projection: penalty per stage, descent steps per stage, Gauss-Newton step cap
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
# batched first-order descent
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # an infinite trial fails Armijo
def _descent_batch(objective, Y, iters, t0=1.0, gtol=0.0):
    """Row-wise gradient descent with Armijo backtracking; returns the final
    rows and their item values V.

    objective(rows, Z) evaluates the loop's items at the given rows only (each
    row can carry its own anchor/multiplier state) and returns the objective
    values and V; objective(rows, Z, V, grad=True) reads cached values V (None:
    evaluate them) and also returns the gradients.  So the items are evaluated
    at the start, then only at trial points.
    """
    Y = np.array(Y, float)
    N = Y.shape[0]
    rows_all = np.arange(N)
    t = np.full(N, float(t0))
    stall, V = 0, None
    for _ in range(iters):
        f, V, g = objective(rows_all, Y, V, grad=True)
        gn2 = (g * g).sum(axis=1)
        live = gn2 > max(gtol * gtol, 1e-26)
        if not live.any():
            break
        trial = Y - t[:, None] * g
        ft, Vt = objective(rows_all, trial)
        need = live & (ft > f - ARMIJO_C * t * gn2)
        for _ in range(30):
            if not need.any():
                break
            rows = need.nonzero()[0]
            t[rows] *= 0.5
            trial[rows] = Y[rows] - t[rows, None] * g[rows]
            ft[rows], Vt[rows] = objective(rows, trial[rows])
            need[rows] = ft[rows] > f[rows] - ARMIJO_C * t[rows] * gn2[rows]
        accept = live & ~need
        decrease = float(abs(f[accept] - ft[accept]).max()) if accept.any() else 0.0
        stall = stall + 1 if decrease <= 1e-14 * (1.0 + float(abs(f).max())) else 0
        Y[accept] = trial[accept]
        V[accept] = Vt[accept]  # after the last use of f, which may view V
        t[accept] = np.minimum(t[accept] * 2.0, 1e6)
        t[need] = np.maximum(t[need], 1e-18)
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
    step is solved per row, on the equalities then the violated inequalities.
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
        moved = False
        for k, idx in enumerate(live):
            if np.any(use[k]):
                step, *_ = np.linalg.lstsq(J[k, use[k]], vals[k, use[k]], rcond=None)
                if np.all(np.isfinite(step)):
                    X[idx] -= step
                    moved = True
        if not moved:
            break
    return X


def project_branch_cloud(P: MpscProblem, br: BranchProblem, X0, tol: Tolerances):
    """Approximate projection of a batch of points onto the branch set.

    Minimizes ||y - x0||^2 by quadratic penalty over SIGMA_SCHEDULE, then
    polishes with Gauss-Newton.  Rows that end infeasible are the caller's
    to filter.
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
        gated, W = _gate(gs, 2.0 * sigma * gp)
        J = P.jacobian(Z, gated + eqs)
        return fv, V, _add_gradients(2.0 * (Z - X0[rows]), J, W, 2.0 * sigma * ev)

    for sigma in SIGMA_SCHEDULE:
        Y, _ = _descent_batch(objective, Y, PENALTY_STEPS, t0=0.2 / (1.0 + sigma))
    return _gauss_newton_polish(br, Y, tol)


def project_branch(P: MpscProblem, br: BranchProblem, x0, tol: Tolerances):
    """Nearest branch-feasible point to x0 (best over a few starts)."""
    x0 = np.asarray(x0, float)
    starts = [x0]
    rng = tol.rng("project", br.label())
    starts.extend(lhs_starts(rng, 4, x0, max(0.5, 0.1 * np.linalg.norm(x0))))
    Y = project_branch_cloud(P, br, np.array(starts), tol)
    res = br.residual(Y)
    ok = np.where(res <= tol.tau_feas)[0]
    if ok.size == 0:
        raise EstimationError(f"projection onto branch {br.label()} stalled infeasible")
    dists = np.linalg.norm(Y[ok] - x0, axis=1)
    return Y[ok[int(np.argmin(dists))]]


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
    X_prev = None
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
        return fv, V, _add_gradients(J[:, 0], J[:, 1:], rho[rows] + s[:, None] * ev, W)

    for _ in range(MAX_OUTER):
        outer_used += 1
        X, V = _descent_batch(objective, X, MAX_INNER, gtol=0.1 * TAU_KKT)
        V = V[:, 1:]  # eqs + gs at X
        res = br.residual_of(V)
        rho = rho + sigma[:, None] * V[:, :len(eqs)]
        lam = np.maximum(0.0, lam + sigma[:, None] * V[:, len(eqs):])

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
    kappa, kappas = KAPPA0, []
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
            return fv, V, P.jacobian(Z, [OBJECTIVE])[:, 0]
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
        return fv, V, out

    while kappa <= KAPPA_MAX:
        x, _ = _descent_batch(objective, x, MAX_INNER, gtol=0.1 * TAU_KKT)
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
