"""Desk-scale local solving over branch feasible sets.

Every loop descends through _descent_batch, Armijo gradient descent batched
over rows, with one objective callback that returns the values, or the values
and the gradient from one evaluation of the loop's items.
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


@dataclass(frozen=True)
class SolveConfig:
    max_outer: int = 50
    max_inner: int = 200
    penalty_growth: float = 10.0
    armijo_c: float = 1e-4
    lhs_starts: int = 8
    start_box: float = 2.0
    tau_kkt: float = 1e-6
    kappa0: float = 1.0
    kappa_max: float = 1e12


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
def _descent_batch(objective, Y, iters, c=1e-4, t0=1.0, gtol=0.0):
    """Row-wise gradient descent with Armijo backtracking.

    objective(rows, Z) returns the values at the given rows only, so each row
    can carry its own anchor/multiplier state; objective(rows, Z, grad=True)
    returns the values and the gradients from one evaluation.
    """
    Y = np.array(Y, float)
    N = Y.shape[0]
    rows_all = np.arange(N)
    t = np.full(N, float(t0))
    stall = 0
    for _ in range(iters):
        f, g = objective(rows_all, Y, grad=True)
        gn2 = np.sum(g * g, axis=1)
        live = gn2 > max(gtol * gtol, 1e-26)
        if not np.any(live):
            break
        trial = Y - t[:, None] * g
        ft = objective(rows_all, trial)
        need = live & (ft > f - c * t * gn2)
        for _ in range(30):
            if not np.any(need):
                break
            rows = np.where(need)[0]
            t[rows] *= 0.5
            trial[rows] = Y[rows] - t[rows, None] * g[rows]
            ft[rows] = objective(rows, trial[rows])
            need[rows] = ft[rows] > f[rows] - c * t[rows] * gn2[rows]
        accept = live & ~need
        decrease = float(np.max(np.abs(f[accept] - ft[accept]))) if np.any(accept) else 0.0
        Y[accept] = trial[accept]
        t[accept] = np.minimum(t[accept] * 2.0, 1e6)
        t[need] = np.maximum(t[need], 1e-18)
        stall = stall + 1 if decrease <= 1e-14 * (1.0 + float(np.max(np.abs(f)))) else 0
        if stall >= 3:
            break
    return Y


# ---------------------------------------------------------------------------
# branch helpers
# ---------------------------------------------------------------------------

# projection: penalty per stage, descent steps per stage, Gauss-Newton step cap
SIGMA_SCHEDULE = (1e2, 1e4, 1e6)
PENALTY_STEPS = 60
POLISH_ITERS = 40


def _add_gradients(P: MpscProblem, Z, out, items, W, gated=False):
    """out += W[:, j, None] * (gradient of items[j] over Z), item by item.

    Gated, an item whose weight column has no positive entry is skipped and
    its gradient is not computed.
    """
    cols = [j for j in range(len(items)) if not gated or np.any(W[:, j] > 0.0)]
    J = P.jacobian(Z, [items[j] for j in cols])
    for c, j in enumerate(cols):
        out += W[:, j, None] * J[:, c]
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
        res = br.residual(X)
        live = np.where(res > max(tol.tau_feas * 1e-6, 1e-15))[0]
        if live.size == 0:
            break
        vals = P.values(X[live], cons)
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

    def objective(rows, Z, grad=False):  # at the current stage's sigma
        V = P.values(Z, gs + eqs)
        gp = np.maximum(V[:, :P.m], 0.0)
        ev = V[:, P.m:]
        fv = np.sum((Z - X0[rows]) ** 2, axis=1) \
            + sigma * (np.sum(gp ** 2, axis=1) + np.sum(ev ** 2, axis=1))
        if not grad:
            return fv
        out = _add_gradients(P, Z, 2.0 * (Z - X0[rows]), gs, 2.0 * sigma * gp, gated=True)
        return fv, _add_gradients(P, Z, out, eqs, 2.0 * sigma * ev)

    for sigma in SIGMA_SCHEDULE:
        Y = _descent_batch(objective, Y, PENALTY_STEPS, t0=0.2 / (1.0 + sigma))
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

def _alm_batch(P: MpscProblem, br: BranchProblem, X0, cfg: SolveConfig,
               tol: Tolerances):
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

    def objective(rows, Z, grad=False):  # at the current sigma, rho and lam
        V = P.values(Z, [OBJECTIVE] + eqs + gs)
        fv, ev, gv = V[:, 0], V[:, 1:1 + len(eqs)], V[:, 1 + len(eqs):]
        s = sigma[rows]
        w = np.maximum(0.0, lam[rows] + s[:, None] * gv)
        if ev.size:
            fv = fv + np.sum(rho[rows] * ev + 0.5 * s[:, None] * ev ** 2, axis=1)
        if gv.size:
            fv = fv + np.sum(w ** 2 - lam[rows] ** 2, axis=1) / (2.0 * s)
        if not grad:
            return fv
        out = P.jacobian(Z, [OBJECTIVE])[:, 0]
        _add_gradients(P, Z, out, eqs, rho[rows] + s[:, None] * ev)
        return fv, _add_gradients(P, Z, out, gs, w, gated=True)

    for _ in range(cfg.max_outer):
        outer_used += 1
        X = _descent_batch(objective, X, cfg.max_inner, c=cfg.armijo_c,
                           gtol=0.1 * cfg.tau_kkt)
        V = P.values(X, eqs + gs)
        res = br.residual_of(V)
        rho = rho + sigma[:, None] * V[:, :len(eqs)]
        lam = np.maximum(0.0, lam + sigma[:, None] * V[:, len(eqs):])

        kkt_vec = _add_gradients(P, X, P.jacobian(X, [OBJECTIVE])[:, 0], eqs + gs,
                                 np.hstack([rho, lam]))
        kkt = np.linalg.norm(kkt_vec, axis=1)
        moved = np.linalg.norm(X - X_prev, axis=1) if X_prev is not None \
            else np.full(N, np.inf)
        X_prev = X.copy()
        # a stalled iterate on the feasible set is accepted even without a
        # small KKT residual (branch minimizers need not be KKT points)
        done = ((kkt <= cfg.tau_kkt) | (moved <= 1e-9 * (1.0 + np.linalg.norm(X, axis=1)))) \
            & (res <= tol.tau_feas)
        diverged = np.linalg.norm(X, axis=1) > 1e8
        if np.all(done | diverged):
            break
        grow = ~done & (res > 0.25 * prev_res)
        sigma[grow] = np.minimum(sigma[grow] * cfg.penalty_growth, 1e12)
        prev_res = np.minimum(prev_res, res)

    X = _gauss_newton_polish(br, X, tol)
    res = br.residual(X)
    diverged = np.linalg.norm(X, axis=1) > 1e8
    status = np.where(diverged, "diverged",
                      np.where(res <= tol.tau_feas, "feasible", "infeasible-stall"))
    return X, kkt, res, status, outer_used


def solve_branch(P: MpscProblem, br: BranchProblem, x0, cfg: SolveConfig,
                 tol: Tolerances) -> LocalSolution:
    """Best local solution of the branch NLP over multistart."""
    x0 = np.asarray(x0, float)
    rng = tol.rng("solve", br.label())
    starts = np.vstack([x0[None, :],
                        lhs_starts(rng, cfg.lhs_starts, x0, cfg.start_box)])
    X, kkt, res, status, outer = _alm_batch(P, br, starts, cfg, tol)
    fvals = P.values(X, [OBJECTIVE])[:, 0]
    order = sorted(range(len(X)),
                   key=lambda i: (status[i] != "feasible", fvals[i], i))
    best = order[0]
    return LocalSolution(
        x=X[best], value=float(fvals[best]), residual=float(res[best]),
        branch=br.label(), status=str(status[best]), iterations=outer,
        log=[f"kkt={kkt[best]:.2e}", f"starts={len(X)}"],
    )


def solve_enumerative(P: MpscProblem, x0, cfg: SolveConfig,
                      tol: Tolerances) -> LocalSolution:
    """Best-of-branches over every switch sign assignment (2^l solves)."""
    best = None
    table = []
    for bi, br in enumerate(all_branches(P)):
        sol = solve_branch(P, br, x0, cfg, tol)
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


def solve_penalty_descent(P: MpscProblem, x0, cfg: SolveConfig,
                          tol: Tolerances) -> LocalSolution:
    """Minimize f + kappa * residual with a growing penalty parameter.

    The min{G^2, H^2} term is differentiated through its active smooth
    piece; exact ties take the G side.
    """
    x = np.atleast_2d(np.asarray(x0, float)).copy()
    kappa = cfg.kappa0
    kappas = []

    def objective(rows, Z, grad=False):  # at the current kappa
        fv = P.values(Z, [OBJECTIVE])[:, 0]  # before the constraints: first error
        g, h, G, H = P.constraint_values(Z)
        r = np.sqrt(np.sum(np.maximum(g, 0.0) ** 2, axis=1) + np.sum(h ** 2, axis=1)
                    + np.sum(np.minimum(G ** 2, H ** 2), axis=1))
        fv = fv + kappa * r
        if not grad:
            return fv
        out = P.jacobian(Z, [OBJECTIVE])[:, 0]
        active = r > 0.0
        if not np.any(active):
            return fv, out
        dr = _add_gradients(P, Z, np.zeros_like(Z), [("g", i) for i in range(P.m)],
                            np.maximum(g, 0.0), gated=True)
        _add_gradients(P, Z, dr, [("h", j) for j in range(P.p)], h)
        for k in range(P.l):
            use_g = G[:, k] ** 2 <= H[:, k] ** 2  # tie -> G piece
            dG, dH = P.jacobian(Z, [("G", k), ("H", k)]).transpose(1, 0, 2)
            dr += np.where(use_g[:, None], G[:, k:k + 1] * dG, H[:, k:k + 1] * dH)
        safe = np.where(active, r, 1.0)
        out[active] += kappa * (dr[active] / safe[active, None])
        return fv, out

    while kappa <= cfg.kappa_max:
        x = _descent_batch(objective, x, cfg.max_inner, c=cfg.armijo_c,
                           gtol=0.1 * cfg.tau_kkt)
        kappas.append(kappa)
        if float(P.residual(x[0])) <= tol.tau_feas * 10:
            break
        kappa *= cfg.penalty_growth
    else:
        return LocalSolution(x=x[0], value=float(P.values(x[0], [OBJECTIVE])[0]),
                             residual=float(P.residual(x[0])), branch="penalty",
                             status="failure", log=[f"kappa_final={kappas[-1]:.1e}"])

    # polish on the branch matching the active pattern at the incumbent
    g, h, G, H = P.constraint_values(x[0])
    eq_G = tuple(k for k in range(P.l) if G[k] ** 2 <= H[k] ** 2)
    eq_H = tuple(k for k in range(P.l) if G[k] ** 2 > H[k] ** 2)
    br = branch_from_assignment(P, eq_G, eq_H)
    X, kkt, res, status, outer = _alm_batch(P, br, x, cfg, tol)
    sol = LocalSolution(
        x=X[0], value=float(P.values(X[0], [OBJECTIVE])[0]),
        residual=float(P.residual(X[0])),
        branch=br.label(), status=str(status[0]), iterations=len(kappas) + outer,
        log=[f"kappa_final={kappas[-1]:.1e}", f"kkt={kkt[0]:.2e}", "branch polish"],
    )
    if sol.residual > tol.tau_feas:
        sol.status = "infeasible-stall"
    return sol
