"""Desk-scale local solving over branch feasible sets.

project_branch uses a quadratic penalty with a growth schedule plus a
Gauss-Newton clean-up on the violated system; solve_branch is a standard
augmented-Lagrangian loop with an Armijo gradient-descent inner solver,
run batched over all starts.  The enumerative solver runs every switch sign
assignment and keeps the best feasible branch solution, which is exact on
the union structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import EstimationError, MpscError
from .numeric import Tolerances
from .problem import BranchProblem, MpscProblem, all_branches


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

    def to_json(self):
        return {"x": [float(v) for v in self.x], "value": self.value,
                "residual": self.residual, "branch": self.branch,
                "status": self.status, "stationarity": self.stationarity,
                "iterations": self.iterations, "log": list(self.log)}


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

def _descent_batch(value_fn, grad_fn, Y, iters, c=1e-4, t0=1.0, gtol=0.0):
    """Row-wise gradient descent with Armijo backtracking.

    value_fn(rows, Z) and grad_fn(rows, Z) evaluate only the given rows, so
    each row can carry its own anchor/multiplier state.
    """
    Y = np.array(Y, float)
    N = Y.shape[0]
    rows_all = np.arange(N)
    t = np.full(N, float(t0))
    stall = 0
    for _ in range(iters):
        f = value_fn(rows_all, Y)
        g = grad_fn(rows_all, Y)
        gn2 = np.sum(g * g, axis=1)
        live = gn2 > max(gtol * gtol, 1e-26)
        if not np.any(live):
            break
        trial = Y - t[:, None] * g
        ft = value_fn(rows_all, trial)
        need = live & (ft > f - c * t * gn2)
        for _ in range(30):
            if not np.any(need):
                break
            rows = np.where(need)[0]
            t[rows] *= 0.5
            trial[rows] = Y[rows] - t[rows, None] * g[rows]
            ft[rows] = value_fn(rows, trial[rows])
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

def _batch_values(exprs, Z):
    if not exprs:
        return np.zeros((Z.shape[0], 0))
    return np.stack([ex.evaluate(e, Z) for e in exprs], axis=-1)


def _gauss_newton_polish(br: BranchProblem, X, tol: Tolerances, iters=40):
    """Newton steps on the violated constraint system to sharpen feasibility.

    Values, and gradients where used (every equality, an inequality only where
    violated), are evaluated in batches over the live rows; the least-squares
    step is solved per row, on the equalities then the violated inequalities.
    """
    P = br.problem
    cons = br.equalities() + list(P.g)
    n_eq = len(cons) - P.m
    X = np.array(X, float)
    for _ in range(iters):
        res = br.residual(X)
        live = np.where(res > max(tol.tau_feas * 1e-6, 1e-15))[0]
        if live.size == 0:
            break
        vals = _batch_values(cons, X[live])
        use = (vals > 0.0) | (np.arange(len(cons)) < n_eq)
        J = np.zeros(vals.shape + (P.n,))
        for j, e in enumerate(cons):
            if np.any(use[:, j]):
                J[use[:, j], j] = P.grad_batch(e, X[live[use[:, j]]])
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


def project_branch_cloud(P: MpscProblem, br: BranchProblem, X0, tol: Tolerances,
                         sigma_schedule=(1e2, 1e4, 1e6), inner=60):
    """Approximate projection of a batch of points onto the branch set.

    Minimizes ||y - x0||^2 by quadratic penalty with a growth schedule, then
    polishes with Gauss-Newton.  Rows that end infeasible are the caller's
    to filter.
    """
    gs = list(P.g)
    eqs = br.equalities()
    X0 = np.atleast_2d(np.asarray(X0, float))
    Y = X0.copy()
    for sigma in sigma_schedule:
        def val(rows, Z, sigma=sigma):
            gp = np.maximum(_batch_values(gs, Z), 0.0)
            ev = _batch_values(eqs, Z)
            return np.sum((Z - X0[rows]) ** 2, axis=1) \
                + sigma * (np.sum(gp ** 2, axis=1) + np.sum(ev ** 2, axis=1))

        def grad(rows, Z, sigma=sigma):
            out = 2.0 * (Z - X0[rows])
            gp = np.maximum(_batch_values(gs, Z), 0.0)
            ev = _batch_values(eqs, Z)
            for i, e in enumerate(gs):
                col = gp[:, i]
                if np.any(col > 0.0):
                    out += 2.0 * sigma * col[:, None] * P.grad_batch(e, Z)
            for j, e in enumerate(eqs):
                out += 2.0 * sigma * ev[:, j:j + 1] * P.grad_batch(e, Z)
            return out

        Y = _descent_batch(val, grad, Y, inner, t0=0.2 / (1.0 + sigma))
    return _gauss_newton_polish(br, Y, tol)


def project_branch(P: MpscProblem, br: BranchProblem, x0,
                   cfg: SolveConfig, tol: Tolerances):
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
    gs = list(P.g)
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

    for _ in range(cfg.max_outer):
        outer_used += 1
        def val(rows, Z):
            fv = ex.evaluate(P.f, Z)
            ev = _batch_values(eqs, Z)
            gv = _batch_values(gs, Z)
            s = sigma[rows]
            if ev.size:
                fv = fv + np.sum(rho[rows] * ev + 0.5 * s[:, None] * ev ** 2, axis=1)
            if gv.size:
                w = np.maximum(0.0, lam[rows] + s[:, None] * gv)
                fv = fv + np.sum(w ** 2 - lam[rows] ** 2, axis=1) / (2.0 * s)
            return fv

        def grad(rows, Z):
            out = np.stack([ex.evaluate(ex.diff(P.f, j), Z) for j in range(P.n)], axis=-1)
            ev = _batch_values(eqs, Z)
            gv = _batch_values(gs, Z)
            s = sigma[rows]
            for j, e in enumerate(eqs):
                out += (rho[rows][:, j] + s * ev[:, j])[:, None] * P.grad_batch(e, Z)
            for i, e in enumerate(gs):
                w = np.maximum(0.0, lam[rows][:, i] + s * gv[:, i])
                if np.any(w > 0.0):
                    out += w[:, None] * P.grad_batch(e, Z)
            return out

        X = _descent_batch(val, grad, X, cfg.max_inner, c=cfg.armijo_c,
                           gtol=0.1 * cfg.tau_kkt)
        ev = _batch_values(eqs, X)
        gv = _batch_values(gs, X)
        rho = rho + sigma[:, None] * ev
        lam = np.maximum(0.0, lam + sigma[:, None] * gv)

        kkt_vec = np.stack([ex.evaluate(ex.diff(P.f, j), X) for j in range(P.n)], axis=-1)
        for j, e in enumerate(eqs):
            kkt_vec += rho[:, j:j + 1] * P.grad_batch(e, X)
        for i, e in enumerate(gs):
            kkt_vec += lam[:, i:i + 1] * P.grad_batch(e, X)
        kkt = np.linalg.norm(kkt_vec, axis=1)
        res = br.residual(X)
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
    fvals = np.array([P.value(P.f, x) for x in X])
    order = sorted(range(len(X)),
                   key=lambda i: (status[i] != "feasible", fvals[i], i))
    best = order[0]
    return LocalSolution(
        x=X[best], value=float(fvals[best]), residual=float(res[best]),
        branch=br.label(), status=str(status[best]), iterations=outer,
        log=[f"kkt={kkt[best]:.2e}", f"starts={len(X)}"],
    )


def annotate_stationarity(P: MpscProblem, sol: LocalSolution, cfg: SolveConfig,
                          tol: Tolerances) -> LocalSolution:
    """Record first-order sanity data at a feasible solver iterate.

    Activity detection is relaxed to the KKT scale, since iterates sit
    within tau_kkt of the true active set, not within tau_act.
    """
    from . import stationarity as st
    from .cones import PointContext

    if sol.status != "feasible":
        return sol
    ctx = PointContext(P, sol.x, tol.with_(tau_act=max(tol.tau_act, 10.0 * cfg.tau_kkt)))
    try:
        w_res = st.w_stationarity_residual(ctx)
    except MpscError as err:
        sol.stationarity = {"error": str(err)}
        return sol
    sol.stationarity = {
        "W_residual": w_res,
        "W_within_10_tau_kkt": bool(w_res <= 10.0 * cfg.tau_kkt),
    }
    for kind, fn in (("W", st.check_w_stationary), ("M", st.check_m_stationary),
                     ("S", st.check_s_stationary)):
        try:
            sol.stationarity[kind] = fn(ctx).status
        except MpscError:
            sol.stationarity[kind] = "UNKNOWN"
    return sol


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

    def val(rows, Z, kappa_ref=None):
        return ex.evaluate(P.f, Z) + kappa * P.residual(Z)

    @np.errstate(over="ignore")  # an infinite trial point fails the Armijo test
    def grad(rows, Z):
        out = np.stack([ex.evaluate(ex.diff(P.f, j), Z) for j in range(P.n)], axis=-1)
        g, h, G, H = P.constraint_values(Z)
        r = np.sqrt(np.sum(np.maximum(g, 0.0) ** 2, axis=1) + np.sum(h ** 2, axis=1)
                    + np.sum(np.minimum(G ** 2, H ** 2), axis=1))
        active = r > 0.0
        if not np.any(active):
            return out
        dr = np.zeros_like(Z)
        for i, e in enumerate(P.g):
            col = np.maximum(g[:, i], 0.0)
            if np.any(col > 0.0):
                dr += col[:, None] * P.grad_batch(e, Z)
        for j, e in enumerate(P.h):
            dr += h[:, j:j + 1] * P.grad_batch(e, Z)
        for k, (Ge, He) in enumerate(P.switch_pairs):
            use_g = G[:, k] ** 2 <= H[:, k] ** 2  # tie -> G piece
            dG = P.grad_batch(Ge, Z)
            dH = P.grad_batch(He, Z)
            dr += np.where(use_g[:, None], G[:, k:k + 1] * dG, H[:, k:k + 1] * dH)
        safe = np.where(active, r, 1.0)
        out[active] += kappa * (dr[active] / safe[active, None])
        return out

    while kappa <= cfg.kappa_max:
        x = _descent_batch(val, grad, x, cfg.max_inner, c=cfg.armijo_c,
                           gtol=0.1 * cfg.tau_kkt)
        kappas.append(kappa)
        if float(P.residual(x[0])) <= tol.tau_feas * 10:
            break
        kappa *= cfg.penalty_growth
    else:
        return LocalSolution(x=x[0], value=float(P.value(P.f, x[0])),
                             residual=float(P.residual(x[0])), branch="penalty",
                             status="failure", log=[f"kappa_final={kappas[-1]:.1e}"])

    # polish on the branch matching the active pattern at the incumbent
    g, h, G, H = P.constraint_values(x[0])
    eq_G = tuple(k for k in range(P.l) if G[k] ** 2 <= H[k] ** 2)
    eq_H = tuple(k for k in range(P.l) if G[k] ** 2 > H[k] ** 2)
    from .problem import branch_from_assignment
    br = branch_from_assignment(P, eq_G, eq_H)
    X, kkt, res, status, outer = _alm_batch(P, br, x, cfg, tol)
    sol = LocalSolution(
        x=X[0], value=float(P.value(P.f, X[0])), residual=float(P.residual(X[0])),
        branch=br.label(), status=str(status[0]), iterations=len(kappas) + outer,
        log=[f"kappa_final={kappas[-1]:.1e}", f"kkt={kkt[0]:.2e}", "branch polish"],
    )
    if sol.residual > tol.tau_feas:
        sol.status = "infeasible-stall"
    return sol
