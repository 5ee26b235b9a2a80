"""Desk-scale local solving over branch feasible sets.

Every loop descends through _descent_batch, an Armijo line search batched over
rows along the direction its objective callback returns.  The callback
evaluates the loop's items and the objective once per point; a gradient call,
asked only at the rows that moved, gets both (from the start or the accepted
trial) and returns them with the gradient and the direction from one kernel
call.  Every row stops on its own and no step reads another row, so a row's
result does not depend on its batch; when every row tries (or accepts) a step,
the descent works on whole arrays, without the gathers, scatters and masks a
mixed batch needs.  project_branch_cloud projects by quadratic penalty with
damped Gauss-Newton steps (in constraint space, one eigh_stack call per
iteration) at each stage, plus a Gauss-Newton polish with one stacked
least-squares solve per iteration over all live rows; both evaluate a
constraint gradient only at the rows that use it (_used_jacobian), so one that
a row discards is never computed and cannot fail the batch.  solve_branch runs
an augmented-Lagrangian loop over all starts, freezing each once it is done or
diverged, whose inner steps are Newton steps on the exact Hessian of the
augmented Lagrangian (one derivatives call per gradient over every row, the
one exception to that rule, as per-item calls measured slower, then one
eigh_stack call flooring the eigenvalues to keep it positive definite), its
multipliers sliced once per descent; both take steps that start at 1 and never
exceed it.  solve_penalty_descent minimizes f + kappa * residual along the
gradient (the residual is a nonsmooth square root), then polishes on its
incumbent's branch; the item values its descent returns at the incumbent give
its residual and branch.  The enumerative solver keeps the best feasible branch
over every switch sign assignment, which is exact on the union structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomainError
from .numeric import Tolerances, eigh_stack, lstsq_stack
from .problem import OBJECTIVE, BranchProblem, MpscProblem, all_branches


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
    values f and V; a gradient call objective(rows, Z, V, f, grad=True) gets
    cached V and f (None: evaluate V, compute f from V) and returns f and V, as
    given if given, the gradients g and search directions d (d is g for steepest
    descent), fixed within one call: after the start only rows that accepted a
    step and go on are asked again (in one call when all did), with the V and
    f of that trial.  A trial point is Z - t * d, accepted on sufficient
    decrease along <g, d>; t starts at 1, halves on rejection and doubles on
    acceptance up to t_max.  So f is computed once per point, and the items
    are evaluated at the start, unless the caller passes their values V at Y,
    then only at trial points.  Each row stops on its own, so it comes out the
    same in any batch: when its slope <g, d> is not above gtol^2 (or is NaN),
    when all 30 halvings of a step are rejected, or after three steps in a row
    that each lower its f by at most 1e-14 * (1 + |f|).
    """
    Y = np.array(Y, float)
    N = Y.shape[0]
    rows_all = moved = np.arange(N)
    t, f = np.ones(N), None
    on = np.ones(N, bool)  # rows still descending
    flat = np.zeros(N, int)  # each row's run of steps with a negligible decrease
    for _ in range(iters):
        if moved.size == N:  # the start, or every row accepted: one full-batch call
            f, V, g, d = objective(rows_all, Y, V, f, grad=True)
        elif moved.size:  # an unmoved row keeps its exact f, g and d
            g[moved], d[moved] = objective(moved, Y[moved], V[moved], f[moved], grad=True)[2:]
        slope = (g * d).sum(axis=1)  # |g|^2 for steepest descent; NaN: no trial
        on &= slope > max(gtol * gtol, 1e-26)
        rows = on.nonzero()[0]  # (cheaper than any / all on a few rows)
        if not rows.size:
            break
        accept, need, every = on, on, rows.size == N
        for halving in range(31):  # the trial at t, then up to 30 halvings of it
            if halving:  # a row outside need keeps its t, so its trial
                np.multiply(t, 0.5, out=t, where=need)
            trial = Y - t[:, None] * d
            if rows.size == N:  # every row tries: whole arrays, no gather or scatter
                ft, Vt = objective(rows_all, trial)
            else:  # fresh buffers at the first trial: f and V may be the last ones
                ft, Vt = (np.empty(N), np.empty_like(V)) if not halving else (ft, Vt)
                ft[rows], Vt[rows] = objective(rows, trial[rows])
            need = need & (ft > f - ARMIJO_C * t * slope)
            rows = need.nonzero()[0]
            if not rows.size:
                break
        else:  # a row whose 30 halvings all failed stops
            accept, every = on & ~need, False
        flat = (flat + 1) * (f - ft <= 1e-14 * (1.0 + abs(f)))
        on = accept & (flat < 3)
        moved = on.nonzero()[0]
        if every:  # every row takes its trial, f and V with it
            Y, V, f, t = trial, Vt, ft, np.minimum(t * 2.0, t_max)
            continue
        np.copyto(Y, trial, where=accept[:, None])
        # after the last use of f, which may view V: both take the accepted trial's
        np.copyto(V, Vt, where=accept[:, None])
        np.copyto(f, ft, where=accept)
        np.minimum(t * 2.0, t_max, out=t, where=accept)
    return Y, V


# ---------------------------------------------------------------------------
# branch helpers
# ---------------------------------------------------------------------------

def _floored_newton(H, g):
    """Row-wise Newton directions on H with each eigenvalue lam replaced by
    max(|lam|, 1e-8 * (1 + max |lam|)), one eigh_stack call over every row of
    H, which is overwritten: a row whose H or g is not finite is the identity
    there, and it or a row with a non-finite direction gets NaN (no trial)."""
    bad = False  # row masks only once a test over the whole stack fails
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        bad = ~(np.isfinite(H).all(axis=(1, 2)) & np.isfinite(g).all(axis=1))
        H[bad] = np.eye(H.shape[-1])
    lam, Q = eigh_stack(H)
    lam = np.abs(lam)
    lam = np.maximum(lam, 1e-8 * (1.0 + lam.max(axis=1, keepdims=True)))
    d = (Q @ ((g[:, None, :] @ Q)[:, 0] / lam)[:, :, None])[:, :, 0]
    if bad is not False or not np.isfinite(d).all():
        d[bad | ~np.isfinite(d).all(axis=1)] = np.nan
    return d


def _gauss_newton_step(Ju, b, c, sigma):
    """Row-wise minimizers of |d - b|^2 + sigma |Ju d - c|^2, d = b - Ju^T M^-1 (Ju b - c)
    with M = I / sigma + Ju Ju^T (Sherman-Morrison-Woodbury), from one eigh_stack of
    Ju Ju^T, its eigenvalues clipped at 0 (exactly, they are >= 0) so M is never singular;
    NaN (no trial) where Ju Ju^T (past |Ju| ~ 1e154) or d is not finite.  The part of
    Ju b - c on eigenvalues at most K eps max(lambda) (K rows) is dropped: Ju^T maps it
    to 0 exactly, but weighted up to sigma it would carry the eigenvectors' rounding."""
    JJ = Ju @ Ju.transpose(0, 2, 1)
    ok = np.isfinite(JJ).all(axis=(1, 2))
    A, (lam, Q) = Ju[ok], eigh_stack(JJ[ok])
    u = (((A @ b[ok, :, None])[:, :, 0] - c[ok])[:, None, :] @ Q)[:, 0]
    u[lam <= Ju.shape[1] * np.finfo(float).eps * lam.max(axis=1, keepdims=True, initial=0.0)] = 0.0
    u = Q @ (u / (np.maximum(lam, 0.0) + 1.0 / sigma))[:, :, None]
    d = np.full(b.shape, np.nan)
    d[ok] = b[ok] - (A.transpose(0, 2, 1) @ u)[:, :, 0]
    d[~np.isfinite(d).all(axis=1)] = np.nan
    return d


def _gate(W, lists, build):
    """The item list build(keep) for the columns keep of W with a positive
    entry, built once per keep pattern and kept in lists, and those columns."""
    keep = (W > 0.0).any(axis=0)
    key = keep.tobytes()
    return lists.get(key) or lists.setdefault(key, build(keep)), W[:, keep]


def _add_gradients(out, J, W):
    """out += W[:, c] * J[:, c] over the columns c of W, in order, the products
    from one broadcast multiply."""
    for p in (W[:, :, None] * J[:, :W.shape[1]]).transpose(1, 0, 2):
        out += p
    return out


def _used_jacobian(P: MpscProblem, Z, items, used):
    """Gradient rows of items at the rows of Z, (N, len(items), n): item j only at
    the rows r where used[r, j] holds, one call per item, a zero row elsewhere."""
    J = np.zeros(used.shape + (P.n,))
    for j, (it, rows) in enumerate(zip(items, used.T)):
        if rows.any():
            J[rows, j] = P.jacobian(Z[rows], [it])[:, 0]
    return J


def _gauss_newton_polish(br: BranchProblem, X, tol: Tolerances):
    """Newton steps on the violated constraint system to sharpen feasibility.

    Values at the live rows, and each gradient only at the live rows that use it
    (every equality, an inequality only where violated), are evaluated in batches;
    the least-squares steps of all live rows are solved in one stack per iteration,
    over every equality then every inequality, an unused one a zero row with value 0,
    so a row's step does not depend on the other rows; a non-finite step is skipped.
    """
    P = br.problem
    cons = br.equalities() + [("g", i) for i in range(P.m)]
    is_eq = np.arange(len(cons)) < len(cons) - P.m
    X = np.array(X, float)
    for _ in range(POLISH_ITERS):
        V = P.values(X, cons)
        live = np.where(br.residual_of(V) > max(tol.tau_feas * 1e-6, 1e-15))[0]
        if live.size == 0:
            break
        use = is_eq | (V[live] > 0.0)
        step = lstsq_stack(_used_jacobian(P, X[live], cons, use), np.where(use, V[live], 0.0))
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
    items = [("g", i) for i in range(P.m)] + br.equalities()
    is_eq = np.arange(len(items)) >= P.m
    X0 = np.atleast_2d(np.asarray(X0, float))
    Y = X0.copy()

    def objective(rows, Z, V=None, f=None, grad=False):  # at the current stage's sigma
        V = P.values(Z, items) if V is None else V
        c = np.where(is_eq, V, np.maximum(V, 0.0))
        f = ((Z - X0[rows]) ** 2).sum(axis=1) + sigma * (c ** 2).sum(axis=1) if f is None else f
        if not grad:
            return f, V
        # Gauss-Newton, in constraint space, over every equality and each violated inequality,
        # each gradient only at the rows that use it: a zero row elsewhere keeps Ju's width fixed
        used = is_eq | (c > 0.0)
        Ju = _used_jacobian(P, Z, items, used)
        g = _add_gradients(2.0 * (Z - X0[rows]), Ju, 2.0 * sigma * c)
        return f, V, g, _gauss_newton_step(Ju, Z - X0[rows], c, sigma)

    V = None  # items at Y, independent of sigma: each stage starts from the last's
    for sigma in SIGMA_SCHEDULE:
        Y, V = _descent_batch(objective, Y, PENALTY_STEPS, V=V, t_max=1.0)
    return _gauss_newton_polish(br, Y, tol)


# ---------------------------------------------------------------------------
# augmented-Lagrangian branch solver (batched over starts)
# ---------------------------------------------------------------------------

def _alm_batch(P: MpscProblem, br: BranchProblem, X0, tol: Tolerances):
    """Run the ALM loop on every start row; returns (X, kkt, res, status, outer steps run)."""
    gs, eqs = [("g", i) for i in range(P.m)], br.equalities()
    items, ne, lists = [OBJECTIVE] + eqs + gs, len(eqs), {}
    X = np.atleast_2d(np.asarray(X0, float)).copy()
    N = X.shape[0]
    mult, V = np.zeros((N, ne + len(gs))), np.empty((N, len(items)))
    rho, lam = mult[:, :ne], mult[:, ne:]  # views: the multipliers in item order
    sigma, prev_res, kkt = np.full(N, 10.0), np.full(N, np.inf), np.full(N, np.inf)
    act = np.arange(N)  # the rows neither done nor diverged; the others are frozen

    def objective(rows, Z, V=None, f=None, grad=False):  # at this descent's constants
        V = P.values(Z, items) if V is None else V
        ev, gv = V[:, 1:1 + ne], V[:, 1 + ne:]
        s, s_half, s_twice, r, lm, lm_sq = (
            consts if rows.size == consts[0].size else [a[rows] for a in consts])
        w = np.maximum(0.0, lm + s * gv)
        if f is None:
            f = V[:, 0]
            if ne:
                f = f + (r * ev + s_half * ev ** 2).sum(axis=1)
            if gs:
                f = f + (w ** 2 - lm_sq).sum(axis=1) / s_twice
        if not grad:
            return f, V
        if not np.isfinite(f).all():  # no Armijo step starts where the merit
            # overflows (a start far out, as 1e200): a numeric breakdown
            raise EvalDomainError("evaluation point must be finite")
        gated, W = _gate(w, lists, lambda keep: [OBJECTIVE] + eqs + [
            it for it, k in zip(gs, keep) if k])
        J, Hs = P.derivatives(Z, gated)
        # Newton: the exact Hessian of the augmented Lagrangian, the f, e and
        # gated g Hessians weighted 1, c and w plus s * grad u grad u^T over
        # every equality and each inequality with w > 0
        weights = np.empty((len(Z), len(gated)))  # 1, c = r + s e, W
        weights[:, 0], weights[:, 1:1 + ne], weights[:, 1 + ne:] = 1.0, r + s * ev, W
        g = _add_gradients(J[:, 0], J[:, 1:], weights[:, 1:])
        Ju = J[:, 1:].copy()
        Ju[:, ne:] *= W[:, :, None] > 0.0
        H = np.einsum("rk,rkij->rij", weights, Hs) + s[:, :, None] * (
            Ju.transpose(0, 2, 1) @ Ju)
        return f, V, g, _floored_newton(H, g)

    for outer_used in range(1, MAX_OUTER + 1):
        # the items at X do not depend on sigma, rho or lam: after the first
        # descent each starts from the values the last returned
        first = outer_used == 1
        s, lm = sigma[act, None], lam[act]
        consts = (s, 0.5 * s, 2.0 * s[:, 0], rho[act], lm, lm ** 2)  # fixed in one descent
        Xa, Va = _descent_batch(objective, X[act], MAX_INNER, gtol=0.1 * TAU_KKT,
                                V=None if first else V[act], t_max=1.0)
        moved = np.full(act.size, np.inf) if first else np.linalg.norm(Xa - X[act], axis=1)
        X[act], V[act] = Xa, Va
        res = br.residual_of(Va[:, 1:])  # eqs + gs at X[act]
        rho[act] += s * Va[:, 1:1 + ne]
        lam[act] = np.maximum(0.0, lm + s * Va[:, 1 + ne:])

        J = P.jacobian(Xa, items)
        kkt[act] = np.linalg.norm(_add_gradients(J[:, 0], J[:, 1:], mult[act]), axis=1)
        # a stalled iterate on the feasible set is accepted even without a
        # small KKT residual (branch minimizers need not be KKT points)
        size = np.linalg.norm(Xa, axis=1)
        done = ((kkt[act] <= TAU_KKT) | (moved <= 1e-9 * (1.0 + size))) & (res <= tol.tau_feas)
        keep = ~done & (size <= 1e8)
        act, res = act[keep], res[keep]
        if act.size == 0:
            break
        grow = act[res > 0.25 * prev_res[act]]
        sigma[grow] = np.minimum(sigma[grow] * PENALTY_GROWTH, 1e12)
        prev_res[act] = np.minimum(prev_res[act], res)

    X = _gauss_newton_polish(br, X, tol)
    res = br.residual(X)
    status = np.where(res <= tol.tau_feas, "feasible", "infeasible-stall")
    status[np.linalg.norm(X, axis=1) > 1e8] = "diverged"
    return X, kkt, res, status, outer_used


def solve_branch(P: MpscProblem, br: BranchProblem, x0,
                 tol: Tolerances) -> LocalSolution:
    """Best local solution of the branch NLP over multistart."""
    x0 = np.asarray(x0, float)
    rng = tol.rng("solve", br.label())
    starts = np.vstack([x0[None, :], lhs_starts(rng, LHS_STARTS, x0, START_BOX)])
    X, kkt, res, status, outer = _alm_batch(P, br, starts, tol)
    fvals = P.values(X, [OBJECTIVE])[:, 0]
    best = min(range(len(X)), key=lambda i: (status[i] != "feasible", fvals[i], i))
    return LocalSolution(
        x=X[best], value=float(fvals[best]), residual=float(res[best]),
        branch=br.label(), status=str(status[best]), iterations=outer,
        log=[f"kkt={kkt[best]:.2e}", f"starts={len(X)}"])


def solve_enumerative(P: MpscProblem, x0, tol: Tolerances) -> LocalSolution:
    """Best-of-branches over every switch sign assignment (2^l solves)."""
    best, table = None, []
    for br in all_branches(P):
        sol = solve_branch(P, br, x0, tol)
        table.append((br.label(), sol.status, sol.value))
        if sol.status == "feasible" and (best is None or sol.value < best.value - 1e-12):
            best = sol
    if best is None:
        return LocalSolution(x=np.asarray(x0, float), value=np.nan, residual=np.inf, branch="none",
                             status="failure", log=[f"{lab}: {st}" for lab, st, _ in table])
    best.log += [f"{lab}: {st} value={val:.6g}" if np.isfinite(val) else f"{lab}: {st}"
                 for lab, st, val in table]
    return best


def solve_penalty_descent(P: MpscProblem, x0, tol: Tolerances) -> LocalSolution:
    """Minimize f + kappa * residual with a growing penalty parameter.

    The min{G^2, H^2} term is differentiated through its active smooth
    piece; exact ties take the G side.
    """
    x = np.atleast_2d(np.asarray(x0, float)).copy()
    kappa, kappas, V, lists = KAPPA0, [], None, {}
    gs, hs = [("g", i) for i in range(P.m)], [("h", j) for j in range(P.p)]
    pairs = [it for k in range(P.l) for it in (("G", k), ("H", k))]
    ends = np.cumsum([0, 1, P.m, P.p, P.l, P.l])
    cols = [slice(a, b) for a, b in zip(ends, ends[1:])]  # V's columns: f, g, h, G, H

    def objective(rows, Z, V=None, f=None, grad=False):  # at the current kappa
        V = P.values(Z, P.items) if V is None else V  # f first: the first error
        _, g, h, G, H = (V[:, c] for c in cols)
        r = MpscProblem.residual_of(g, h, G, H)
        f = V[:, 0] + kappa * r if f is None else f
        if not grad:
            return f, V
        active = r > 0.0
        if not active.any():
            out = P.jacobian(Z, [OBJECTIVE])[:, 0]
            return f, V, out, out
        gated, W = _gate(np.maximum(g, 0.0), lists, lambda keep: [OBJECTIVE] + [
            it for it, k in zip(gs, keep) if k] + hs + pairs)
        J = P.jacobian(Z, gated)
        out, dGH = J[:, 0], J[:, len(gated) - 2 * P.l:]
        dr = _add_gradients(np.zeros_like(Z), J[:, 1:], np.concatenate([W, h], axis=1))
        for k in range(P.l):
            use_g = G[:, k] ** 2 <= H[:, k] ** 2  # tie -> G piece
            dr += np.where(use_g[:, None], G[:, k:k + 1] * dGH[:, 2 * k],
                           H[:, k:k + 1] * dGH[:, 2 * k + 1])
        safe = np.where(active, r, 1.0)
        out[active] += kappa * (dr[active] / safe[active, None])
        return f, V, out, out

    while kappa <= KAPPA_MAX:  # the descent returns the items' values V at x
        x, V = _descent_batch(objective, x, MAX_INNER, gtol=0.1 * TAU_KKT, V=V)
        kappas.append(kappa)
        f, g, h, G, H = (V[0, c] for c in cols)
        r = float(MpscProblem.residual_of(g, h, G, H))
        if r <= tol.tau_feas * 10:
            break
        kappa *= PENALTY_GROWTH
    else:
        return LocalSolution(x=x[0], value=float(f[0]), residual=r, branch="penalty",
                             status="failure", log=[f"kappa_final={kappas[-1]:.1e}"])

    # polish on the branch matching the active pattern at the incumbent
    br = BranchProblem(P, tuple(k for k in range(P.l) if G[k] ** 2 <= H[k] ** 2))
    X, kkt, res, status, outer = _alm_batch(P, br, x, tol)
    V = P.values(X[0], P.items)  # f first: the first error
    f, g, h, G, H = (V[c] for c in cols)
    sol = LocalSolution(
        x=X[0], value=float(f[0]), residual=float(MpscProblem.residual_of(g, h, G, H)),
        branch=br.label(), status=str(status[0]), iterations=len(kappas) + outer,
        log=[f"kappa_final={kappas[-1]:.1e}", f"kkt={kkt[0]:.2e}", "branch polish"])
    if sol.residual > tol.tau_feas:
        sol.status = "infeasible-stall"
    return sol
