"""Exact penalty function, feasibility residual, and local error-bound probes.

The residual aggregates violations in the l2 sense, with each switching
pair contributing min{G^2, H^2}.  Distance to the feasible set is estimated
through the branch decomposition (each branch is a standard NLP).  The
error-bound and exact-penalty probes are sampling heuristics over shrinking
radii: their positive verdicts are evidence, not proofs, and every report
carries the seed and sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomainError, InfeasiblePointError
from .numeric import RADII_FRACTIONS, Tolerances, ball_offsets
from .problem import OBJECTIVE, MpscProblem, all_branches
from .solver import project_branch_cloud

HOLD_FACTOR = 4.0    # max ratio growth still considered bounded
FAIL_FACTOR = 16.0   # monotone growth beyond this is a failure witness
GROWTH_SLACK = 1e-2  # relative slack on the factor: distance estimates carry
                     # tolerance-tube error, and 1/t-type growth sits exactly
                     # at the 16x boundary over a 16x radius shrink
DIST_BATCH = 32      # distance evaluations per radius
MINIMALITY_RADIUS = 0.05  # exact-penalty probe: ball radius and sample count
N_MIN_SAMPLES = 1000


def residual(P: MpscProblem, x) -> float:
    """sqrt(sum g+^2 + sum h^2 + sum min{G^2, H^2}); 0 exactly on F; an
    overflow to a non-finite value raises EvalDomainError."""
    r = float(P.residual(np.asarray(x, float)))
    if not np.isfinite(r):
        raise EvalDomainError("constraint residual overflowed to a non-finite value")
    return r


def penalized_objective(P: MpscProblem, x, kappa: float) -> float:
    if not 0 < kappa < np.inf:
        raise ValueError("kappa must be finite and positive")
    x = np.asarray(x, float)
    return float(P.values(x, [OBJECTIVE])[0]) + kappa * float(P.residual(x))


def nearest_feasible(P, X, tol: Tolerances, branches):
    """Per-row distance upper bounds to F through the projection onto each
    of `branches`, and the projections; inf where none ends feasible.  The
    error-bound probe passes every branch of P, ACQ's distance ratios the
    branches at their point."""
    X = np.atleast_2d(np.asarray(X, float))
    best_d = np.full(X.shape[0], np.inf)
    best_y = np.full_like(X, np.nan)
    for br in branches:
        Y = project_branch_cloud(P, br, X, tol)
        ok = br.residual(Y) <= tol.tau_feas
        d = np.linalg.norm(Y - X, axis=1)
        take = ok & (d < best_d)
        best_d[take] = d[take]
        best_y[take] = Y[take]
    return best_d, best_y


@dataclass
class ErrorBoundReport:
    verdict: str  # HOLDS | FAILS | UNKNOWN
    alpha_hat: float
    ratio_curve: list          # per radius: {radius, max_ratio, witness}
    n_samples: int
    seed: int
    note: str = ""
    witness_sequence: list | None = None  # FAILS: {radius, ratio, point} triple


def error_bound_probe(P: MpscProblem, x, tol: Tolerances) -> ErrorBoundReport:
    """Probe dist_F <= alpha * residual on shells of shrinking radius.

    The same direction set is reused at every radius so ratio growth is a
    per-direction scaling law; coordinate axes come first to keep canonical
    escape rays deterministic.
    """
    x = np.asarray(x, float)
    if float(P.residual(x)) > tol.tau_feas:
        raise InfeasiblePointError("error-bound probe needs a feasible center")
    rng = tol.rng("errorbound")
    D = np.vstack([np.eye(P.n), -np.eye(P.n),
                   rng.normal(size=(tol.n_samples, P.n))])
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    n_axes = 2 * P.n

    curve = []
    alpha_hat = 0.0
    per_dir = {}  # direction index -> [(radius, ratio, point)]
    for frac in RADII_FRACTIONS:
        r = tol.eps_ball * frac
        X = x[None, :] + r * D
        res = P.residual(X)
        infeas = np.where(res > tol.tau_feas)[0]
        if infeas.size == 0:
            curve.append({"radius": r, "max_ratio": 0.0, "witness": None})
            continue
        # dist <= r bounds every ratio by r / residual; evaluate the top block
        # plus the deterministic axis probes
        order = infeas[np.argsort(-(r / res[infeas]))][:DIST_BATCH]
        picked = sorted(set(order.tolist()) | (set(range(n_axes)) & set(infeas.tolist())))
        dists, _ = nearest_feasible(P, X[picked], tol, all_branches(P))
        ratios = {}
        for di, dist in zip(picked, dists):
            if np.isfinite(dist):
                ratios[di] = dist / res[di]
                per_dir.setdefault(di, []).append((r, ratios[di], X[di].tolist()))
        if not ratios:
            curve.append({"radius": r, "max_ratio": None, "witness": None})
            continue
        widx = max(ratios, key=ratios.get)
        curve.append({"radius": r, "max_ratio": float(ratios[widx]),
                      "witness": X[widx].tolist()})
        alpha_hat = max(alpha_hat, float(ratios[widx]))

    maxima = [c["max_ratio"] for c in curve]
    if any(m is None for m in maxima):
        return ErrorBoundReport("UNKNOWN", alpha_hat, curve, tol.n_samples,
                                tol.seed, note="distance estimation incomplete")
    if all(m == 0.0 for m in maxima):
        return ErrorBoundReport("HOLDS", 0.0, curve, tol.n_samples, tol.seed,
                                note="no infeasible samples in the probe ball")

    # a single direction whose ratio grows monotonically past the factor and
    # ends among the dominant ratios is a failure witness sequence
    largest, mid, smallest = maxima
    for di, seq in sorted(per_dir.items()):
        if len(seq) != len(RADII_FRACTIONS):
            continue
        r1, r2, r3 = (s[1] for s in seq)
        if r1 <= r2 <= r3 and r3 >= FAIL_FACTOR * (1.0 - GROWTH_SLACK) * r1 \
                and r3 >= 0.25 * smallest:
            witness = [{"radius": s[0], "ratio": float(s[1]), "point": s[2]}
                       for s in seq]
            return ErrorBoundReport(
                "FAILS", alpha_hat, curve, tol.n_samples, tol.seed,
                note="ratio grows monotonically along a fixed direction",
                witness_sequence=witness)
    if smallest <= HOLD_FACTOR * largest:
        return ErrorBoundReport("HOLDS", alpha_hat, curve, tol.n_samples, tol.seed)
    return ErrorBoundReport("UNKNOWN", alpha_hat, curve, tol.n_samples, tol.seed)


@dataclass
class PenaltyReport:
    kappa_grid: list                 # per kappa: {kappa, local_min, witness}
    alpha_hat: float
    L_f_hat: float
    kappa_bar_hat: float | None      # None when the error bound did not HOLD
    error_bound: ErrorBoundReport
    minimality_radius: float
    n_min_samples: int
    seed: int
    notes: list = field(default_factory=list)


def _minimality_samples(P, x, radius, count, rng):
    """Ball samples plus deterministic axis rays at geometric radii."""
    ball = x[None, :] + ball_offsets(rng, count, P.n, radius)
    rays = []
    for j in range(P.n):
        for sgn in (1.0, -1.0):
            for k in range(13):
                step = np.zeros(P.n)
                step[j] = sgn * radius * 2.0 ** (-k)
                rays.append(x + step)
    return np.vstack([ball, np.array(rays)])


def exact_penalty_probe(P: MpscProblem, x, tol: Tolerances,
                        eb: ErrorBoundReport) -> PenaltyReport:
    """Estimate the exact-penalty threshold and test local minimality of
    the penalized objective at a feasible point.

    kappa_bar_hat = alpha_hat * L_f_hat is only claimed when the error-bound
    probe's report `eb` HOLDS; the kappa grid is evaluated either way.  The
    Lipschitz estimate is the largest sampled gradient norm over the
    minimality ball (the radius is reported since the constant depends on it).
    """
    x = np.asarray(x, float)
    if float(P.residual(x)) > tol.tau_feas:
        raise InfeasiblePointError("exact-penalty probe needs a feasible center")
    ball = x[None, :] + ball_offsets(tol.rng("lipschitz"), tol.n_samples, P.n,
                                     MINIMALITY_RADIUS)
    grads = P.jacobian(ball, [OBJECTIVE])[:, 0]
    L_f_hat = float(np.max(np.linalg.norm(grads, axis=1)))
    L_f_hat = max(L_f_hat, float(np.linalg.norm(P.jacobian(x, [OBJECTIVE])[0])))

    kappa_bar = eb.alpha_hat * L_f_hat
    notes = []
    if eb.verdict != "HOLDS":
        notes.append("error bound did not HOLD; kappa_bar_hat claim skipped")
    if kappa_bar <= 0.0:
        kappa_bar = 1.0
        notes.append("degenerate threshold estimate; grid uses kappa_bar = 1")

    base = float(P.values(x, [OBJECTIVE])[0])
    grid = []
    sample_rng = tol.rng("penaltymin")
    Y = _minimality_samples(P, x, MINIMALITY_RADIUS, N_MIN_SAMPLES, sample_rng)
    fvals = P.values(Y, [OBJECTIVE])[:, 0]
    resvals = P.residual(Y)
    for factor in (0.5, 1.0, 2.0, 4.0):
        kappa = factor * kappa_bar
        phi = fvals + kappa * resvals
        below = np.where(phi < base - tol.tau_feas)[0]
        grid.append({
            "kappa": kappa,
            "local_min": bool(below.size == 0),
            "witness": Y[below[int(np.argmin(phi[below]))]].tolist()
            if below.size else None,
        })
    return PenaltyReport(
        kappa_grid=grid, alpha_hat=eb.alpha_hat, L_f_hat=L_f_hat,
        kappa_bar_hat=kappa_bar if eb.verdict == "HOLDS" else None,
        error_bound=eb, minimality_radius=MINIMALITY_RADIUS,
        n_min_samples=N_MIN_SAMPLES, seed=tol.seed, notes=notes)
