"""Exact penalty function, feasibility residual, and local error-bound probes.

The residual aggregates violations in the l2 sense, with each switching pair
contributing min{G^2, H^2}.  Distance to the feasible set is estimated through
the branch decomposition (each branch is a standard NLP).  The error-bound and
exact-penalty probes take a `cones.PointContext`, whose index sets gate them;
they are sampling heuristics over shrinking radii: their positive verdicts are
evidence, not proofs, and every report carries the seed and sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomainError
from .numeric import RADII_FRACTIONS, Tolerances, ball_offsets
from .problem import OBJECTIVE, MpscProblem, all_branches
from .solver import project_branch_cloud

HOLD_FACTOR = 4.0    # max ratio growth still considered bounded
FAIL_FACTOR = 16.0   # monotone growth beyond this is a failure witness
GROWTH_SLACK = 1e-2  # relative slack on the factor: distance estimates carry
                     # tolerance-tube error, and 1/t-type growth sits exactly
                     # at the 16x boundary over a 16x radius shrink
DIST_BATCH = 32      # directions projected besides the axes
MINIMALITY_RADIUS = 0.05  # exact-penalty probe: ball radius and sample count
N_MIN_SAMPLES = 1000


def residual(values) -> float:
    """sqrt(sum g+^2 + sum h^2 + sum min{G^2, H^2}) from the (g, h, G, H) values
    at a point; 0 exactly on F; an overflow raises EvalDomainError."""
    r = float(MpscProblem.residual_of(*values))
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


def ray_distances(ctx, D, ts, branches):
    """Distance upper bounds dist(ctx.x + t d, F) for each row d of D (rows) and
    each step t of ts (columns), from one `nearest_feasible` call over
    `branches`; inf where no projection ends feasible."""
    X = ctx.x + ts[:, None, None] * np.asarray(D)[None]
    dist, _ = nearest_feasible(ctx.P, X.reshape(-1, ctx.P.n), ctx.tol, branches)
    return dist.reshape(len(ts), -1).T


@dataclass
class ErrorBoundReport:
    verdict: str  # HOLDS | FAILS | UNKNOWN
    alpha_hat: float
    ratio_curve: list          # per radius: {radius, max_ratio, witness}
    n_samples: int
    seed: int
    note: str = ""
    witness_sequence: list | None = None  # FAILS: {radius, ratio, point} triple


def error_bound_probe(ctx) -> ErrorBoundReport:
    """Probe dist_F <= alpha * residual on shells of shrinking radius around ctx.x.

    The same direction set is reused at every radius so ratio growth is a
    per-direction scaling law; coordinate axes come first to keep canonical
    escape rays deterministic.  dist <= r bounds a ratio by r / residual:
    the DIST_BATCH directions with the largest bound at the smallest radius,
    and the axes, are projected at every radius in one `ray_distances` call
    onto every branch of P, as the radii can reach switch sides inactive at x.
    """
    P, x, tol = ctx.P, ctx.x, ctx.tol
    ctx.I  # the index sets gate feasibility
    rng = tol.rng("errorbound")
    D = np.vstack([np.eye(P.n), -np.eye(P.n),
                   rng.normal(size=(tol.n_samples, P.n))])
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    radii = tol.eps_ball * np.array(RADII_FRACTIONS)
    X = x + radii[:, None, None] * D[None]  # (radius, direction, n)
    res = P.residual(X.reshape(-1, P.n)).reshape(len(radii), -1).T
    infeas = res > tol.tau_feas

    small = np.flatnonzero(infeas[:, -1])
    block = small[np.argsort(-(radii[-1] / res[small, -1]))][:DIST_BATCH]
    # the union of block and the axis directions; np.union1d would import numpy.ma
    picked = np.array(sorted({*block.tolist(), *range(2 * P.n)}), dtype=int)
    dist = ray_distances(ctx, D[picked], radii, all_branches(P))
    ok = infeas[picked] & np.isfinite(dist)  # (direction, radius) with a ratio
    ratios = np.divide(dist, res[picked], out=np.full(dist.shape, np.nan), where=ok)

    # a radius with infeasible samples but no finite ratio reads None
    best = np.argmax(np.where(ok, ratios, -np.inf), axis=0)
    curve = [{"radius": float(r),
              "max_ratio": float(ratios[i, j]) if ok[i, j]
              else (None if infeas[:, j].any() else 0.0),
              "witness": X[j, picked[i]].tolist() if ok[i, j] else None}
             for j, (r, i) in enumerate(zip(radii, best))]
    alpha_hat = float(ratios[ok].max()) if ok.any() else 0.0

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
    r1, r2, r3 = ratios.T
    grows = ok.all(axis=1) & (r1 <= r2) & (r2 <= r3) \
        & (r3 >= FAIL_FACTOR * (1.0 - GROWTH_SLACK) * r1) & (r3 >= 0.25 * smallest)
    if grows.any():
        i = int(np.argmax(grows))
        witness = [{"radius": float(r), "ratio": float(ratios[i, j]),
                    "point": X[j, picked[i]].tolist()} for j, r in enumerate(radii)]
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


def exact_penalty_probe(ctx, eb: ErrorBoundReport) -> PenaltyReport:
    """Estimate the exact-penalty threshold and test local minimality of
    the penalized objective at ctx.x.

    kappa_bar_hat = alpha_hat * L_f_hat is only claimed when the error-bound
    probe's report `eb` HOLDS; the kappa grid is evaluated either way.  The
    Lipschitz estimate is the largest sampled gradient norm over the
    minimality ball (the radius is reported since the constant depends on it).
    """
    P, x, tol = ctx.P, ctx.x, ctx.tol
    ctx.I  # the index sets gate feasibility
    ball = x[None, :] + ball_offsets(tol.rng("lipschitz"), tol.n_samples, P.n,
                                     MINIMALITY_RADIUS)
    grads = P.jacobian(ball, [OBJECTIVE])[:, 0]
    L_f_hat = float(np.max(np.linalg.norm(grads, axis=1)))
    L_f_hat = max(L_f_hat, float(np.linalg.norm(ctx.grad("f"))))

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
