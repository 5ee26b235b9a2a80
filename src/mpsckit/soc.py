"""Second-order necessary conditions at an S-stationary point.

Both conditions ask whether d^T hess_L(mult) d >= 0 on a cone, and both go
through one routine, `quadform_min_over_cone`, one cone piece at a time:
exact on a subspace piece by a projected eigensolve, sampled via conic
combinations of generators elsewhere.  The strong condition's cone is the
critical cone, piece by piece; the weak condition is the one-piece case of
the critical subspace.  Both sweep the full S-multiplier polyhedron through
its generators: the quadratic form is affine in the multiplier, so
nonnegativity at the vertices plus nonnegativity of the constraint-Hessian
part along recession rays covers every multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ConePiece, PointContext
from .errors import NotSStationaryError, SizeCapError
from .numeric import Tolerances, eig_sym
from .stationarity import (Multipliers, check_s_stationary, expand_multiplier,
                           lagrangian_hessian, s_multiplier_polyhedron)

HOLDS, FAILS, UNKNOWN = "HOLDS", "FAILS", "UNKNOWN"

MULTIPLIER_ARGUMENT = (
    "d^T hess_L(mult) d is affine in the multiplier, so nonnegativity at "
    "every polyhedron vertex plus nonnegativity of the constraint-Hessian "
    "part along every recession ray extends to all multipliers")


@dataclass
class SocVerdict:
    kind: str  # SSONC | WSONC
    status: str
    mode: str = "exact"
    witness: dict | None = None  # multiplier, direction, value
    evidence: dict = field(default_factory=dict)

    def holds(self):
        return self.status == HOLDS


@dataclass
class QuadFormResult:
    value: float | None          # min of d^T Q d over unit directions (None: empty)
    direction: np.ndarray | None
    admitted: int
    exact: bool
    method: str                  # subspace_eig | generator_sweep | vacuous


def quadform_min_over_cone(Q, piece: ConePiece, tol: Tolerances,
                           rng=None) -> QuadFormResult:
    """Estimate min d^T Q d over unit directions of a polyhedral cone piece.

    Vacuous (value None) on the origin; exact when the piece is a subspace
    (projected eigensolve); otherwise the minimum over generators, pairwise
    generator midpoints, random conic combinations and membership-filtered
    sphere samples.  The returned value is attained by a concrete feasible
    direction, hence an upper bound on the true minimum.
    """
    Q = np.asarray(Q, float)
    n = Q.shape[0]
    rng = rng or tol.rng("quadform")

    if piece.is_origin(tol):
        return QuadFormResult(None, None, 0, True, "vacuous")
    if piece.is_subspace(tol):
        lin = piece.lineality_basis(tol)
        w, V = eig_sym(lin.T @ Q @ lin)
        d = lin @ V[:, 0]
        return QuadFormResult(float(w[0]), d / np.linalg.norm(d),
                              admitted=tol.n_samples, exact=True, method="subspace_eig")

    rays = [r / np.linalg.norm(r) for r in piece.generators(tol).all_rays()]
    dirs = list(rays)
    for a in range(len(rays)):
        for b in range(a + 1, len(rays)):
            mid = rays[a] + rays[b]
            nrm = np.linalg.norm(mid)
            if nrm > 1e-9:
                dirs.append(mid / nrm)
    # random conic combinations stay inside the piece by construction
    coeffs = rng.exponential(size=(tol.n_samples, len(rays)))
    combo = coeffs @ np.array(rays)
    nrm = np.linalg.norm(combo, axis=1)
    good = nrm > 1e-12
    dirs.extend(combo[good] / nrm[good, None])
    # membership-filtered sphere samples catch anything the generators miss
    sphere = rng.normal(size=(tol.n_samples, n))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    slack = tol.tau_feas * 2.0
    dirs.extend(sphere[piece.contains(sphere, slack)])

    D = np.array(dirs)
    vals = np.einsum("ij,jk,ik->i", D, Q, D)
    best = int(np.argmin(vals))
    return QuadFormResult(float(vals[best]), D[best], admitted=len(dirs),
                          exact=False, method="generator_sweep")


def _multiplier_sweep(ctx):
    """(multiplier, is_ray) over the vertices, then the (both-signed) rays,
    of the S-multiplier polyhedron, enumerated once per context for both
    second-order checks."""
    def expand():
        _, labels, gen = s_multiplier_polyhedron(ctx)
        return ([(expand_multiplier(ctx.P, labels, v), False) for v in gen.vertices]
                + [(expand_multiplier(ctx.P, labels, r), True) for r in gen.all_rays()])
    return ctx.once("S-multipliers", expand)


def _gate_s_stationary(ctx):
    if not check_s_stationary(ctx).holds():
        raise NotSStationaryError("second-order conditions presuppose an "
                                  "S-stationary point")


def _ray_witness_multiplier(ctx, vertex: Multipliers, ray: Multipliers,
                            d) -> tuple[Multipliers, float]:
    """Scale vertex + t * ray so the quadratic form at d is decisively negative."""
    qv = float(d @ lagrangian_hessian(ctx, vertex) @ d)
    qr = float(d @ lagrangian_hessian(ctx, ray, include_objective=False) @ d)
    t = (abs(qv) + 1.0) / max(-qr, 1e-12)
    lam_v, rho_v, mu_v, nu_v = vertex.as_arrays()
    lam_r, rho_r, mu_r, nu_r = ray.as_arrays()
    mult = Multipliers(tuple(lam_v + t * lam_r), tuple(rho_v + t * rho_r),
                       tuple(mu_v + t * mu_r), tuple(nu_v + t * nu_r))
    return mult, float(d @ lagrangian_hessian(ctx, mult) @ d)


def _sonc(ctx: PointContext, kind: str, pieces) -> SocVerdict:
    """d^T hess_L(mult) d >= 0 on every piece for every S-multiplier, one
    `quadform_min_over_cone` per (multiplier, piece); a cone whose every
    piece is the origin holds before any multiplier is enumerated."""
    tol = ctx.tol
    live = [(pi, piece) for pi, piece in enumerate(pieces) if not piece.is_origin(tol)]
    if not live:
        return SocVerdict(kind, HOLDS, "exact",
                          evidence={"pieces": len(pieces), "note": "the cone is the origin"})
    try:
        sweep = _multiplier_sweep(ctx)
    except SizeCapError as err:
        return SocVerdict(kind, UNKNOWN, "sampled", evidence={"note": str(err)})

    all_exact = True
    low_coverage = []
    piece_tags = []
    for gi, (mult, is_ray) in enumerate(sweep):
        Q = lagrangian_hessian(ctx, mult, include_objective=not is_ray)
        for pi, piece in live:
            qf = quadform_min_over_cone(Q, piece, tol, rng=tol.rng("ssonc", gi, pi))
            all_exact &= qf.exact
            piece_tags.append({"piece": pi, "generator": gi, "method": qf.method,
                               "admitted": qf.admitted})
            if qf.value < -tol.tau_psd:
                d = qf.direction
                evidence = {"piece": pi, "method": qf.method}
                if is_ray:
                    mult, value = _ray_witness_multiplier(ctx, sweep[0][0], mult, d)
                    evidence["via_recession_ray"] = True
                else:
                    value = qf.value
                assert piece.contains(d, tol.tau_feas * 2.0)
                return SocVerdict(kind, FAILS, "exact" if qf.exact else "sampled",
                                  witness={"multiplier": mult, "direction": d,
                                           "value": value},
                                  evidence=evidence)
            if not qf.exact and qf.admitted < 32:
                low_coverage.append(pi)
    if low_coverage:
        return SocVerdict(kind, UNKNOWN, "sampled",
                          evidence={"low_coverage_pieces": sorted(set(low_coverage))})
    return SocVerdict(kind, HOLDS, "exact" if all_exact else "sampled",
                      evidence={"pieces": len(pieces),
                                "sweeps": piece_tags,
                                "multiplier_argument": MULTIPLIER_ARGUMENT,
                                "seed": tol.seed})


def check_wsonc(ctx: PointContext) -> SocVerdict:
    """Quadratic-form nonnegativity on the critical subspace (exact)."""
    _gate_s_stationary(ctx)
    piece = ctx.critical_subspace
    v = _sonc(ctx, "WSONC", [piece])
    v.evidence["subspace_dim"] = piece.lineality_basis(ctx.tol).shape[1]
    return v


def check_ssonc(ctx: PointContext) -> SocVerdict:
    """Quadratic-form nonnegativity over the critical cone, multiplier-swept."""
    _gate_s_stationary(ctx)
    return _sonc(ctx, "SSONC", ctx.critical.pieces)
