"""Second-order necessary conditions at an S-stationary point.

The weak condition lives on the critical subspace, where a projected
eigensolve decides it exactly.  The strong condition quantifies over the
critical cone, handled piecewise: exact on lineality spaces, sampled via
conic combinations of generators elsewhere.  Both sweep the full
S-multiplier polyhedron through its generators: the quadratic form is
affine in the multiplier, so nonnegativity at the vertices plus
nonnegativity of the constraint-Hessian part along recession rays covers
every multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cones as cn
from .cones import PointContext
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

    def to_json(self):
        w = None
        if self.witness:
            w = {"multiplier": self.witness["multiplier"].to_json(),
                 "direction": [float(v) for v in self.witness["direction"]],
                 "value": float(self.witness["value"])}
        return {"kind": self.kind, "status": self.status, "mode": self.mode,
                "witness": w, "evidence": self.evidence}


@dataclass
class QuadFormResult:
    value: float | None          # min of d^T Q d over unit directions (None: empty)
    direction: np.ndarray | None
    admitted: int
    exact: bool
    method: str                  # subspace_eig | generator_sweep | vacuous


def quadform_min_over_cone(Q, piece: cn.ConePiece, tol: Tolerances,
                           rng=None, n_samples=None) -> QuadFormResult:
    """Estimate min d^T Q d over unit directions of a polyhedral cone piece.

    Exact when the piece is a subspace (projected eigensolve); otherwise the
    minimum over generators, pairwise generator midpoints, random conic
    combinations and membership-filtered sphere samples.  The returned value
    is attained by a concrete feasible direction, hence an upper bound on
    the true minimum.
    """
    Q = np.asarray(Q, float)
    n = Q.shape[0]
    n_samples = n_samples or tol.n_samples
    rng = rng or tol.rng("quadform")

    lin = piece.lineality_basis(tol)
    if piece.is_subspace(tol):
        if lin.shape[1] == 0:
            return QuadFormResult(None, None, 0, True, "vacuous")
        w, V = eig_sym(lin.T @ Q @ lin)
        d = lin @ V[:, 0]
        return QuadFormResult(float(w[0]), d / np.linalg.norm(d),
                              admitted=n_samples, exact=True, method="subspace_eig")

    gens = piece.generators(tol)
    rays = [r / np.linalg.norm(r) for r in gens.all_rays()]
    if not rays:
        return QuadFormResult(None, None, 0, True, "vacuous")

    dirs = list(rays)
    for a in range(len(rays)):
        for b in range(a + 1, len(rays)):
            mid = rays[a] + rays[b]
            nrm = np.linalg.norm(mid)
            if nrm > 1e-9:
                dirs.append(mid / nrm)
    # random conic combinations stay inside the piece by construction
    coeffs = rng.exponential(size=(n_samples, len(rays)))
    combo = coeffs @ np.array(rays)
    nrm = np.linalg.norm(combo, axis=1)
    good = nrm > 1e-12
    dirs.extend(combo[good] / nrm[good, None])
    # membership-filtered sphere samples catch anything the generators miss
    sphere = rng.normal(size=(n_samples, n))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    slack = tol.tau_feas * 2.0
    dirs.extend(d for d in sphere if piece.contains(d, slack))

    D = np.array(dirs)
    vals = np.einsum("ij,jk,ik->i", D, Q, D)
    best = int(np.argmin(vals))
    return QuadFormResult(float(vals[best]), D[best], admitted=len(dirs),
                          exact=False, method="generator_sweep")


def _multiplier_generators(ctx):
    """Vertices and (both-signed) rays of the S-multiplier polyhedron."""
    _, labels, gen = s_multiplier_polyhedron(ctx)
    vertices = [expand_multiplier(ctx.P, labels, v) for v in gen.vertices]
    rays = [expand_multiplier(ctx.P, labels, r) for r in gen.all_rays()]
    return vertices, rays


def _gate_s_stationary(ctx) -> Multipliers:
    v = check_s_stationary(ctx)
    if not v.holds():
        raise NotSStationaryError("second-order conditions presuppose an "
                                  "S-stationary point")
    return v.witness


def _ray_witness_multiplier(ctx, vertex: Multipliers, ray: Multipliers,
                            d) -> tuple[Multipliers, float]:
    """Scale vertex + t * ray so the quadratic form at d is decisively negative."""
    P, x = ctx.P, ctx.x
    qv = float(d @ lagrangian_hessian(P, x, vertex) @ d)
    qr = float(d @ lagrangian_hessian(P, x, ray, include_objective=False) @ d)
    t = (abs(qv) + 1.0) / max(-qr, 1e-12)
    lam_v, rho_v, mu_v, nu_v = vertex.as_arrays()
    lam_r, rho_r, mu_r, nu_r = ray.as_arrays()
    mult = Multipliers(tuple(lam_v + t * lam_r), tuple(rho_v + t * rho_r),
                       tuple(mu_v + t * mu_r), tuple(nu_v + t * nu_r))
    return mult, float(d @ lagrangian_hessian(P, x, mult) @ d)


def check_wsonc(ctx: PointContext) -> SocVerdict:
    """Projected-Hessian nonnegativity on the critical subspace (exact)."""
    P, x, tol = ctx.P, ctx.x, ctx.tol
    _gate_s_stationary(ctx)
    B = cn.critical_subspace(ctx)
    if B.shape[1] == 0:
        return SocVerdict("WSONC", HOLDS, "exact",
                          evidence={"subspace_dim": 0, "note": "vacuous"})
    try:
        vertices, rays = _multiplier_generators(ctx)
    except SizeCapError as err:
        return SocVerdict("WSONC", UNKNOWN, "exact",
                          evidence={"note": str(err)})
    checked = 0
    for mult in vertices:
        Q = lagrangian_hessian(P, x, mult)
        w, V = eig_sym(B.T @ Q @ B)
        checked += 1
        if w[0] < -tol.tau_psd:
            d = B @ V[:, 0]
            d /= np.linalg.norm(d)
            return SocVerdict("WSONC", FAILS, "exact",
                              witness={"multiplier": mult, "direction": d,
                                       "value": float(d @ Q @ d)},
                              evidence={"subspace_dim": B.shape[1],
                                        "method": "subspace_eig"})
    anchor = vertices[0]
    for ray in rays:
        Qr = lagrangian_hessian(P, x, ray, include_objective=False)
        w, V = eig_sym(B.T @ Qr @ B)
        checked += 1
        if w[0] < -tol.tau_psd:
            d = B @ V[:, 0]
            d /= np.linalg.norm(d)
            mult, value = _ray_witness_multiplier(ctx, anchor, ray, d)
            return SocVerdict("WSONC", FAILS, "exact",
                              witness={"multiplier": mult, "direction": d,
                                       "value": value},
                              evidence={"subspace_dim": B.shape[1],
                                        "method": "subspace_eig",
                                        "via_recession_ray": True})
    return SocVerdict("WSONC", HOLDS, "exact",
                      evidence={"subspace_dim": B.shape[1],
                                "generators_checked": checked,
                                "multiplier_argument": MULTIPLIER_ARGUMENT,
                                "method": "subspace_eig"})


def check_ssonc(ctx: PointContext) -> SocVerdict:
    """Quadratic-form nonnegativity over the critical cone, multiplier-swept."""
    P, x, tol = ctx.P, ctx.x, ctx.tol
    witness0 = _gate_s_stationary(ctx)
    try:
        vertices, rays = _multiplier_generators(ctx)
    except SizeCapError as err:
        return SocVerdict("SSONC", UNKNOWN, "sampled", evidence={"note": str(err)})
    pieces = cn.critical_cone(ctx, mult=witness0).pieces

    all_exact = True
    low_coverage = []
    piece_tags = []
    for gi, (mult, homogeneous) in enumerate(
            [(v, False) for v in vertices] + [(r, True) for r in rays]):
        Q = lagrangian_hessian(P, x, mult, include_objective=not homogeneous)
        for pi, piece in enumerate(pieces):
            rng = tol.rng("ssonc", gi, pi)
            qf = quadform_min_over_cone(Q, piece, tol, rng=rng)
            if qf.method == "vacuous":
                continue
            all_exact &= qf.exact
            piece_tags.append({"piece": pi, "generator": gi, "method": qf.method,
                               "admitted": qf.admitted})
            if qf.value is not None and qf.value < -tol.tau_psd:
                d = qf.direction
                if homogeneous:
                    wit_mult, value = _ray_witness_multiplier(ctx, vertices[0], mult, d)
                else:
                    wit_mult, value = mult, qf.value
                assert piece.contains(d, tol.tau_feas * 2.0)
                return SocVerdict("SSONC", FAILS,
                                  "exact" if qf.exact else "sampled",
                                  witness={"multiplier": wit_mult, "direction": d,
                                           "value": value},
                                  evidence={"piece": pi, "method": qf.method})
            if not qf.exact and qf.admitted < 32:
                low_coverage.append(pi)
    if low_coverage:
        return SocVerdict("SSONC", UNKNOWN, "sampled",
                          evidence={"low_coverage_pieces": sorted(set(low_coverage))})
    return SocVerdict("SSONC", HOLDS, "exact" if all_exact else "sampled",
                      evidence={"pieces": len(pieces),
                                "sweeps": piece_tags,
                                "multiplier_argument": MULTIPLIER_ARGUMENT,
                                "seed": tol.seed})
