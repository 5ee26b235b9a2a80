"""Second-order necessary conditions at an S-stationary point.

Both conditions ask whether d^T hess_L(mult) d >= 0 on a cone, and both go
through one routine, `quadform_min_over_cone`, one cone piece at a time and
exact on every piece: by a projected eigensolve on a subspace, by a
copositivity test over the piece's generators elsewhere, and UNKNOWN only
past a size cap.  The strong condition's cone is the critical cone, piece
by piece; the weak condition is the one-piece case of the critical
subspace.  Both sweep the full S-multiplier polyhedron through its
generators: the quadratic form is affine in the multiplier, so
nonnegativity at the vertices plus nonnegativity of the constraint-Hessian
part along recession rays covers every multiplier.  Nothing here samples.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, field

import numpy as np

from .cones import ConePiece, PointContext
from .errors import NotSStationaryError, NumericBreakdownError, SizeCapError
from .numeric import Tolerances, eigh_stack, unit_rows
from .stationarity import (Multipliers, check_s_stationary, lagrangian_hessian,
                           s_multiplier_polyhedron)

HOLDS, FAILS, UNKNOWN = "HOLDS", "FAILS", "UNKNOWN"

COPOSITIVE_COLUMN_CAP = 16  # 2^16 - 1 principal submatrices

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
    value: float | None          # see quadform_min_over_cone
    direction: np.ndarray | None
    method: str                  # vacuous | subspace_eig | copositivity

    def negative(self, tol: Tolerances) -> bool:
        """Whether some unit direction of the piece has d^T Q d < -tau_psd."""
        return self.value is not None and self.value < -tol.tau_psd


def quadform_min_over_cone(Q, piece: ConePiece, tol: Tolerances) -> QuadFormResult:
    """Decide d^T Q d >= -tau_psd over the unit directions of a cone piece, exactly.

    Vacuous (value None) on the origin.  On a subspace, the minimum and a
    minimizer from a projected eigensolve.  Elsewhere, with the unit rays and
    both signs of each lineality vector as the columns of G, the form holds
    exactly when M = G^T (Q + tau_psd I) G is copositive (Kaplan 2000), and
    value None says so.  The principal submatrices of M are searched by
    increasing size, one eigh_stack per size: the smallest non-copositive
    ones have one negative eigenvalue with a positive eigenvector (Cottle,
    Habetler & Lemke 1970; Hadeler 1983), so the first whose clipped
    eigenvector y gives a value below -tau_psd yields the witness G y / |G y|
    and its value.  SizeCapError past COPOSITIVE_COLUMN_CAP columns.
    """
    if piece.is_origin(tol):
        return QuadFormResult(None, None, "vacuous")
    if piece.is_subspace(tol):
        lin = piece.lineality_basis(tol)
        S = lin.T @ Q @ lin
        w, V = eigh_stack(0.5 * (S + S.T)[None])
        d = lin @ V[0, :, 0]
        return QuadFormResult(float(w[0, 0]), d / np.linalg.norm(d), "subspace_eig")

    G = unit_rows(np.array(piece.generators(tol).all_rays())).T
    k = G.shape[1]
    if k > COPOSITIVE_COLUMN_CAP:
        raise SizeCapError(f"{k} cone generators exceed the copositivity cap "
                           f"of {COPOSITIVE_COLUMN_CAP}")
    M = G.T @ (Q + tol.tau_psd * np.eye(len(Q))) @ G
    for size in range(1, k + 1):
        S = np.array(list(itertools.combinations(range(k), size)))
        w, V = eigh_stack(M[S[:, :, None], S[:, None, :]])
        Y, S = V[w[:, 0] < 0.0, :, 0], S[w[:, 0] < 0.0]
        Y = np.clip(Y * np.sign(Y.sum(axis=1, keepdims=True)), 0.0, None)
        D = unit_rows(np.einsum("nis,is->in", G[:, S], Y))  # a zero row stays 0
        vals = np.einsum("ij,jk,ik->i", D, Q, D)
        if np.any(vals < -tol.tau_psd):
            i = int(np.argmax(vals < -tol.tau_psd))
            return QuadFormResult(float(vals[i]), D[i], "copositivity")
    return QuadFormResult(None, None, "copositivity")


def _multiplier_sweep(ctx):
    """(multiplier, is_ray) over the vertices, then the (both-signed) rays,
    of the S-multiplier polyhedron, enumerated once per context for both
    second-order checks."""
    def expand():
        items, gen = s_multiplier_polyhedron(ctx)
        return ([(Multipliers.over(ctx.P, items, v), False) for v in gen.vertices]
                + [(Multipliers.over(ctx.P, items, r), True) for r in gen.all_rays()])
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
    mult = Multipliers(*(tuple(np.add(v, np.multiply(t, r)))
                         for v, r in zip(astuple(vertex), astuple(ray))))
    return mult, float(d @ lagrangian_hessian(ctx, mult) @ d)


def _sonc(ctx: PointContext, kind: str, pieces) -> SocVerdict:
    """d^T hess_L(mult) d >= 0 on every piece for every S-multiplier, one
    `quadform_min_over_cone` per (multiplier, piece); a cone whose every
    piece is the origin holds before any multiplier is enumerated, and a
    piece past the size caps leaves the verdict UNKNOWN unless another fails."""
    tol = ctx.tol
    live = [(pi, piece) for pi, piece in enumerate(pieces) if not piece.is_origin(tol)]
    if not live:
        return SocVerdict(kind, HOLDS, "exact",
                          evidence={"pieces": len(pieces), "note": "the cone is the origin"})
    try:
        sweep = _multiplier_sweep(ctx)
    except SizeCapError as err:
        return SocVerdict(kind, UNKNOWN, "exact", evidence={"note": str(err)})

    piece_tags, capped = [], {}
    for gi, (mult, is_ray) in enumerate(sweep):
        Q = lagrangian_hessian(ctx, mult, include_objective=not is_ray)
        for pi, piece in live:
            try:
                qf = quadform_min_over_cone(Q, piece, tol)
            except SizeCapError as err:
                capped[pi] = str(err)
                continue
            piece_tags.append({"piece": pi, "generator": gi, "method": qf.method})
            if qf.negative(tol):
                d, value, evidence = qf.direction, qf.value, {"piece": pi, "method": qf.method}
                if is_ray:
                    mult, value = _ray_witness_multiplier(ctx, sweep[0][0], mult, d)
                    evidence["via_recession_ray"] = True
                violation = float(piece.violation(d))
                if not violation <= tol.tau_feas * 2.0:  # a loose rank cutoff can do this
                    raise NumericBreakdownError(f"{kind} direction lies outside cone piece "
                                                f"{pi} (violation {violation:.3g})")
                return SocVerdict(kind, FAILS, "exact", evidence=evidence, witness={
                    "multiplier": mult, "direction": d, "value": value})
    if capped:
        return SocVerdict(kind, UNKNOWN, "exact",
                          evidence={"capped_pieces": sorted(capped),
                                    "note": next(iter(capped.values()))})
    return SocVerdict(kind, HOLDS, "exact", evidence={
        "pieces": len(pieces), "sweeps": piece_tags, "multiplier_argument": MULTIPLIER_ARGUMENT})


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
    return _sonc(ctx, "SSONC", ctx.critical)
