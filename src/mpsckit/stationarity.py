"""Weak, Mordukhovich and strong stationarity at a feasible point.

Each notion is a linear feasibility system in the multipliers; the
complementarity mu_k * nu_k = 0 of M-stationarity is handled by exact
enumeration of the zero patterns over the biactive set.  Witnesses are
l1-minimal for reproducibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cones import (AXIS_A, AXIS_B, CROSS, ORIGIN, PointContext, active_items,
                    branch_items, cross_cones)
from .errors import NotSStationaryError, SizeCapError
from .numeric import Polyhedron, enumerate_generators
from .problem import MAX_BIACTIVE, MpscProblem

HOLDS, FAILS = "HOLDS", "FAILS"


@dataclass(frozen=True)
class Multipliers:
    lam: tuple
    rho: tuple
    mu: tuple
    nu: tuple

    def as_arrays(self):
        return (np.asarray(self.lam, float), np.asarray(self.rho, float),
                np.asarray(self.mu, float), np.asarray(self.nu, float))

    def l1(self):
        return float(sum(abs(v) for part in (self.lam, self.rho, self.mu, self.nu)
                         for v in part))

    def to_json(self):
        return {"lambda": list(self.lam), "rho": list(self.rho),
                "mu": list(self.mu), "nu": list(self.nu)}


@dataclass
class StationarityVerdict:
    kind: str  # W | M | S
    status: str
    witness: Multipliers | None = None
    patterns: list = field(default_factory=list)  # per-pattern LP log (M only)

    def holds(self):
        return self.status == HOLDS

    def to_json(self):
        return {"kind": self.kind, "status": self.status, "mode": "exact",
                "witness": self.witness.to_json() if self.witness else None,
                "patterns": list(self.patterns)}


def lagrangian_gradient(P: MpscProblem, x, mult: Multipliers):
    lam, rho, mu, nu = mult.as_arrays()
    out = P.grad(P.f, x)
    for i, e in enumerate(P.g):
        if lam[i] != 0.0:
            out = out + lam[i] * P.grad(e, x)
    for j, e in enumerate(P.h):
        if rho[j] != 0.0:
            out = out + rho[j] * P.grad(e, x)
    for k, (G, H) in enumerate(P.switch_pairs):
        if mu[k] != 0.0:
            out = out + mu[k] * P.grad(G, x)
        if nu[k] != 0.0:
            out = out + nu[k] * P.grad(H, x)
    return out


def lagrangian_hessian(P: MpscProblem, x, mult: Multipliers, include_objective=True):
    lam, rho, mu, nu = mult.as_arrays()
    out = P.hess(P.f, x) if include_objective else np.zeros((P.n, P.n))
    for i, e in enumerate(P.g):
        if lam[i] != 0.0:
            out = out + lam[i] * P.hess(e, x)
    for j, e in enumerate(P.h):
        if rho[j] != 0.0:
            out = out + rho[j] * P.hess(e, x)
    for k, (G, H) in enumerate(P.switch_pairs):
        if mu[k] != 0.0:
            out = out + mu[k] * P.hess(G, x)
        if nu[k] != 0.0:
            out = out + nu[k] * P.hess(H, x)
    return out


# ---------------------------------------------------------------------------
# multiplier systems
# ---------------------------------------------------------------------------

def multiplier_labels(items) -> list:
    """Multiplier label (lam/rho/mu/nu, idx) of each gradient item (g/h/G/H, idx)."""
    return [({"g": "lam", "h": "rho", "G": "mu", "H": "nu"}[k], i) for k, i in items]


def expand_multiplier(P: MpscProblem, labels, z) -> Multipliers:
    lam = np.zeros(P.m)
    rho = np.zeros(P.p)
    mu = np.zeros(P.l)
    nu = np.zeros(P.l)
    store = {"lam": lam, "rho": rho, "mu": mu, "nu": nu}
    for (kind, idx), v in zip(labels, z):
        store[kind][idx] = v
    return Multipliers(tuple(lam), tuple(rho), tuple(mu), tuple(nu))


def _solve_system(ctx: PointContext, items) -> Multipliers | None:
    """l1-minimal multiplier solving grad L = 0 over the items' gradients."""
    z = ctx.combination(items, -ctx.grad("f"), "l1")
    return None if z is None else expand_multiplier(ctx.P, multiplier_labels(items), z)


def check_w_stationary(ctx: PointContext) -> StationarityVerdict:
    """Stationarity with mu, nu unrestricted on the biactive set."""
    w = _solve_system(ctx, active_items(ctx))
    return StationarityVerdict("W", HOLDS if w else FAILS, witness=w)


def w_stationarity_residual(ctx: PointContext) -> float:
    """Smallest l1 norm of grad L over the weak multiplier structure.

    Zero at exactly W-stationary points; solver iterates are judged against
    this instead of the exact feasibility check, which a KKT residual at the
    tau_kkt scale would fail.
    """
    return ctx.combination(active_items(ctx), -ctx.grad("f"), "residual")


def check_s_stationary(ctx: PointContext) -> StationarityVerdict:
    """Stationarity with mu = nu = 0 on the biactive set (single LP)."""
    w = _solve_system(ctx, branch_items(ctx, (), ()))
    return StationarityVerdict("S", HOLDS if w else FAILS, witness=w)


def check_m_stationary(ctx: PointContext) -> StationarityVerdict:
    """Stationarity with mu_k * nu_k = 0 enforced by zero-pattern enumeration."""
    I = ctx.I
    if len(I.I_GH) > MAX_BIACTIVE:
        raise SizeCapError(f"|I_GH| = {len(I.I_GH)} exceeds the pattern cap")
    patterns = []
    best = None
    for choice in itertools.product((0, 1), repeat=len(I.I_GH)):
        mu_side = {k for k, c in zip(I.I_GH, choice) if c == 0}
        nu_side = {k for k, c in zip(I.I_GH, choice) if c == 1}
        w = _solve_system(ctx, branch_items(ctx, mu_side, nu_side))
        patterns.append({
            "mu_free_on": sorted(mu_side), "nu_free_on": sorted(nu_side),
            "feasible": w is not None,
            "witness": w.to_json() if w else None,
        })
        if w is not None and (best is None or w.l1() < best.l1() - 1e-12):
            best = w
    return StationarityVerdict("M", HOLDS if best else FAILS, witness=best,
                               patterns=patterns)


def s_multiplier_polyhedron(ctx: PointContext):
    """Affine polyhedron of all S-multipliers plus its generator form.

    Coordinates are (lambda on I_g, rho, mu on I_G, nu on I_H); everything
    off those supports is identically zero.  Raises NotSStationaryError when
    the system is infeasible.
    """
    items = branch_items(ctx, (), ())
    B, labels = ctx.rows(items).T, multiplier_labels(items)
    rhs = -ctx.grad("f")
    ncols = len(labels)
    lam_rows = np.array([[-1.0 if c == r else 0.0 for c in range(ncols)]
                         for r, (kind, _) in enumerate(labels) if kind == "lam"])
    pol = Polyhedron.make(ncols, A_eq=B if B.size else None,
                          b_eq=rhs if B.size else None,
                          A_le=lam_rows if lam_rows.size else None,
                          b_le=np.zeros(lam_rows.shape[0]) if lam_rows.size else None)
    if ncols == 0 and np.linalg.norm(rhs) > 1e-9:
        raise NotSStationaryError("point is not S-stationary")
    try:
        gen = enumerate_generators(pol, ctx.tol)
    except ValueError as err:
        raise NotSStationaryError("point is not S-stationary") from err
    return pol, labels, gen


# ---------------------------------------------------------------------------
# normal-cone characterization (independent oracle)
# ---------------------------------------------------------------------------

def normal_cone_oracle(ctx: PointContext, kind: str) -> bool:
    """Decide 0 in grad f + Jacobian^T N_D(F(x)) per-component.

    The cone of each switching pair comes from the cross-set table (limiting
    normal for kind="M", Frechet normal for kind="S"), so this route is
    independent of the index-set systems above.
    """
    if kind not in ("M", "S"):
        raise ValueError("kind must be 'M' or 'S'")
    P = ctx.P
    # active inequalities (an inactive one has normal cone {0}) and every h
    fixed = [("g", i) for i in ctx.I.I_g] + [("h", j) for j in range(P.p)]
    cross_pairs = []  # pairs whose cone is the cross set
    _, _, G, H = P.constraint_values(ctx.x)
    for k in range(P.l):
        row = cross_cones(G[k], H[k], ctx.tol)
        cone = row.limiting_normal if kind == "M" else row.frechet_normal
        if cone == AXIS_A:
            fixed.append(("G", k))
        elif cone == AXIS_B:
            fixed.append(("H", k))
        elif cone == CROSS:
            cross_pairs.append((("G", k), ("H", k)))
        elif cone != ORIGIN:
            raise AssertionError(cone)

    rhs = -ctx.grad("f")
    for choice in itertools.product((0, 1), repeat=len(cross_pairs)):
        items = fixed + [pair[c] for pair, c in zip(cross_pairs, choice)]
        if ctx.combination(items, rhs, "feasible"):
            return True
    return False


# ---------------------------------------------------------------------------
# M-to-S bridge
# ---------------------------------------------------------------------------

@dataclass
class BridgeReport:
    partitions: list            # [(beta1, beta2), ...] from the zero pattern
    kkt_with_given: list        # residual of the fixed-multiplier KKT system
    kkt_any: list               # is the point a KKT point of the branch at all
    s_certificate: Multipliers | None
    reconstruction_residual: float
    note: str

    def to_json(self):
        return {"partitions": [[sorted(b1), sorted(b2)] for b1, b2 in self.partitions],
                "kkt_with_given": self.kkt_with_given, "kkt_any": self.kkt_any,
                "s_certificate": self.s_certificate.to_json() if self.s_certificate else None,
                "reconstruction_residual": self.reconstruction_residual,
                "note": self.note}


def m_to_s_bridge(ctx: PointContext, mult: Multipliers) -> BridgeReport:
    """Probe whether an M-multiplier hides an S-certificate.

    Builds the two bipartitions matching the multiplier's support (a switch
    index with a nonzero mu goes to the G-pinned side, one with a nonzero nu
    to the H-pinned side; indices with both zero split the two partitions),
    reports KKT feasibility of each branch, and re-checks grad L = 0 after
    zeroing mu off I_G and nu off I_H.
    """
    P, x, tol, I = ctx.P, ctx.x, ctx.tol, ctx.I
    lam, rho, mu, nu = mult.as_arrays()
    nz = lambda v: abs(v) > tol.tau_act

    part1 = (tuple(k for k in I.I_GH if nz(mu[k])),
             tuple(k for k in I.I_GH if not nz(mu[k])))
    part2 = (tuple(k for k in I.I_GH if not nz(nu[k])),
             tuple(k for k in I.I_GH if nz(nu[k])))

    kkt_given, kkt_any = [], []
    scale = 1.0 + float(np.linalg.norm(ctx.grad("f")))
    coef = {"g": lam, "h": rho, "G": mu, "H": nu}
    for beta1, beta2 in (part1, part2):
        items = branch_items(ctx, beta1, beta2)
        r = ctx.grad("f").copy()
        for (kind, i), row in zip(items, ctx.rows(items)):
            r += coef[kind][i] * row
        kkt_given.append(float(np.linalg.norm(r)))
        kkt_any.append(_solve_system(ctx, items) is not None)

    mu_bar = np.where([k in I.I_G for k in range(P.l)], mu, 0.0)
    nu_bar = np.where([k in I.I_H for k in range(P.l)], nu, 0.0)
    cand = Multipliers(tuple(lam), tuple(rho), tuple(mu_bar), tuple(nu_bar))
    res = float(np.linalg.norm(lagrangian_gradient(P, x, cand)))
    cert = cand if res <= 1e-8 * scale and np.all(lam >= 0.0) else None
    return BridgeReport(
        partitions=[part1, part2],
        kkt_with_given=kkt_given,
        kkt_any=kkt_any,
        s_certificate=cert,
        reconstruction_residual=res,
        note=("both candidate partitions are reported with their KKT status; "
              "the verdict is not aggregated into a single quantifier"),
    )
