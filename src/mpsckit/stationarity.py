"""Weak, Mordukhovich and strong stationarity at a feasible point.

Each notion is a linear feasibility system in the multipliers; the
complementarity mu_k * nu_k = 0 of M-stationarity is handled by exact
enumeration of the zero patterns over the biactive set, one per branch.
Witnesses are l1-minimal for reproducibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cones import (AXIS_A, AXIS_B, CROSS, ORIGIN, PointContext, active_items,
                    branch_items, cross_cones)
from .errors import NotSStationaryError
from .numeric import Polyhedron, enumerate_generators
from .problem import MpscProblem

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
    mode: str = field(default="exact", init=False)
    witness: Multipliers | None = None
    patterns: list = field(default_factory=list)  # per-pattern LP log (M only)

    def holds(self):
        return self.status == HOLDS


def _lagrangian_terms(P: MpscProblem, mult: Multipliers):
    """(coefficient, item) of every nonzero multiplier: g, h, then G and H
    of each switch pair in turn."""
    lam, rho, mu, nu = mult.as_arrays()
    terms = [(lam[i], ("g", i)) for i in range(P.m)]
    terms += [(rho[j], ("h", j)) for j in range(P.p)]
    terms += [t for k in range(P.l) for t in ((mu[k], ("G", k)), (nu[k], ("H", k)))]
    return [(c, it) for c, it in terms if c != 0.0]


def lagrangian_hessian(ctx: PointContext, mult: Multipliers, include_objective=True):
    n = ctx.P.n
    out = ctx.hessian("f").copy() if include_objective else np.zeros((n, n))
    for c, it in _lagrangian_terms(ctx.P, mult):
        out = out + c * ctx.hessian(*it)
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
    """Stationarity with mu = nu = 0 on the biactive set (single LP).

    The verdict is kept on the context, so the report and the second-order
    gates share one solve.
    """
    def solve():
        w = _solve_system(ctx, branch_items(ctx, (), ()))
        return StationarityVerdict("S", HOLDS if w else FAILS, witness=w)
    return ctx.once("S", solve)


def check_m_stationary(ctx: PointContext) -> StationarityVerdict:
    """Stationarity with mu_k * nu_k = 0: one zero pattern per branch at x, mu
    free on its split's beta1 and nu free on beta2."""
    patterns, best = [], None
    for br in ctx.branches:
        beta1, beta2 = ctx.split(br)
        w = _solve_system(ctx, branch_items(ctx, beta1, beta2))
        patterns.append({
            "mu_free_on": beta1, "nu_free_on": beta2,
            "feasible": w is not None,
            "witness": w.to_json() if w else None,
        })
        if w is not None and (best is None or w.l1() < best.l1() - 1e-12):
            best = w
    return StationarityVerdict("M", HOLDS if best else FAILS, witness=best,
                               patterns=patterns)


def s_multiplier_polyhedron(ctx: PointContext):
    """Labels and generator form of the affine polyhedron of all S-multipliers.

    Coordinates are (lambda on I_g, rho, mu on I_G, nu on I_H); everything
    off those supports is identically zero.  Raises NotSStationaryError when
    the system is infeasible.
    """
    items = branch_items(ctx, (), ())
    B, labels = ctx.rows(items).T, multiplier_labels(items)
    rhs = -ctx.grad("f")
    ncols = len(labels)
    if ncols == 0 and np.linalg.norm(rhs) > 1e-9:
        raise NotSStationaryError("point is not S-stationary")
    lam = [c for c, (kind, _) in enumerate(labels) if kind == "lam"]
    lam_rows = np.zeros((len(lam), ncols))
    lam_rows[range(len(lam)), lam] = -1.0
    pol = Polyhedron.make(ncols, A_eq=B, b_eq=rhs, A_le=lam_rows)
    try:
        gen = enumerate_generators(pol, ctx.tol)
    except ValueError as err:
        raise NotSStationaryError("point is not S-stationary") from err
    return labels, gen


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
    _, _, G, H = ctx.values
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
