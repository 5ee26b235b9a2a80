"""Cone constructions at a feasible point.

The switching feasible set decomposes into branch sets over bipartitions of
the biactive index set, and every cone here is carried as a finite union of
polyhedral pieces in that same decomposition.  The tangent cone is never
computed exactly; it is sampled by projecting perturbed points onto each
branch set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfeasiblePointError
from .numeric import (Generators, Polyhedron, Tolerances, combination_lp,
                      enumerate_generators, nullspace)
from .problem import Bipartition, IndexSets, MpscProblem, bipartitions, branch, index_sets
from .solver import project_branch_cloud

# symbolic one-pair cones (subsets of R^2)
AXIS_A = "RxO"      # R x {0}
AXIS_B = "OxR"      # {0} x R
CROSS = "cross"     # {(a,b) : ab = 0}
ORIGIN = "origin"   # {(0,0)}


@dataclass(frozen=True)
class CrossConeKind:
    """Tangent / Frechet-normal / limiting-normal cones of the cross set."""

    case: str  # a_zero_b_nonzero | a_nonzero_b_zero | both_zero
    tangent: str
    frechet_normal: str
    limiting_normal: str


def cross_cones(a: float, b: float, tol: Tolerances) -> CrossConeKind:
    """Cone triple of {(u,v): uv = 0} at a point (a, b) of the set."""
    az, bz = abs(a) <= tol.tau_act, abs(b) <= tol.tau_act
    if abs(a * b) > tol.tau_feas or not (az or bz):
        raise InfeasiblePointError(f"({a}, {b}) is not in the cross set")
    if az and bz:
        return CrossConeKind("both_zero", CROSS, ORIGIN, CROSS)
    if az:
        return CrossConeKind("a_zero_b_nonzero", AXIS_B, AXIS_A, AXIS_A)
    return CrossConeKind("a_nonzero_b_zero", AXIS_A, AXIS_B, AXIS_B)


@dataclass
class ConePiece:
    """Polyhedral cone {d : A_eq d = 0, A_le d <= 0} tagged by its bipartition."""

    A_eq: np.ndarray
    A_le: np.ndarray
    tag: Bipartition | None = None
    # generators and lineality basis per tolerance set, kept after the first call
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.A_eq.shape[1]

    def polyhedron(self):
        return Polyhedron.make(self.dim, A_eq=self.A_eq, A_le=self.A_le)

    def violation(self, d):
        """Worst normalized constraint violation of a direction."""
        d = np.asarray(d, float)
        v = 0.0
        for row in self.A_eq:
            nrm = np.linalg.norm(row)
            if nrm > 0:
                v = max(v, abs(row @ d) / nrm)
        for row in self.A_le:
            nrm = np.linalg.norm(row)
            if nrm > 0:
                v = max(v, (row @ d) / nrm)
        return v

    def contains(self, d, slack):
        return self.violation(d) <= slack

    def is_subspace(self, tol: Tolerances) -> bool:
        """True when the inequality rows vanish on the equality nullspace."""
        if self.A_le.size == 0:
            return True
        N = nullspace(self.A_eq, tol) if self.A_eq.size else np.eye(self.dim)
        if N.shape[1] == 0:
            return True
        return bool(np.max(np.abs(self.A_le @ N)) <= 1e-10)

    def generators(self, tol: Tolerances) -> Generators:
        if ("gen", tol) not in self._cache:
            self._cache["gen", tol] = enumerate_generators(self.polyhedron(), tol)
        return self._cache["gen", tol]

    def lineality_basis(self, tol: Tolerances) -> np.ndarray:
        if ("lin", tol) not in self._cache:
            self._cache["lin", tol] = nullspace(np.vstack([self.A_eq, self.A_le]), tol)
        return self._cache["lin", tol]


@dataclass
class ConeUnion:
    pieces: list = field(default_factory=list)

    def member_angular(self, d, tol: Tolerances):
        """Directional membership: some piece within angular_tol of the unit d."""
        d = np.asarray(d, float)
        nrm = np.linalg.norm(d)
        if nrm == 0.0:
            return True, 0 if self.pieces else None
        u = d / nrm
        for i, piece in enumerate(self.pieces):
            if piece.violation(u) <= np.sin(tol.angular_tol):
                return True, i
        return False, None


# ---------------------------------------------------------------------------
# point context
# ---------------------------------------------------------------------------

class PointContext:
    """What every point-level check derives from (P, x, tol), computed once.

    The index sets (which gate feasibility), the bipartitions, the rows of
    the one Jacobian at x over P.items, kinds f/g/h/G/H, and each item
    Hessian at x are computed on first use and not kept when they raise, so
    each component that needs them reports the error itself.  The
    linearization-cone pieces are built once and keep their generators;
    `once` keeps any other point-level result that several components share.
    """

    def __init__(self, P: MpscProblem, x, tol: Tolerances):
        self.P, self.x, self.tol = P, np.asarray(x, float), tol
        self._J = np.zeros((len(P.items), P.n))
        self._filled = set()
        self._kept = {}

    def once(self, key, compute):
        """compute() on first use under key, then the kept result."""
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    @cached_property
    def I(self) -> IndexSets:
        return index_sets(self.P, self.x, self.tol)

    @cached_property
    def bipartitions(self) -> list[Bipartition]:
        return bipartitions(self.I)

    @cached_property
    def linearization(self) -> ConeUnion:
        return linearization_cone(self)

    def rows(self, items) -> np.ndarray:
        """Gradients of the items stacked as rows, shape (len(items), n)."""
        rows = [self.P.items.index(it) for it in items]
        new = [r for r in dict.fromkeys(rows) if r not in self._filled]
        if new:
            self._J[new] = self.P.jacobian(self.x, [self.P.items[r] for r in new])
            self._filled.update(new)
        return self._J[rows]

    def grad(self, kind, i=0) -> np.ndarray:
        """Gradient at x of item (kind, i)."""
        return self.rows([(kind, i)])[0]

    def hessian(self, kind, i=0) -> np.ndarray:
        """Hessian at x of item (kind, i); callers must not modify it."""
        return self.once(("hessian", kind, i), lambda: self.P.hessian(self.x, (kind, i)))

    def combination(self, items, rhs, mode):
        """combination_lp over the items' gradient columns; g weights are >= 0."""
        return combination_lp(self.rows(items).T, [k == "g" for k, _ in items], rhs,
                              mode, self.tol)


def branch_items(ctx: PointContext, beta1, beta2, g_idx=None) -> list:
    """Gradient items of a branch: g on I_g (or g_idx), every h, G on I_G
    and beta1, H on I_H and beta2, in that order."""
    I = ctx.I
    items = [("g", i) for i in (I.I_g if g_idx is None else g_idx)]
    items += [("h", j) for j in range(ctx.P.p)]
    items += [("G", k) for k in sorted(set(I.I_G) | set(beta1))]
    items += [("H", k) for k in sorted(set(I.I_H) | set(beta2))]
    return items


def active_items(ctx: PointContext) -> list:
    """The full active family: both sides of every biactive pair."""
    return branch_items(ctx, ctx.I.I_GH, ctx.I.I_GH)


def piece_for_bipartition(ctx: PointContext, b: Bipartition,
                          extra_eq=(), active_ineq=None) -> ConePiece:
    """Linearized branch cone: g rows <= 0, h/G/H rows = 0 for the branch."""
    ineq_idx = ctx.I.I_g if active_ineq is None else active_ineq
    return ConePiece(A_eq=ctx.rows(list(extra_eq) + branch_items(ctx, b.beta1, b.beta2, ())),
                     A_le=ctx.rows([("g", i) for i in ineq_idx]), tag=b)


def linearization_cone(ctx: PointContext) -> ConeUnion:
    """Union of branch linearization cones over all bipartitions."""
    return ConeUnion([piece_for_bipartition(ctx, b) for b in ctx.bipartitions])


def critical_cone(ctx: PointContext, mult=None) -> ConeUnion:
    """Linearization directions that are first-order neutral for f.

    Without a multiplier each piece is intersected with grad f . d <= 0;
    with an S-multiplier the active inequalities with positive lambda turn
    into equalities instead.
    """
    if mult is None:
        gf = ctx.grad("f")[None, :]
        return ConeUnion([ConePiece(A_eq=p.A_eq, A_le=np.vstack([p.A_le, gf]), tag=p.tag)
                          for p in ctx.linearization.pieces])
    lam = np.asarray(mult.lam, float)
    plus = tuple(i for i in ctx.I.I_g if lam[i] > ctx.tol.tau_act)
    rest = tuple(i for i in ctx.I.I_g if i not in plus)
    return ConeUnion([piece_for_bipartition(ctx, b, extra_eq=[("g", i) for i in plus],
                                            active_ineq=rest)
                      for b in ctx.bipartitions])


def critical_subspace(ctx: PointContext) -> np.ndarray:
    """Orthonormal basis of the subspace where every active row vanishes."""
    return nullspace(ctx.rows(active_items(ctx)), ctx.tol)


# ---------------------------------------------------------------------------
# sampled tangent cone
# ---------------------------------------------------------------------------

@dataclass
class TangentCloud:
    directions: np.ndarray          # (N, n) unit rows, pooled
    by_branch: dict                 # bipartition label -> (N_b, n)

    def __len__(self):
        return self.directions.shape[0]


# a projected sample only witnesses a tangent direction if its step kept a
# fixed fraction of the perturbation radius: points in the residual-tolerance
# tube of a branch contract to the tube scale and carry no directional
# information (tangentially intersecting equalities make that tube fat)
CONTRACTION_MIN = 0.05


def sample_tangent_directions(P: MpscProblem, x, tol: Tolerances) -> TangentCloud:
    """Project perturbed points onto each branch set and normalize the steps.

    Directions whose step contracted below CONTRACTION_MIN of the sample
    radius are discarded; an empty cloud is a valid outcome (isolated
    feasible point).
    """
    x = np.asarray(x, float)
    I = index_sets(P, x, tol)
    pooled = []
    by_branch = {}
    for bi, b in enumerate(bipartitions(I)):
        br = branch(P, I, b)
        rng = tol.rng("tangent", bi)
        U = rng.normal(size=(tol.n_samples, P.n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        radii = tol.eps_ball * rng.uniform(size=(tol.n_samples, 1)) ** (1.0 / P.n)
        Y = project_branch_cloud(P, br, x[None, :] + radii * U, tol)
        steps = Y - x[None, :]
        norms = np.linalg.norm(steps, axis=1)
        keep = (br.residual(Y) <= tol.tau_feas) \
            & (norms >= CONTRACTION_MIN * radii[:, 0]) \
            & (norms > tol.eps_ball * 1e-6)
        dirs = steps[keep] / norms[keep, None]
        by_branch[b.label()] = dirs
        if dirs.size:
            pooled.append(dirs)
    directions = np.vstack(pooled) if pooled else np.zeros((0, P.n))
    return TangentCloud(directions=directions, by_branch=by_branch)
