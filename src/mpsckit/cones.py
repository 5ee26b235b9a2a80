"""Cone constructions at a feasible point.

Every cone here is a list of same-shape polyhedral pieces, piece k that of
the point's branch k, whose generators and lineality bases come from one
search stacked over the list, filled on the first request; a critical piece
is its linearization piece cut by grad f, its generators cut from that
piece's with no search.  The tangent
cone is never built: ACQ (`cq.check_acq`) tests the linearization cone's own
directions for tangency by distance ratios.  This layer runs no solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfeasiblePointError
from .numeric import (RADII_FRACTIONS, Generators, Polyhedron, Tolerances, ball_offsets,
                      check_caps, combination_lp, cut_generators, enumerate_generators, nullspace,
                      row_norms, unit_rows)
from .problem import BranchProblem, IndexSets, MpscProblem, bipartitions, index_sets

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
    """Cone triple of {(u,v): uv = 0} at (a, b), a side zero by index_sets' test."""
    az, bz = abs(a) <= tol.tau_act, abs(b) <= tol.tau_act
    if not (az or bz):
        raise InfeasiblePointError(f"({a}, {b}) is not in the cross set")
    if az and bz:
        return CrossConeKind("both_zero", CROSS, ORIGIN, CROSS)
    if az:
        return CrossConeKind("a_zero_b_nonzero", AXIS_B, AXIS_A, AXIS_A)
    return CrossConeKind("a_nonzero_b_zero", AXIS_A, AXIS_B, AXIS_B)


@dataclass
class ConePiece:
    """Polyhedral cone {d : A_eq d = 0, A_le d <= 0}."""

    A_eq: np.ndarray
    A_le: np.ndarray
    # generators, lineality basis and implicit equalities per tolerance set,
    # kept after the first call
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # a cut piece's uncut parent: the same rows but the last inequality row
    parent: "ConePiece | None" = field(default=None, repr=False, compare=False)
    # the pieces of this piece's cone, which one stacked search fills at once
    union: list = field(default_factory=list, repr=False, compare=False)

    @staticmethod
    def subspace(rows) -> "ConePiece":
        """The subspace {d : rows . d = 0} as a piece with no inequality rows."""
        return ConePiece(A_eq=rows, A_le=np.zeros((0, rows.shape[1])))

    @property
    def dim(self):
        return self.A_eq.shape[1]

    def polyhedron(self):
        return Polyhedron.make(self.dim, A_eq=self.A_eq, A_le=self.A_le)

    def violation(self, d):
        """Worst normalized constraint violation of a direction, or of each
        row of a stack of directions; zero rows are skipped."""
        d = np.asarray(d, float)
        eq, le = row_norms(self.A_eq), row_norms(self.A_le)
        r = np.concatenate([np.abs(d @ self.A_eq[eq > 0].T) / eq[eq > 0],
                            (d @ self.A_le[le > 0].T) / le[le > 0]], axis=-1)
        return np.max(r, axis=-1, initial=0.0)

    def contains(self, d, slack):
        return self.violation(d) <= slack

    def implicit_equalities(self, tol: Tolerances) -> tuple:
        """Indices of the inequality rows that vanish on the whole piece.

        With every row scaled to unit norm, row i is such a row when -row_i
        is a nonnegative combination of the other inequality rows plus a
        free combination of the equality rows: one feasibility LP per row,
        with no enumeration and no cap.
        """
        if ("implicit", tol) not in self._cache:
            eq, le = unit_rows(self.A_eq), unit_rows(self.A_le)
            self._cache["implicit", tol] = tuple(
                i for i in range(len(le)) if combination_lp(
                    np.vstack([np.delete(le, i, axis=0), eq]).T,
                    [True] * (len(le) - 1) + [False] * len(eq), -le[i], "feasible", tol))
        return self._cache["implicit", tol]

    def is_subspace(self, tol: Tolerances) -> bool:
        """True when every inequality row is an implicit equality."""
        return len(self.implicit_equalities(tol)) == len(self.A_le)

    def is_origin(self, tol: Tolerances) -> bool:
        """True when the piece is {0}: a subspace with no lineality."""
        return self.lineality_basis(tol).shape[1] == 0 and self.is_subspace(tol)

    def generators(self, tol: Tolerances) -> Generators:
        if ("gen", tol) not in self._cache:
            if self.parent is None:  # one search over the union's pieces
                pieces = self.union or [self]
                gens = enumerate_generators([p.polyhedron() for p in pieces], tol)
                for p, gen in zip(pieces, gens):
                    p._cache["gen", tol] = gen
            else:  # the piece's own caps, then its parent's generators cut
                check_caps(self.polyhedron())
                rows = unit_rows(np.vstack([self.A_eq, self.A_le]))
                self._cache["gen", tol] = cut_generators(self.parent.generators(tol), rows[:-1],
                                                         rows[-1], self.lineality_basis(tol))
        if isinstance(gen := self._cache["gen", tol], Exception):
            raise gen  # a failed search stays with its piece
        return gen

    def lineality_basis(self, tol: Tolerances) -> np.ndarray:
        if ("lin", tol) not in self._cache:  # one SVD over the union's pieces
            pieces = self.union or [self]
            rows = unit_rows(np.stack([np.vstack([p.A_eq, p.A_le]) for p in pieces]))
            for p, lin in zip(pieces, nullspace(rows, tol)):
                p._cache["lin", tol] = lin
        return self._cache["lin", tol]


# ---------------------------------------------------------------------------
# point context
# ---------------------------------------------------------------------------

class PointContext:
    """What every point-level check derives from (P, x, tol), computed once.

    The (g, h, G, H) values at x, the index sets read from them (which gate
    feasibility), the branches at x (one per split of I_GH, which `split`
    names), the rows of the one Jacobian at x over P.items, kinds f/g/h/G/H,
    and the item Hessians at x (each request's missing items from one
    `derivatives` call) are computed on first use and not kept when they
    raise, so each component that needs them reports the error itself.
    The linearization and critical cones, lists whose piece k is that of
    branch k, and the critical subspace are built once and keep their
    generators; `shells` is the one neighbourhood sample that every sampled
    check at x reads, and `once` keeps any other result checks share.
    """

    def __init__(self, P: MpscProblem, x, tol: Tolerances):
        self.P, self.x, self.tol = P, np.asarray(x, float), tol
        self._J = np.zeros((len(P.items), P.n))
        self._filled = set()
        self._hessians = {}
        self._kept = {}

    def once(self, key, compute):
        """compute() on first use under key, then the kept result."""
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    @cached_property
    def values(self) -> tuple:
        return self.P.constraint_values(self.x)

    @cached_property
    def I(self) -> IndexSets:
        return index_sets(self.values, self.tol)

    @cached_property
    def branches(self) -> list[BranchProblem]:
        """The branch of each split (beta1, beta2) of I_GH, in `bipartitions`
        order: G pinned over I_G and beta1, H over I_H and beta2; near x, F is
        their union."""
        return [BranchProblem(self.P, tuple(sorted(self.I.I_G + beta1)))
                for beta1 in bipartitions(self.I.I_GH)]

    def split(self, br: BranchProblem) -> list:
        """[beta1, beta2] of a branch at x: its G-pinned and H-pinned switches in I_GH."""
        return [[k for k in self.I.I_GH if k in br.eq_G],
                [k for k in self.I.I_GH if k not in br.eq_G]]

    @cached_property
    def linearization(self) -> list:
        return linearization_cone(self)

    @cached_property
    def critical(self) -> list:
        return critical_cone(self)

    @cached_property
    def critical_subspace(self) -> ConePiece:
        """{d : every active row . d = 0}."""
        return ConePiece.subspace(self.rows(active_items(self)))

    @cached_property
    def shells(self) -> list:
        """tol.n_samples points around x in each ball of radius
        eps_ball * RADII_FRACTIONS, drawn from tol.rng("neighbourhood", shell)."""
        tol = self.tol
        return [self.x[None, :] + ball_offsets(tol.rng("neighbourhood", ri), tol.n_samples,
                                               self.P.n, tol.eps_ball * frac)
                for ri, frac in enumerate(RADII_FRACTIONS)]

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

    def hessians(self, items) -> list:
        """Hessians at x of the items, each kept once read: the items not yet
        kept come from one `derivatives` call.  Callers must not modify them."""
        new = [it for it in items if it not in self._hessians]
        if new:
            self._hessians.update(zip(new, self.P.derivatives(self.x, new)[1]))
        return [self._hessians[it] for it in items]

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


def linearization_cone(ctx: PointContext) -> list:
    """L(x), piece k the linearized cone of ctx.branches[k]: g rows on I_g <= 0,
    the branch's equality rows = 0."""
    pieces = []  # each piece holds the list, so one request fills every piece
    pieces += [ConePiece(A_eq=ctx.rows(br.equalities()),
                         A_le=ctx.rows([("g", i) for i in ctx.I.I_g]), union=pieces)
               for br in ctx.branches]
    return pieces


def critical_cone(ctx: PointContext) -> list:
    """C(x) = {d in L(x) : grad f . d <= 0}, each linearization piece cut by
    grad f; read it as `PointContext.critical`, built once per context.

    At an S-stationary point the cut makes each active inequality with a
    positive multiplier an implicit equality of every piece, which
    `ConePiece.implicit_equalities` finds with no multiplier at hand.
    """
    gf = ctx.grad("f")[None, :]
    pieces = []
    pieces += [ConePiece(A_eq=p.A_eq, A_le=np.vstack([p.A_le, gf]), parent=p, union=pieces)
               for p in ctx.linearization]
    return pieces
