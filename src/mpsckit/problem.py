"""MPSC instances: file format, evaluation, index sets, branch problems.

An instance is
    min f(x)  s.t.  g_i(x) <= 0,  h_j(x) = 0,  G_k(x) * H_k(x) = 0,
and every analysis below is driven by which constraints are active at a
feasible point.  Constraint indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import InfeasiblePointError, ParseError, SizeCapError
from .numeric import Tolerances

MAX_BIACTIVE = 16
OBJECTIVE = ("f", 0)


@dataclass(frozen=True)
class MpscProblem:
    n: int
    var_names: tuple
    f: ex.Expr
    g: tuple
    h: tuple
    switch_pairs: tuple  # ((G_k, H_k), ...)

    @property
    def m(self):
        return len(self.g)

    @property
    def p(self):
        return len(self.h)

    @property
    def l(self):
        return len(self.switch_pairs)

    # -- evaluation kernel: every value, gradient and Hessian of an item ------

    @cached_property
    def items(self) -> tuple:
        """Every (kind, idx) item, grouped f, g, h, G, H."""
        return ((OBJECTIVE,) + tuple(("g", i) for i in range(self.m))
                + tuple(("h", j) for j in range(self.p))
                + tuple(("G", k) for k in range(self.l))
                + tuple(("H", k) for k in range(self.l)))

    def expr(self, kind, i=0):
        """Expression of item (kind, i): kind f, g, h, G or H."""
        if kind in ("G", "H"):
            return self.switch_pairs[i][kind == "H"]
        return self.f if kind == "f" else (self.g if kind == "g" else self.h)[i]

    @cached_property
    def gradient_trees(self) -> dict:
        """item -> its n partial-derivative trees, built once per problem."""
        return {it: tuple(ex.diff(self.expr(*it), j) for j in range(self.n))
                for it in self.items}

    @cached_property
    def _kernels(self) -> dict:
        """(kind, items) -> its compiled kernel, built on first use."""
        return {}

    def _evaluate(self, kind, items, x):
        """Run the kernel of kind "v" (item values), "j" (their gradient rows)
        or "jh" (the gradient rows, then their whole Hessians, row-major, an
        entry below the diagonal the same tree and value as its mirror above)
        at a point or a batch, under one np.errstate: an overflow ends as the
        kernel's EvalDomainError on a non-finite output."""
        kernel = self._kernels.get((kind, tuple(items)))
        if kernel is None:
            trees = ([self.expr(*it) for it in items] if kind == "v" else
                     [d for it in items for d in self.gradient_trees[it]])
            if kind == "jh":  # entry (i, j) below the diagonal: the tree of (j, i)
                trees += [ex.diff(self.gradient_trees[it][min(i, j)], max(i, j)) for it in items
                          for i in range(self.n) for j in range(self.n)]
            kernel = self._kernels[kind, tuple(items)] = ex.compile_kernel(trees)
        x = np.asarray(x, float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = kernel(x[None, :] if x.ndim == 1 else x)
        return out[0] if x.ndim == 1 else out

    def values(self, x, items):
        """Item values, shape (K,) at a point or (N, K) over a batch."""
        return self._evaluate("v", items, x)

    def jacobian(self, x, items):
        """Item gradients as rows, shape (K, n) at a point or (N, K, n) over a batch."""
        V = self._evaluate("j", items, x)
        return V.reshape(V.shape[:-1] + (len(items), self.n))

    def derivatives(self, x, items):
        """Item gradient rows and Hessians from one kernel call: (K, n) and
        (K, n, n) at a point, (N, K, n) and (N, K, n, n) over a batch; the
        gradients are evaluated first, so their error is the first."""
        V = self._evaluate("jh", items, x)
        head, K, n = V.shape[:-1], len(items), self.n
        return V[..., :K * n].reshape(head + (K, n)), V[..., K * n:].reshape(head + (K, n, n))

    def hessian(self, x, item):
        """Hessian of one item at a point, shape (n, n)."""
        return self.derivatives(x, [item])[1][0]

    def constraint_values(self, x):
        """(g, h, G, H) value arrays at a point or batch."""
        V = self.values(x, self.items[1:])
        m, p, l = self.m, self.p, self.l
        return V[..., :m], V[..., m:m + p], V[..., m + p:m + p + l], V[..., m + p + l:]

    def residual(self, x):
        """l2 constraint violation at a point or batch (see residual_of)."""
        return self.residual_of(*self.constraint_values(x))

    @staticmethod
    @np.errstate(over="ignore")  # callers reject a non-finite residual
    def residual_of(g, h, G, H):
        """sqrt(sum g+^2 + sum h^2 + sum min(G^2,H^2)) over the last axis of
        the (g, h, G, H) value arrays."""
        return np.sqrt(np.sum(np.maximum(g, 0.0) ** 2, axis=-1) + np.sum(h ** 2, axis=-1)
                       + np.sum(np.minimum(G ** 2, H ** 2), axis=-1))


@dataclass(frozen=True)
class IndexSets:
    """Active-set partition at a feasible point (0-based indices)."""

    I_g: tuple
    I_h: tuple
    I_G: tuple
    I_H: tuple
    I_GH: tuple


@dataclass(frozen=True)
class Bipartition:
    """Disjoint split (beta1, beta2) of the biactive switching indices."""

    beta1: tuple
    beta2: tuple


@dataclass(frozen=True)
class BranchProblem:
    """Standard NLP obtained by pinning one side of every switch: G_k = 0 for
    k in eq_G, H_k = 0 for every other k (eq_H), so its feasible set sits
    inside the instance's.

    Inequalities are all of g; the p + l equalities are h plus G over eq_G
    and H over eq_H.
    """

    problem: MpscProblem
    eq_G: tuple

    @property
    def eq_H(self) -> tuple:
        return tuple(k for k in range(self.problem.l) if k not in self.eq_G)

    def equalities(self):
        """Equality items: every h, then G over eq_G and H over eq_H."""
        return ([("h", j) for j in range(self.problem.p)]
                + [("G", k) for k in self.eq_G] + [("H", k) for k in self.eq_H])

    def label(self):
        """The pinned side, G or H, of each switch in order, or "unconstrained"."""
        return "".join("G" if k in self.eq_G else "H"
                       for k in range(self.problem.l)) or "unconstrained"

    def residual(self, x):
        """l2 violation of the branch's own items: every g, h, and G over
        eq_G and H over eq_H; an unpinned switch side is not evaluated."""
        P = self.problem
        return self.residual_of(P.values(x, self.equalities() + [("g", i) for i in range(P.m)]))

    def residual_of(self, V):
        """residual from the values of equalities() + every g, in that order: the
        instance's formula with the equalities as h and no switch terms."""
        r = self.problem.p + self.problem.l
        return MpscProblem.residual_of(V[..., r:], V[..., :r], V[..., :0], V[..., :0])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def load_problem(source: str, *, from_path: bool | None = None) -> MpscProblem:
    """Load an instance from a file path or from literal text.

    Strings containing a newline are treated as text; anything else as a
    path (override with from_path).
    """
    if from_path is None:
        from_path = "\n" not in source
    text = Path(source).read_text() if from_path else source

    var_names = None
    f = None
    g, h, pairs = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "vars":
                if var_names is not None:
                    raise ParseError("duplicate vars line", line=lineno)
                names = tuple(rest.split())
                if not names:
                    raise ParseError("vars line needs at least one name", line=lineno)
                if len(set(names)) != len(names):
                    raise ParseError("duplicate variable names", line=lineno)
                var_names = names
                continue
            if var_names is None:
                raise ParseError("vars line must come first", line=lineno)
            if head == "min":
                if f is not None:
                    raise ParseError("duplicate min line", line=lineno)
                f = ex.parse_expr(rest, var_names)
            elif head == "ineq":
                g.append(ex.parse_expr(rest, var_names))
            elif head == "eq":
                h.append(ex.parse_expr(rest, var_names))
            elif head == "switch":
                left, bar, right = rest.partition("|")
                if not bar:
                    raise ParseError("switch line needs '<expr> | <expr>'", line=lineno)
                pairs.append((ex.parse_expr(left.strip(), var_names),
                              ex.parse_expr(right.strip(), var_names)))
            else:
                raise ParseError(f"unknown directive {head!r}", line=lineno)
        except ParseError as err:
            if err.line is None:
                raise ParseError(str(err), line=lineno) from err
            raise
    if var_names is None:
        raise ParseError("missing vars line", line=0)
    if f is None:
        raise ParseError("missing min line", line=0)
    return MpscProblem(len(var_names), var_names, f, tuple(g), tuple(h), tuple(pairs))


def problem_text(P: MpscProblem) -> str:
    """Canonical re-rendering of an instance in the file format."""
    lines = ["vars " + " ".join(P.var_names), "min " + ex.to_text(P.f, P.var_names)]
    lines += ["ineq " + ex.to_text(e, P.var_names) for e in P.g]
    lines += ["eq " + ex.to_text(e, P.var_names) for e in P.h]
    lines += [f"switch {ex.to_text(G, P.var_names)} | {ex.to_text(H, P.var_names)}"
              for G, H in P.switch_pairs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# index sets and branches
# ---------------------------------------------------------------------------

def index_sets(values, tol: Tolerances) -> IndexSets:
    """Active sets from the (g, h, G, H) values at a feasible point; |value| <= tau_act."""
    g, h, G, H = values
    r = float(MpscProblem.residual_of(g, h, G, H))
    if r > tol.tau_feas:
        raise InfeasiblePointError(f"point is infeasible (residual {r:.3g})")
    I_g = tuple(i for i in range(len(g)) if abs(g[i]) <= tol.tau_act)
    I_G, I_H, I_GH = [], [], []
    for k in range(len(G)):
        gz, hz = abs(G[k]) <= tol.tau_act, abs(H[k]) <= tol.tau_act
        if gz and hz:
            I_GH.append(k)
        elif gz:
            I_G.append(k)
        elif hz:
            I_H.append(k)
        else:
            raise InfeasiblePointError(
                f"switch pair {k} has neither side active (G={G[k]:.3g}, H={H[k]:.3g})")
    return IndexSets(I_g, tuple(range(len(h))), tuple(I_G), tuple(I_H), tuple(I_GH))


def bipartitions(switches) -> list[Bipartition]:
    """All 2^n splits (beta1, beta2) of n switch indices, in order of the
    membership mask over the sorted indices (bit b: the b-th is in beta1).
    SizeCapError past MAX_BIACTIVE switches."""
    switches = tuple(sorted(switches))
    if len(switches) > MAX_BIACTIVE:
        raise SizeCapError(f"{len(switches)} switches to split exceed cap {MAX_BIACTIVE}")
    return [Bipartition(tuple(k for b, k in enumerate(switches) if mask >> b & 1),
                        tuple(k for b, k in enumerate(switches) if not mask >> b & 1))
            for mask in range(2 ** len(switches))]


def branch(P: MpscProblem, I: IndexSets, b: Bipartition) -> BranchProblem:
    """Branch problem for a bipartition of the biactive set at a point: G
    pinned over I_G and beta1, H over I_H and beta2."""
    return BranchProblem(P, tuple(sorted(I.I_G + b.beta1)))


def all_branches(P: MpscProblem) -> list[BranchProblem]:
    """The branch of each bipartition of all l switches, in reverse mask
    order (the all-G branch first); their union is the feasible set."""
    return [BranchProblem(P, b.beta1) for b in reversed(bipartitions(range(P.l)))]
