"""Dense small-scale numeric kernels.

Rank, nullspace and stacked least squares are SVD-based with a relative
cutoff; a stack of symmetric eigensolves is one LAPACK call.  The LP solver
is a deterministic two-phase dense simplex with Bland's rule over the
standard form A z = b, z >= 0; generator enumeration is one exhaustive ray
search over active-set bases, ranked in SVDs batched over the bases and over a
stack of same-shape polyhedra (a cone union's pieces): a polyhedron's vertices
are the rays of the cone over it, so that search also decides emptiness, with
no LP; a cone's only vertex is the origin, and a cone cut by one more row is
cut from the uncut cone's generators in one step.
Everything here is sized for desk-scale inputs (tens of rows, not thousands).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # private: the stacked lstsq and eigh gufuncs

from .errors import NumericBreakdownError, SizeCapError

MAX_GEN_CONSTRAINTS = 24
MAX_GEN_DIM = 12
_MAX_BASES = 200_000
_BASES_PER_BATCH = 4096  # bounds the memory of one batched SVD
MAX_SIMPLEX_PIVOTS = 50_000


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds and sampling parameters shared across the toolkit."""

    tau_rank: float = 1e-8     # relative singular-value cutoff
    tau_act: float = 1e-8      # active-set threshold
    tau_feas: float = 1e-8     # feasibility / residual threshold
    tau_psd: float = 1e-8      # eigenvalue nonnegativity slack
    angular_tol: float = 0.05  # radians to T beyond which a direction is not tangent
    seed: int = 42
    n_samples: int = 512
    eps_ball: float = 1e-2     # neighbourhood sampling radius

    def __post_init__(self):
        for name in ("tau_rank", "tau_act", "tau_feas", "tau_psd",
                     "angular_tol", "eps_ball"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be strictly positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def rng(self, *tags) -> np.random.Generator:
        """Deterministic per-task substream keyed by (seed, tags)."""
        key = [self.seed] + [zlib.crc32(str(t).encode()) for t in tags]
        return np.random.default_rng(key)


@dataclass(frozen=True)
class Polyhedron:
    """{x : A_eq x = b_eq, A_le x <= b_le} in dimension `dim`."""

    A_eq: np.ndarray
    b_eq: np.ndarray
    A_le: np.ndarray
    b_le: np.ndarray
    dim: int

    @staticmethod
    def make(dim, A_eq=None, b_eq=None, A_le=None, b_le=None) -> "Polyhedron":
        A_eq = np.zeros((0, dim)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
        A_le = np.zeros((0, dim)) if A_le is None else np.atleast_2d(np.asarray(A_le, float))
        # an empty matrix of another width has no rows; one of width dim
        # keeps its rows, which in dimension 0 still carry right-hand sides
        if A_eq.size == 0 and A_eq.shape[1] != dim:
            A_eq = A_eq.reshape(0, dim)
        if A_le.size == 0 and A_le.shape[1] != dim:
            A_le = A_le.reshape(0, dim)
        b_eq = np.zeros(A_eq.shape[0]) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
        b_le = np.zeros(A_le.shape[0]) if b_le is None else np.atleast_1d(np.asarray(b_le, float))
        if A_eq.shape != (len(b_eq), dim) or A_le.shape != (len(b_le), dim):
            raise ValueError("inconsistent polyhedron shapes")
        return Polyhedron(A_eq, b_eq, A_le, b_le, dim)


@dataclass
class Generators:
    """Minimal V-representation: conv(vertices) + cone(rays) + span(lineality)."""

    vertices: list
    rays: list
    lineality: list

    def all_rays(self):
        """Rays including both signs of each lineality direction."""
        out = list(self.rays)
        for b in self.lineality:
            out.append(b)
            out.append(-b)
        return out


def sanitize(obj):
    """Coerce a result to plain JSON types: an object with to_json() goes
    through it, a dataclass becomes a dict of its fields in field order,
    numpy scalars and arrays become Python numbers and lists (an all-finite
    float array in one tolist call), and a non-finite float becomes None, so
    the output is strict JSON."""
    if hasattr(obj, "to_json"):
        return sanitize(obj.to_json())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim and np.isfinite(obj).all():
            return obj.tolist()
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# neighbourhood shells probed by the sampled checks, as fractions of eps_ball
RADII_FRACTIONS = (1.0, 0.25, 0.0625)


def ball_offsets(rng, count, n, radius):
    """count offsets drawn uniformly from the n-ball of the given radius."""
    U = rng.normal(size=(count, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return radius * rng.uniform(size=(count, 1)) ** (1.0 / n) * U


# ---------------------------------------------------------------------------
# rank / nullspace / eigensolve
# ---------------------------------------------------------------------------

def _svd_rank(s, tol: Tolerances) -> np.ndarray:
    """The rank cutoff over the last axis of descending singular values: the
    count above tau_rank * sigma_max, 0 where sigma_max is 0 or s is empty."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    smax = s[..., :1]
    return np.where(smax[..., 0] > 0, np.sum(s > tol.tau_rank * smax, axis=-1), 0)


@np.errstate(divide="ignore", invalid="ignore")  # a zero singular value has no factor
def rank_tol_batch(Ms, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of a stack of matrices, shape (N, q, n) -> (N,), and, from the same
    SVD, each one's margin: the smallest factor by which a nonzero singular value
    sits away from the cutoff; near 1 the rank decision is fragile, and inf means
    no ambiguity (a zero or empty matrix)."""
    s = np.linalg.svd(np.asarray(Ms, float), compute_uv=False)
    cut = tol.tau_rank * s[..., :1]
    far = np.where(s > 0.0, np.maximum(s / cut, cut / s), np.inf)
    return _svd_rank(s, tol), np.min(far, axis=-1, initial=np.inf)


def nullspace(M, tol: Tolerances):
    """Orthonormal basis (columns) of ker M, shape (n, n - rank); for a stack of
    matrices (N, q, n), the list of their bases from one batched SVD, each bit
    for bit its own matrix's."""
    M = np.asarray(M, float)
    if M.ndim < 3:
        return nullspace(np.atleast_2d(M)[None], tol)[0]
    _, s, Vt = np.linalg.svd(M)  # no rows: Vt is eye(n)
    return [V[r:].T.copy() for V, r in zip(Vt, _svd_rank(s, tol))]


def _lstsq_diverged(err, flag):
    raise NumericBreakdownError("least-squares SVD did not converge")


@np.errstate(all="ignore", invalid="call", call=_lstsq_diverged)
def lstsq_stack(A, b):
    """Least-squares solutions of a stack of systems (N, m, n), (N, m) -> (N, n),
    m >= 1, from one call of the LAPACK gufunc np.linalg.lstsq calls per matrix
    at its rcond=None cutoff, so each slice is bit for bit that call's solution.
    Non-finite input, or an SVD that does not converge, raises NumericBreakdownError."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NumericBreakdownError("least-squares input is not finite")
    return _umath_linalg.lstsq(A, b[..., None], np.finfo(float).eps * max(A.shape[-2:]),
                               signature="ddd->ddid")[0][..., 0]


def _eigh_diverged(err, flag):
    raise NumericBreakdownError("eigensolver did not converge")


@np.errstate(all="ignore", invalid="call", call=_eigh_diverged)
def eigh_stack(H):
    """np.linalg.eigh of a stack of finite symmetric matrices (N, n, n), bit for
    bit, from one call of the LAPACK gufunc it calls per stack; an iteration
    that does not converge raises NumericBreakdownError."""
    return _umath_linalg.eigh_lo(H, signature="d->dd")


# ---------------------------------------------------------------------------
# linear programming: two-phase dense simplex, Bland's rule
# ---------------------------------------------------------------------------

@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T, row, col):
    """Pivot tableau T in place on entry (row, col)."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


def _simplex_core(T, basis, n_total, tol):
    """Minimize the last row of tableau T in place; Bland's rule."""
    m = T.shape[0] - 1
    for _ in range(MAX_SIMPLEX_PIVOTS):
        # entering: smallest index with negative reduced cost
        enter = -1
        for j in range(n_total):
            if T[-1, j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # leaving: min ratio, ties by smallest basis variable index (Bland)
        leave, best, best_var = -1, math.inf, math.inf
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                ratio = T[i, -1] / a
                if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12
                                            and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise NumericBreakdownError(
        f"simplex did not terminate within {MAX_SIMPLEX_PIVOTS} pivots")


def _basic_solution(T, basis, nt):
    z = np.zeros(nt)
    for i, var in enumerate(basis):
        if var < nt:
            z[var] = T[i, -1]
    return z


def lp_solve(c, A, b) -> LpResult:
    """Minimize c.z subject to A z = b, z >= 0; c None decides feasibility by
    phase 1 alone.

    Returns a basic solution when the problem is bounded (the phase-1 one
    when c is None, with no value).
    """
    A = np.array(A, float)
    b = np.array(b, float)
    m, nt = A.shape
    if b.shape != (m,) or (c is not None and np.shape(c) != (nt,)):
        raise ValueError("LP dimension mismatch")
    tol = 1e-9
    neg = b < 0
    A[neg] *= -1.0
    b = np.abs(b)

    # phase 1: artificials
    T = np.zeros((m + 1, nt + m + 1))
    T[:m, :nt] = A
    T[:m, nt:nt + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, nt:nt + m] = 1.0
    basis = list(range(nt, nt + m))
    for i in range(m):  # price out artificials
        T[-1] -= T[i]
    # the phase-1 objective is bounded below by 0, so an "unbounded" stop is
    # pivoting noise and only the objective decides infeasibility
    _simplex_core(T, basis, nt + m, tol)
    if -T[-1, -1] > 1e-8:
        return LpResult("infeasible")
    if c is None:
        return LpResult("optimal", x=_basic_solution(T, basis, nt))
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= nt:
            for j in range(nt):
                if abs(T[i, j]) > tol:
                    _pivot(T, i, j)
                    basis[i] = j
                    break

    # phase 2
    T2 = np.zeros((m + 1, nt + 1))
    T2[:m, :nt] = T[:m, :nt]
    T2[:m, -1] = T[:m, -1]
    T2[-1, :nt] = c
    for i in range(m):
        if basis[i] < nt:
            T2[-1] -= T2[-1, basis[i]] * T2[i]
    if _simplex_core(T2, basis, nt, tol) == "unbounded":
        return LpResult("unbounded")
    z = _basic_solution(T2, basis, nt)
    return LpResult("optimal", x=z, value=float(np.dot(c, z)))


def combination_lp(B, nonneg, rhs, mode, tol: Tolerances | None = None):
    """Combinations B z = rhs with z_c >= 0 where nonneg[c] and z_c free elsewhere.

    Each free coordinate is split into the difference of two nonnegative
    parts: the system runs over the columns [B | -B_free] with every
    coordinate >= 0, in that order, and answers are mapped back to signed z;
    lp_solve takes this standard form as it is.
    mode "feasible": whether some z exists; "l1": the z of least l1 norm, or
    None; "residual": min ||B z - rhs||_1, through slack columns [I | -I]
    appended after the split (NumericBreakdownError if unsolved); "rays": the
    signed extreme rays of the cone {[B | -B_free] v = 0, v >= 0} (rhs unused,
    needs tol), their parts clipped at 0 so that z_c >= 0 holds exactly where
    nonneg[c], one per extreme nonzero combination (l1 > 1e-9: the two parts of a
    free column cancel on one ray); SizeCapError beyond the enumeration caps.
    """
    B = np.asarray(B, float)
    n, k = B.shape
    free = [c for c in range(k) if not nonneg[c]]
    A = np.hstack([B, -B[:, free]])
    if mode == "residual":
        A = np.hstack([A, np.eye(n), -np.eye(n)])
    nc = A.shape[1]

    def signed(v):
        z = v[:k].copy()
        z[free] -= v[k:k + len(free)]
        return z

    if nc == 0:
        ok = mode != "rays" and row_norms(np.atleast_2d(rhs))[0] <= 1e-9
        return {"feasible": ok, "l1": np.zeros(0) if ok else None, "rays": []}[mode]
    if mode == "feasible":
        return lp_solve(None, A, rhs).status == "optimal"
    if mode == "rays":
        pol = Polyhedron.make(nc, A_eq=A, A_le=-np.eye(nc))
        rays = [signed(np.maximum(v, 0.0)) for v in enumerate_generators(pol, tol).rays]
        return [z for z in rays if np.abs(z).sum() > 1e-9]  # a free column's e_c + e_c' is 0
    if mode == "residual":
        c = np.concatenate([np.zeros(nc - 2 * n), np.ones(2 * n)])
        res = lp_solve(c, A, rhs)
        if res.status != "optimal":
            raise NumericBreakdownError(f"residual LP ended {res.status}")
        return res.value
    res = lp_solve(np.ones(nc), A, rhs)
    return signed(res.x) if res.status == "optimal" else None


# ---------------------------------------------------------------------------
# generator enumeration
# ---------------------------------------------------------------------------

def _dedupe_rays(rays, tol=1e-7):
    out = []
    for r in rays:
        if not any(np.linalg.norm(r - q) <= tol for q in out):
            out.append(r)
    return out


def check_caps(P: Polyhedron):
    """SizeCapError for a polyhedron beyond the desk-scale enumeration caps."""
    n_con = P.A_eq.shape[0] + P.A_le.shape[0]
    if n_con > MAX_GEN_CONSTRAINTS or P.dim > MAX_GEN_DIM:
        raise SizeCapError(
            f"polyhedron too large for enumeration ({n_con} constraints, dim {P.dim})")


def row_norms(A) -> np.ndarray:
    """The Euclidean norm of each row of A or of a stack (..., rows, n), rescaled by the
    row's largest entry where the plain norm overflows, or underflows to 0 on a nonzero row."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(A, axis=-1)
    for i in zip(*np.nonzero(~(nrm > 0.0) | (nrm == np.inf))):
        s = np.max(np.abs(A[i]), initial=0.0)
        if 0.0 < s < np.inf:
            nrm[i] = s * np.linalg.norm(A[i] / s)
    return nrm


def unit_rows(A) -> np.ndarray:
    """A (or each matrix of a stack) with each nonzero row scaled to unit norm."""
    nrm = row_norms(A)[..., None]
    return A / np.where(nrm > 0.0, nrm, 1.0)


def _bases(A_eq, A_le, size):
    """The candidate bases [A_eq; A_le[S]] of each cone of a stack over S in
    combinations(range(m_le), size), cone by cone, in blocks of at most _BASES_PER_BATCH:
    (each basis's cone, the bases); SizeCapError past _MAX_BASES bases per cone."""
    (N, m_eq, _), m_le = A_eq.shape, A_le.shape[1]
    if math.comb(m_le, size) > _MAX_BASES:
        raise SizeCapError("too many candidate active sets")
    M = np.concatenate([A_eq, A_le], axis=1)
    bases = ((i, *range(m_eq), *S) for i in range(N)  # (cone, rows)
             for S in itertools.combinations(range(m_eq, m_eq + m_le), size))
    while (B := np.array(list(itertools.islice(bases, _BASES_PER_BATCH)), dtype=int)).size:
        yield B[:, 0], M[B[:, :1], B[:, 1:]]


def _kernel_lines(Ms, tol: Tolerances):
    """Per basis of a stack, its kernel direction where the kernel is a line, else
    None, cut from one batched SVD exactly as nullspace cuts it."""
    _, s, Vt = np.linalg.svd(Ms)
    return [V[r] if r == Ms.shape[2] - 1 else None for V, r in zip(Vt, _svd_rank(s, tol))]


def _extreme_rays(A_eq, A_le, tol: Tolerances) -> list:
    """Unit extreme rays, or the SizeCapError, of each pointed cone {A_eq d = 0, A_le d <= 0}
    of a stack: the kernel lines of the bases with n - 1 independent rows that meet every
    row, ranked and cut in batched SVDs over the cones of one equality rank."""
    N, _, n = A_eq.shape
    rank_eq = rank_tol_batch(A_eq, tol)[0]
    rays = [[] for _ in range(N)]
    for r in sorted(set(rank_eq[rank_eq < n].tolist())):  # np.unique would import numpy.ma
        group = np.flatnonzero(rank_eq == r)
        try:
            for owner, Ms in _bases(A_eq[group], A_le[group], min(n - 1 - r, A_le.shape[1])):
                for i, d in zip(group[owner], _kernel_lines(Ms, tol)):
                    for cand in () if d is None else (d, -d):
                        if np.max(A_le[i] @ cand, initial=0.0) <= 1e-9:
                            rays[i].append(cand / np.linalg.norm(cand))
        except SizeCapError as err:
            for i in group:
                rays[i] = err
    return [r if isinstance(r, SizeCapError) else _dedupe_rays(r) for r in rays]


def enumerate_generators(P, tol: Tolerances):
    """Exact generator list (vertices, extreme rays, lineality basis) from one
    ray search.  For a list of same-shape polyhedra (a cone union's pieces), each
    one's result, or the ValueError or basis-count SizeCapError it met, bit for bit
    from one search stacked over them: each SVD is one call over the pieces of one
    lineality and equality rank.

    Rows and right-hand sides are first scaled to unit norm, so no rank
    decision rests on a row's scale, and the search runs in the quotient of
    the lineality space, where the "vertices" are minimal-face points.  A
    cone (b = 0) is never empty: its only vertex is the origin.  Any other P
    is searched as the cone over it, {(x, t) : A x <= b t / s, t >= 0} at its
    own scale s = max|b| (Fukuda & Prodon 1996): the rays with t > 0 are its
    vertices s x / t, those with t = 0 its rays; with none of the first, P is
    empty and ValueError("infeasible polyhedron") is raised, with no LP.
    SizeCapError beyond the desk-scale caps.
    """
    Ps = [P] if isinstance(P, Polyhedron) else P
    for p in Ps:
        check_caps(p)
    n, q = Ps[0].dim, Ps[0].A_eq.shape[0]
    A = np.stack([np.vstack([p.A_eq, p.A_le]) for p in Ps])
    b = np.stack([np.concatenate([p.b_eq, p.b_le]) for p in Ps])
    nrm = row_norms(A)
    nrm[nrm == 0.0] = 1.0
    A, b = A / nrm[..., None], b / nrm
    Ls = nullspace(A, tol)
    s, groups, out = np.max(np.abs(b), axis=1, initial=0.0), {}, [None] * len(Ps)
    for i, L in enumerate(Ls):  # one lineality rank and kind, one search shape
        groups.setdefault((L.shape[1], s[i] == 0.0), []).append(i)
    for idx in groups.values():
        Qs = nullspace(np.stack([Ls[i].T for i in idx]), tol)  # orthonormal complements
        H = np.stack([np.vstack([A[i, :q] @ Q, A[i, q:] @ Q]) if s[i] == 0.0 else
                      unit_rows(np.block([[A[i] @ Q, -b[i, :, None] / s[i]],
                                          [np.zeros((1, Q.shape[1])), -1.0]]))
                      for i, Q in zip(idx, Qs)])
        for i, Q, R in zip(idx, Qs, _extreme_rays(H[:, :q], H[:, q:], tol)):
            if isinstance(R, SizeCapError):
                out[i] = R
            elif s[i] == 0.0:
                out[i] = Generators([np.zeros(n)], [Q @ r for r in R], list(Ls[i].T))
            elif vertices := [s[i] * (Q @ r[:-1]) / r[-1] for r in R if r[-1] > 1e-9]:
                R = [Q @ r[:-1] for r in R if r[-1] <= 1e-9]
                out[i] = Generators(vertices, [r / np.linalg.norm(r) for r in R], list(Ls[i].T))
            else:
                out[i] = ValueError("infeasible polyhedron")
    if Ps is not P and isinstance(out[0], Exception):
        raise out[0]
    return out if Ps is P else out[0]


def cut_generators(gen: Generators, rows, a, lineality) -> Generators:
    """Generators of {d in cone(gen) : a . d <= 0} by one double-description step
    (Motzkin et al. 1953), given the cone's unit rows, the unit cut row a and the cut
    cone's lineality basis: a lost lineality direction l (a . l < 0) joins the rays,
    shifted along it onto a . d = 0; else rays with a . r <= 1e-9 stay and each pair
    across the cut that is adjacent adds one.  Rays p and q are adjacent when no third
    ray is zero on every row zero at both (the combinatorial test, no rank)."""
    L, R = np.reshape(gen.lineality, (-1, len(a))).T, np.reshape(gen.rays, (-1, len(a)))
    if lineality.shape[1] < L.shape[1]:
        l = -L @ (L.T @ a)
        R = np.vstack([l, R - np.outer(R @ a / (a @ l), l)])
    else:
        s, Z = R @ a, np.abs(R @ rows.T) <= 1e-9
        R = np.vstack([R[s <= 1e-9]] + [s[p] * R[q] - s[q] * R[p] for p in np.flatnonzero(s > 1e-9)
                                        for q in np.flatnonzero(s < -1e-9)
                                        if np.count_nonzero((Z | ~(Z[p] & Z[q])).all(axis=1)) == 2])
    Q = R - (R @ lineality) @ lineality.T
    q = np.linalg.norm(Q, axis=1)
    keep = q > 1e-9 * np.linalg.norm(R, axis=1)  # a ray inside the lineality space is none
    return Generators([np.zeros_like(a)], _dedupe_rays(Q[keep] / q[keep, None]),
                      list(lineality.T))
