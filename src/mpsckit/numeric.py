"""Dense small-scale numeric kernels.

Rank, nullspace and stacked least squares are SVD-based with a relative
cutoff; a stack of symmetric eigensolves is one LAPACK call.  The LP solver
is a deterministic two-phase dense simplex with Bland's rule over the
standard form A z = b, z >= 0; generator enumeration is exhaustive over
active-set bases, ranked in batched SVDs, and decides emptiness by that
search, with no LP; a cone's only vertex is the origin, found by no search, and
a cone cut by one more row is cut from the uncut cone's generators in one step.
Everything here is sized for desk-scale inputs (tens of rows, not thousands).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, fields, is_dataclass, replace

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

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


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

    def contains(self, x, tol: float, s: float = 1.0) -> bool:  # residuals <= tol * (s + |x|)
        x = np.asarray(x, float)
        scale = s + float(np.linalg.norm(x))
        ok_eq = np.all(np.abs(self.A_eq @ x - self.b_eq) <= tol * scale)
        ok_le = np.all(self.A_le @ x - self.b_le <= tol * scale)
        return bool(ok_eq and ok_le)


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
    numpy scalars and arrays become Python numbers and lists, and a
    non-finite float becomes None, so the output is strict JSON."""
    if hasattr(obj, "to_json"):
        return sanitize(obj.to_json())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
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

def singular_values(M) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, float))
    if M.size == 0:
        return np.zeros(0)
    return np.linalg.svd(M, compute_uv=False)


def rank_tol(M, tol: Tolerances) -> int:
    """Singular values above tau_rank * sigma_max; rank 0 for zero/empty M."""
    return rank_margin(M, tol)[0]


def rank_margin(M, tol: Tolerances) -> tuple[int, float]:
    """The rank of M (as rank_tol counts it) and, from the same SVD, the
    smallest factor by which a singular value sits away from the cutoff:
    near 1 the rank decision is fragile, and inf means no ambiguity."""
    s = singular_values(M)
    if s.size == 0 or s[0] <= 0.0:
        return 0, math.inf
    cut = tol.tau_rank * s[0]
    return int(_svd_rank(s, tol)), min(max(x / cut, cut / x) for x in s if x > 0.0)


def _svd_rank(s, tol: Tolerances) -> np.ndarray:
    """The rank cutoff over the last axis of descending singular values: the
    count above tau_rank * sigma_max, 0 where sigma_max is 0 or s is empty."""
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    smax = s[..., :1]
    return np.where(smax[..., 0] > 0, np.sum(s > tol.tau_rank * smax, axis=-1), 0)


def rank_tol_batch(Ms, tol: Tolerances) -> np.ndarray:
    """Ranks of a stack of matrices, shape (N, q, n) -> (N,)."""
    return _svd_rank(np.linalg.svd(np.asarray(Ms, float), compute_uv=False), tol)


def nullspace(M, tol: Tolerances) -> np.ndarray:
    """Orthonormal basis (columns) of ker M; shape (n, n - rank)."""
    M = np.atleast_2d(np.asarray(M, float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, Vt = np.linalg.svd(M)
    return Vt[int(_svd_rank(s, tol)):].T.copy()


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


def eig_sym(M):
    """Eigenvalues ascending and orthonormal eigenvectors of a symmetric M."""
    M = np.atleast_2d(np.asarray(M, float))
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.size and np.max(np.abs(M - M.T)) > 1e-10 * (1.0 + np.max(np.abs(M))):
        raise ValueError("matrix must be symmetric")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return w, V


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
    signed vertices of {B z = 0, sum of the parts = 1} (rhs unused, needs
    tol), one per extreme nonzero combination; SizeCapError beyond the
    enumeration caps.
    """
    B = np.asarray(B, float)
    n, k = B.shape
    free = [c for c in range(k) if not nonneg[c]]
    A = np.hstack([B, -B[:, free]])
    if mode == "residual":
        A = np.hstack([A, np.eye(n), -np.eye(n)])
    elif mode == "rays":
        A = np.vstack([A, np.ones((1, A.shape[1]))])
        rhs = np.concatenate([np.zeros(n), [1.0]])
    nc = A.shape[1]

    def signed(v):
        z = v[:k].copy()
        z[free] -= v[k:k + len(free)]
        return z

    if nc == 0:
        ok = mode != "rays" and np.linalg.norm(rhs) <= 1e-9
        return {"feasible": ok, "l1": np.zeros(0) if ok else None, "rays": []}[mode]
    if mode == "feasible":
        return lp_solve(None, A, rhs).status == "optimal"
    if mode == "rays":
        pol = Polyhedron.make(nc, A_eq=A, b_eq=rhs, A_le=-np.eye(nc), b_le=np.zeros(nc))
        try:
            return [signed(v) for v in enumerate_generators(pol, tol).vertices]
        except ValueError:  # infeasible: no nonzero combination at all
            return []
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

def _dedupe_points(points, s, tol=1e-7):
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol * (s + np.linalg.norm(q)) for q in out):
            out.append(p)
    return out


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


def _bases(P: Polyhedron, size):
    """The candidate bases [A_eq; A_le[S]] and right-hand sides over S in
    combinations(range(m_le), size), in blocks of shape (N, q, n), (N, q);
    SizeCapError when there are more than _MAX_BASES of them."""
    if math.comb(P.A_le.shape[0], size) > _MAX_BASES:
        raise SizeCapError("too many candidate active sets")
    m_eq = P.A_eq.shape[0]
    M, b = np.vstack([P.A_eq, P.A_le]), np.concatenate([P.b_eq, P.b_le])
    combos = itertools.combinations(range(m_eq, m_eq + P.A_le.shape[0]), size)
    while S := list(itertools.islice(combos, _BASES_PER_BATCH)):
        S = np.array(S, dtype=int).reshape(len(S), size)
        rows = np.hstack([np.broadcast_to(np.arange(m_eq), (len(S), m_eq)), S])
        yield M[rows], b[rows]


def _vertex_candidates(P: Polyhedron, size, s, tol: Tolerances):
    """Basic solutions of the full-rank candidate bases that lie in P at scale s."""
    for Ms, bs in _bases(P, size):
        full = rank_tol_batch(Ms, tol) >= P.dim
        for A, b in zip(Ms[full], bs[full]):
            x = np.linalg.lstsq(A, b, rcond=None)[0]
            if np.max(np.abs(A @ x - b)) > 1e-7 * (1.0 + np.linalg.norm(b)):
                continue
            if P.contains(x, tol.tau_feas, s):
                yield x


def _kernel_lines(Ms, tol: Tolerances):
    """The kernel direction of each basis whose kernel is a line, cut from one
    batched SVD exactly as nullspace cuts it (no rows: the kernel is eye(n))."""
    N, q, n = Ms.shape
    if q == 0:
        return [np.eye(n)[:, 0]] * N if n == 1 else []
    _, s, Vt = np.linalg.svd(Ms)
    r = _svd_rank(s, tol)
    return [Vt[i, r[i]] for i in range(N) if r[i] == n - 1]


def _enumerate_pointed(P: Polyhedron, tol: Tolerances):
    """Vertices and extreme rays of a polyhedron whose lineality is trivial.
    A cone is never empty: its only vertex, the origin, needs no search; the
    vertex search tests containment and merges points at the scale s = max|b|.
    The ray search ranks and cuts each block of candidate bases from one SVD."""
    n = P.dim
    rank_eq = rank_tol(P.A_eq, tol) if P.A_eq.size else 0
    m_le = P.A_le.shape[0]
    s = float(np.max(np.abs(np.concatenate([P.b_eq, P.b_le])), initial=0.0))
    vertices = ([np.zeros(n)] if s == 0.0 else
                _dedupe_points(_vertex_candidates(P, min(n - rank_eq, m_le), s, tol), s))

    # recession cone {A_eq d = 0, A_le d <= 0}; extreme rays have n-1
    # linearly independent active rows
    rays = []
    if rank_eq < n:
        for Ms, _ in _bases(P, min(n - 1 - rank_eq, m_le)):
            for d in _kernel_lines(Ms, tol):
                for cand in (d, -d):
                    if P.A_le.size == 0 or np.max(P.A_le @ cand) <= 1e-9:
                        rays.append(cand / np.linalg.norm(cand))
    return vertices, _dedupe_rays(rays)


def enumerate_generators(P: Polyhedron, tol: Tolerances) -> Generators:
    """Exact generator list (vertices, extreme rays, lineality basis).

    Rows and right-hand sides are first scaled to unit norm, so no rank
    decision rests on a row's scale.  With nontrivial lineality the search
    runs in the quotient space and the "vertices" are minimal-face points.
    A cone (b = 0) is never empty: its only vertex, the origin, needs no
    search; the ray search ranks and cuts each block of bases by one SVD.
    Other emptiness needs no LP: a pointed polyhedron with no vertex (or,
    with no quotient left, without the origin) is empty and raises
    ValueError("infeasible"); SizeCapError beyond the desk-scale caps.
    """
    check_caps(P)
    n, q = P.dim, P.A_eq.shape[0]
    stacked, b = np.vstack([P.A_eq, P.A_le]), np.concatenate([P.b_eq, P.b_le])
    s = np.linalg.norm(stacked, axis=1)
    s[s == 0.0] = 1.0
    stacked, b = stacked / s[:, None], b / s
    P = Polyhedron(stacked[:q], b[:q], stacked[q:], b[q:], n)
    L = nullspace(stacked, tol) if stacked.size else np.eye(n)
    Q = nullspace(L.T, tol)  # orthonormal complement, shape (n, n - dim L)
    if Q.shape[1] == 0:  # no row is left to bound the origin's face
        verts = [np.zeros(n)] if P.contains(np.zeros(n), tol.tau_feas) else []
        rays = []
    elif L.shape[1] == 0:
        verts, rays = _enumerate_pointed(P, tol)
    else:  # quotient out the lineality space: x = Q z + L w
        Pq = Polyhedron.make(Q.shape[1], A_eq=P.A_eq @ Q, b_eq=P.b_eq,
                             A_le=P.A_le @ Q, b_le=P.b_le)
        verts, rays = _enumerate_pointed(Pq, tol)
        verts, rays = [Q @ v for v in verts], [Q @ r for r in rays]
    if not verts:
        raise ValueError("infeasible polyhedron")
    return Generators(verts, rays, [L[:, j] for j in range(L.shape[1])])


def cut_generators(gen: Generators, rows, a, lineality, tol: Tolerances) -> Generators:
    """Generators of {d in cone(gen) : a . d <= 0} by one double-description step
    (Motzkin et al. 1953), given the cone's unit rows, the unit cut row a and the cut
    cone's lineality basis: a lost lineality direction l (a . l < 0) joins the rays,
    shifted along it onto a . d = 0; else rays with a . r <= 1e-9 stay and each pair
    across the cut with common active rows of rank k - 2 (k = dim of quotient) adds one."""
    L, R = np.reshape(gen.lineality, (-1, len(a))).T, np.reshape(gen.rays, (-1, len(a)))
    if lineality.shape[1] < L.shape[1]:
        l = -L @ (L.T @ a)
        R = np.vstack([l, R - np.outer(R @ a / (a @ l), l)])
    else:
        s, k, Z = R @ a, len(a) - L.shape[1], np.abs(R @ rows.T) <= 1e-9
        R = np.vstack([R[s <= 1e-9]] + [s[p] * R[q] - s[q] * R[p] for p in np.flatnonzero(s > 1e-9)
                                        for q in np.flatnonzero(s < -1e-9)
                                        if k <= 2 or rank_tol(rows[Z[p] & Z[q]], tol) >= k - 2])
    R = R - (R @ lineality) @ lineality.T
    return Generators([np.zeros_like(a)], _dedupe_rays(R / np.linalg.norm(R, axis=1)[:, None]),
                      list(lineality.T))
