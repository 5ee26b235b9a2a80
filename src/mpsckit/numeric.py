"""Dense small-scale numeric kernels.

Rank and nullspace are SVD-based with a relative cutoff.  The LP solver is a
deterministic two-phase dense simplex with Bland's rule; generator
enumeration is exhaustive over active-set bases.  Everything here is sized
for desk-scale inputs (tens of rows, not thousands).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericBreakdownError, SizeCapError

MAX_GEN_CONSTRAINTS = 24
MAX_GEN_DIM = 12
_MAX_BASES = 200_000
MAX_SIMPLEX_PIVOTS = 50_000


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds and sampling parameters shared across the toolkit."""

    tau_rank: float = 1e-8     # relative singular-value cutoff
    tau_act: float = 1e-8      # active-set threshold
    tau_feas: float = 1e-8     # feasibility / residual threshold
    tau_psd: float = 1e-8      # eigenvalue nonnegativity slack
    angular_tol: float = 0.05  # radians, cone-direction matching
    seed: int = 42
    n_samples: int = 512
    eps_ball: float = 1e-2     # neighbourhood sampling radius

    def __post_init__(self):
        for name in ("tau_rank", "tau_act", "tau_feas", "tau_psd",
                     "angular_tol", "eps_ball"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be strictly positive")

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
        if A_eq.size == 0:
            A_eq = A_eq.reshape(0, dim)
        if A_le.size == 0:
            A_le = A_le.reshape(0, dim)
        b_eq = np.zeros(A_eq.shape[0]) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
        b_le = np.zeros(A_le.shape[0]) if b_le is None else np.atleast_1d(np.asarray(b_le, float))
        if A_eq.shape != (len(b_eq), dim) or A_le.shape != (len(b_le), dim):
            raise ValueError("inconsistent polyhedron shapes")
        return Polyhedron(A_eq, b_eq, A_le, b_le, dim)

    def contains(self, x, tol: float) -> bool:
        x = np.asarray(x, float)
        scale = 1.0 + float(np.linalg.norm(x))
        ok_eq = self.A_eq.size == 0 or np.max(np.abs(self.A_eq @ x - self.b_eq)) <= tol * scale
        ok_le = self.A_le.size == 0 or np.max(self.A_le @ x - self.b_le) <= tol * scale
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
    """Coerce numpy scalars/arrays and to_json() objects to plain JSON types."""
    if hasattr(obj, "to_json"):
        return sanitize(obj.to_json())
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


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
    s = singular_values(M)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol.tau_rank * s[0]))


def rank_margin(M, tol: Tolerances) -> float:
    """Smallest factor by which a singular value sits away from the cutoff.

    Values near 1 mean the rank decision is fragile; callers may degrade a
    verdict to UNKNOWN.  Returns inf when there is no ambiguity.
    """
    s = singular_values(M)
    if s.size == 0 or s[0] <= 0.0:
        return math.inf
    cut = tol.tau_rank * s[0]
    margins = [max(x / cut, cut / x) for x in s if x > 0.0]
    return min(margins) if margins else math.inf


def rank_tol_batch(Ms, tol: Tolerances) -> np.ndarray:
    """Ranks of a stack of matrices, shape (N, q, n) -> (N,)."""
    Ms = np.asarray(Ms, float)
    if Ms.shape[1] == 0 or Ms.shape[2] == 0:
        return np.zeros(Ms.shape[0], dtype=int)
    s = np.linalg.svd(Ms, compute_uv=False)
    smax = s[:, 0]
    cut = tol.tau_rank * np.where(smax > 0, smax, 1.0)
    return np.sum(s > cut[:, None], axis=1).astype(int)


def nullspace(M, tol: Tolerances) -> np.ndarray:
    """Orthonormal basis (columns) of ker M; shape (n, n - rank)."""
    M = np.atleast_2d(np.asarray(M, float))
    n = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > tol.tau_rank * smax)) if smax > 0 else 0
    return Vt[r:].T.copy()


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
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    raise NumericBreakdownError(
        f"simplex did not terminate within {MAX_SIMPLEX_PIVOTS} pivots")


def _standard_form(c, P: Polyhedron):
    """Split free vars, add slacks: min c~ z s.t. A z = b, z >= 0."""
    n = P.dim
    m_le = P.A_le.shape[0]
    A = np.hstack([
        np.vstack([P.A_eq, P.A_le]),
        -np.vstack([P.A_eq, P.A_le]),
        np.vstack([np.zeros((P.A_eq.shape[0], m_le)), np.eye(m_le)]),
    ])
    b = np.concatenate([P.b_eq, P.b_le])
    cc = np.concatenate([c, -c, np.zeros(m_le)])
    return A, b, cc


def lp_solve(c, P: Polyhedron, sense: str = "min") -> LpResult:
    """Solve min/max c.x over P, or decide feasibility (sense="feasibility").

    Returns a basic solution when the problem is bounded.  Feasibility is
    decided by phase 1 alone.
    """
    c = np.zeros(P.dim) if sense == "feasibility" else np.asarray(c, float)
    if c.shape != (P.dim,):
        raise ValueError("objective dimension mismatch")
    if sense == "max":
        c = -c
    tol = 1e-9
    A, b, cc = _standard_form(c, P)
    m, nt = A.shape
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
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= nt:
            for j in range(nt):
                if abs(T[i, j]) > tol:
                    piv = T[i, j]
                    T[i] /= piv
                    for k in range(m + 1):
                        if k != i and T[k, j] != 0.0:
                            T[k] -= T[k, j] * T[i]
                    basis[i] = j
                    break

    # phase 2
    T2 = np.zeros((m + 1, nt + 1))
    T2[:m, :nt] = T[:m, :nt]
    T2[:m, -1] = T[:m, -1]
    T2[-1, :nt] = cc
    for i in range(m):
        if basis[i] < nt:
            T2[-1] -= T2[-1, basis[i]] * T2[i]
    status = _simplex_core(T2, basis, nt, tol)
    if status == "unbounded":
        return LpResult("unbounded")
    z = np.zeros(nt)
    for i in range(m):
        if basis[i] < nt:
            z[basis[i]] = T2[i, -1]
    x = z[:P.dim] - z[P.dim:2 * P.dim]
    value = float(np.dot(c, x))
    if sense == "max":
        value = -value
    return LpResult("optimal", x=x, value=value)


def combination_lp(B, nonneg, rhs, mode, tol: Tolerances | None = None):
    """Combinations B z = rhs with z_c >= 0 where nonneg[c] and z_c free elsewhere.

    Each free coordinate is split into the difference of two nonnegative
    parts: the system runs over the columns [B | -B_free] with every
    coordinate >= 0, in that order, and answers are mapped back to signed z.
    mode "feasible": whether some z exists; "l1": the z of least l1 norm, or
    None; "residual": min ||B z - rhs||_1, through slack columns [I | -I]
    appended after the split; "rays": the signed vertices of
    {B z = 0, sum of the parts = 1} (rhs unused, needs tol), one per extreme
    nonzero combination; SizeCapError beyond the enumeration caps.
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
    pol = Polyhedron.make(nc, A_eq=A, b_eq=rhs, A_le=-np.eye(nc), b_le=np.zeros(nc))
    if mode == "feasible":
        return lp_solve(None, pol, sense="feasibility").status == "optimal"
    if mode == "rays":
        try:
            return [signed(v) for v in enumerate_generators(pol, tol).vertices]
        except ValueError:  # infeasible: no nonzero combination at all
            return []
    if mode == "residual":
        c = np.concatenate([np.zeros(nc - 2 * n), np.ones(2 * n)])
        return float(lp_solve(c, pol, sense="min").value)
    res = lp_solve(np.ones(nc), pol, sense="min")
    return signed(res.x) if res.status == "optimal" else None


# ---------------------------------------------------------------------------
# generator enumeration
# ---------------------------------------------------------------------------

def _dedupe_points(points, tol=1e-7):
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol * (1.0 + np.linalg.norm(q)) for q in out):
            out.append(p)
    return out


def _dedupe_rays(rays, tol=1e-7):
    out = []
    for r in rays:
        if not any(np.linalg.norm(r - q) <= tol for q in out):
            out.append(r)
    return out


def _check_caps(P: Polyhedron):
    n_con = P.A_eq.shape[0] + P.A_le.shape[0]
    if n_con > MAX_GEN_CONSTRAINTS or P.dim > MAX_GEN_DIM:
        raise SizeCapError(
            f"polyhedron too large for enumeration "
            f"({n_con} constraints, dim {P.dim})")


def _enumerate_pointed(P: Polyhedron, tol: Tolerances):
    """Vertices and extreme rays of a polyhedron whose lineality is trivial."""
    n = P.dim
    rank_eq = rank_tol(P.A_eq, tol) if P.A_eq.size else 0
    m_le = P.A_le.shape[0]

    vertices = []
    k = n - rank_eq
    if k >= 0:
        if math.comb(m_le, min(k, m_le)) > _MAX_BASES:
            raise SizeCapError("too many candidate active sets")
        for S in itertools.combinations(range(m_le), min(k, m_le)):
            A = np.vstack([P.A_eq, P.A_le[list(S)]]) if S else np.vstack([P.A_eq, np.zeros((0, n))])
            b = np.concatenate([P.b_eq, P.b_le[list(S)]])
            if rank_tol(A, tol) < n:
                continue
            x, res, *_ = np.linalg.lstsq(A, b, rcond=None)
            if A.shape[0] and np.max(np.abs(A @ x - b)) > 1e-7 * (1.0 + np.linalg.norm(b)):
                continue
            if P.contains(x, tol.tau_feas):
                vertices.append(x)
    vertices = _dedupe_points(vertices)

    # recession cone {A_eq d = 0, A_le d <= 0}; extreme rays have n-1
    # linearly independent active rows
    rays = []
    target = n - 1 - rank_eq
    if target >= 0 and math.comb(m_le, min(target, m_le)) <= _MAX_BASES:
        for S in itertools.combinations(range(m_le), min(target, m_le)):
            A = np.vstack([P.A_eq, P.A_le[list(S)]])
            if rank_tol(A, tol) != n - 1:
                continue
            ker = nullspace(A, tol)
            if ker.shape[1] != 1:
                continue
            d = ker[:, 0]
            for cand in (d, -d):
                if P.A_le.size == 0 or np.max(P.A_le @ cand) <= 1e-9:
                    rays.append(cand / np.linalg.norm(cand))
    rays = _dedupe_rays(rays)
    return vertices, rays


def enumerate_generators(P: Polyhedron, tol: Tolerances) -> Generators:
    """Exact generator list (vertices, extreme rays, lineality basis).

    For a polyhedron with nontrivial lineality the enumeration runs in the
    quotient space and the reported "vertices" are minimal-face points.
    Raises SizeCapError beyond the desk-scale caps and ValueError("infeasible")
    for an empty polyhedron.
    """
    _check_caps(P)
    if lp_solve(None, P, sense="feasibility").status == "infeasible":
        raise ValueError("infeasible polyhedron")
    n = P.dim
    if n == 0:
        return Generators([np.zeros(0)], [], [])

    stacked = np.vstack([P.A_eq, P.A_le])
    L = nullspace(stacked, tol) if stacked.size else np.eye(n)
    if L.shape[1] == 0:
        verts, rays = _enumerate_pointed(P, tol)
        return Generators(verts, rays, [])

    # quotient out the lineality space: x = Q z + L w
    Q = nullspace(L.T, tol)  # orthonormal complement, shape (n, n - dim L)
    if Q.shape[1] == 0:
        return Generators([np.zeros(n)], [], [L[:, j] for j in range(L.shape[1])])
    Pq = Polyhedron.make(Q.shape[1], A_eq=P.A_eq @ Q, b_eq=P.b_eq,
                         A_le=P.A_le @ Q, b_le=P.b_le)
    verts_q, rays_q = _enumerate_pointed(Pq, tol)
    return Generators(
        [Q @ v for v in verts_q],
        [Q @ r for r in rays_q],
        [L[:, j] for j in range(L.shape[1])],
    )
