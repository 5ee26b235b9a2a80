"""The basis walk: generator enumeration one candidate basis at a time.

Each basis is stacked, ranked, solved and kernel-cut on its own, with no
early exit, and each cone of a stack is walked on its own.  `extreme_rays` is
the reference the batched ray search `mpsckit.numeric._extreme_rays` is
compared against, bit for bit;
`vertices` walks the vertex bases of a polyhedron itself, a search
`mpsckit.numeric` no longer runs, and is the independent oracle for the
vertices it reads off the cone over the polyhedron (tests/test_numeric.py).
"""

import itertools
import math

import numpy as np

from mpsckit.errors import SizeCapError
from mpsckit.numeric import _MAX_BASES, _dedupe_rays, Polyhedron, nullspace


def rank(M, tol):
    """The rank of one matrix from its own SVD: its singular values above
    tau_rank * sigma_max, 0 when sigma_max is 0 or M has no entry."""
    s = np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    return int(np.sum(s > tol.tau_rank * s[0])) if s.size and s[0] > 0.0 else 0


def extreme_rays(A_eq, A_le, tol):
    """Unit extreme rays of each pointed cone {A_eq d = 0, A_le d <= 0} of a stack
    (N, q, n), (N, m, n), or its SizeCapError, walked cone by cone."""
    out = []
    for E, L in zip(A_eq, A_le):
        try:
            out.append(cone_rays(E, L, tol))
        except SizeCapError as err:
            out.append(err)
    return out


def cone_rays(A_eq, A_le, tol):
    """Unit extreme rays of the pointed cone {A_eq d = 0, A_le d <= 0}."""
    n = A_eq.shape[1]
    rank_eq = rank(A_eq, tol)
    m_le = A_le.shape[0]
    rays = []
    target = n - 1 - rank_eq
    if target >= 0:
        if math.comb(m_le, min(target, m_le)) > _MAX_BASES:
            raise SizeCapError("too many candidate active sets")
        for S in itertools.combinations(range(m_le), min(target, m_le)):
            A = np.vstack([A_eq, A_le[list(S)]])
            if rank(A, tol) != n - 1:
                continue
            ker = nullspace(A, tol)
            if ker.shape[1] != 1:
                continue
            d = ker[:, 0]
            for cand in (d, -d):
                if A_le.size == 0 or np.max(A_le @ cand) <= 1e-9:
                    rays.append(cand / np.linalg.norm(cand))
    return _dedupe_rays(rays)


def contains(P, x, tol, s=1.0):
    """Whether x is in P, every residual within tol * (s + |x|)."""
    x = np.asarray(x, float)
    scale = s + float(np.linalg.norm(x))
    return bool(np.all(np.abs(P.A_eq @ x - P.b_eq) <= tol * scale)
                and np.all(P.A_le @ x - P.b_le <= tol * scale))


def _dedupe_points(points, s, tol=1e-7):
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol * (s + np.linalg.norm(q)) for q in out):
            out.append(p)
    return out


def vertices(P, tol):
    """P's vertices, minimal-face points in the quotient of its lineality, by
    the vertex walk: rows scaled to unit norm, each full-rank basis solved by
    lstsq, its solution kept when P contains it at P's scale s = max|b|, and
    solutions merged at that scale."""
    n, q = P.dim, P.A_eq.shape[0]
    A, b = np.vstack([P.A_eq, P.A_le]), np.concatenate([P.b_eq, P.b_le])
    nrm = np.linalg.norm(A, axis=1)
    nrm[nrm == 0.0] = 1.0
    A, b = A / nrm[:, None], b / nrm
    s = float(np.max(np.abs(b), initial=0.0))
    Q = nullspace(nullspace(A, tol).T, tol) if A.size else np.zeros((n, 0))
    P = Polyhedron.make(Q.shape[1], A_eq=A[:q] @ Q, b_eq=b[:q], A_le=A[q:] @ Q, b_le=b[q:])
    k = P.dim - rank(P.A_eq, tol)
    m_le = P.A_le.shape[0]
    if math.comb(m_le, min(k, m_le)) > _MAX_BASES:
        raise SizeCapError("too many candidate active sets")
    found = []
    for S in itertools.combinations(range(m_le), min(k, m_le)):
        A, b = np.vstack([P.A_eq, P.A_le[list(S)]]), np.concatenate([P.b_eq, P.b_le[list(S)]])
        if rank(A, tol) < P.dim:
            continue
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        if A.shape[0] and np.max(np.abs(A @ x - b)) > 1e-7 * (1.0 + np.linalg.norm(b)):
            continue
        if contains(P, x, tol.tau_feas, s):
            found.append(Q @ x)
    return _dedupe_points(found, s)
