"""The basis walk: generator enumeration one candidate basis at a time.

Each basis is stacked, ranked, solved and kernel-cut on its own, with no
early exit.  It is the reference the batched searches of
`mpsckit.numeric._enumerate_pointed` are compared against, bit for bit
(tests/test_numeric.py).
"""

import itertools
import math

import numpy as np

from mpsckit.errors import SizeCapError
from mpsckit.numeric import (_MAX_BASES, _dedupe_points, _dedupe_rays, nullspace,
                             rank_tol)


def enumerate_pointed(P, tol):
    """Vertices and extreme rays of a polyhedron whose lineality is trivial."""
    n = P.dim
    rank_eq = rank_tol(P.A_eq, tol) if P.A_eq.size else 0
    m_le = P.A_le.shape[0]
    s = float(np.max(np.abs(np.concatenate([P.b_eq, P.b_le])), initial=0.0))

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
            if P.contains(x, tol.tau_feas, s):
                vertices.append(x)
    vertices = _dedupe_points(vertices, s)

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
