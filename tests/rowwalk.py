"""The row walk: cone membership one direction and one constraint row at a time.

It is the reference the stacked `mpsckit.cones.ConePiece.violation` is
compared against (tests/test_cones.py).
"""

import numpy as np


def violation(piece, d):
    """Worst normalized constraint violation of one direction; zero rows are skipped."""
    d = np.asarray(d, float)
    v = 0.0
    for row in piece.A_eq:
        nrm = np.linalg.norm(row)
        if nrm > 0:
            v = max(v, abs(row @ d) / nrm)
    for row in piece.A_le:
        nrm = np.linalg.norm(row)
        if nrm > 0:
            v = max(v, (row @ d) / nrm)
    return v
