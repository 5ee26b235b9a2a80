"""Seeded generator for the cones-wide workload.

Each instance has N_VARS variables, N_INEQ inequalities and N_SWITCH
switching pairs.  Every constraint is a polynomial without a constant term
(a linear part plus two quadratic monomials), so the origin is feasible,
every inequality is active there and every switch is biactive: the cones at
the origin have 2^N_SWITCH pieces.

The linear parts make every piece a different nontrivial cone.  The
switching rows do not involve the last variable and have full row rank for
every bipartition, so each piece's equality nullspace is spanned by the last
unit vector and one direction of its own.  Every inequality row has a
negative last coefficient, so the last unit vector is strictly inside every
linearization piece (INSIDE), and each piece is a wedge in its nullspace.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

N_VARS, N_INEQ, N_SWITCH = 8, 8, 6
N_INSTANCES = 8

# desk-scale caps from the README: bipartitions, generator enumeration
MAX_BIACTIVE = 16
MAX_GEN_CONSTRAINTS = 24
MAX_GEN_DIM = 12
MAX_BASES = 200_000

VARS = tuple(f"x{j + 1}" for j in range(N_VARS))
INSIDE = tuple(float(j == N_VARS - 1) for j in range(N_VARS))


def _poly(lin, quad):
    """Render sum lin[j]*x_j + sum c*x_a*x_b in the problem-file grammar."""
    terms = [(c, VARS[j]) for j, c in enumerate(lin) if c != 0.0]
    terms += [(c, f"{VARS[a]}*{VARS[b]}") for c, a, b in quad]
    out = ""
    for c, mono in terms:
        sign = "-" if c < 0 else "+"
        out += f" {sign} {abs(c):.3f}*{mono}"
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


def _quad(rng):
    return [(round(rng.uniform(-1, 1), 3), *sorted(rng.sample(range(N_VARS), 2)))
            for _ in range(2)]


def _switch_rows(rng):
    """Linear parts of (G_k, H_k) in all but the last variable, full row
    rank for every bipartition."""
    k, width = N_SWITCH, N_VARS - 1
    while True:
        G = [[round(rng.uniform(-1, 1), 3) for _ in range(width)] for _ in range(k)]
        H = [[round(rng.uniform(-1, 1), 3) for _ in range(width)] for _ in range(k)]
        conds = [np.linalg.cond(np.array([G[i] if pick[i] else H[i] for i in range(k)]))
                 for pick in itertools.product((0, 1), repeat=k)]
        if max(conds) < 1e2:
            return G, H


def make_instance(rng: random.Random) -> str:
    G, H = _switch_rows(rng)
    lines = ["vars " + " ".join(VARS)]
    f_lin = [round(rng.uniform(-1, 1), 3) for _ in range(N_VARS)]
    lines.append("min " + _poly(f_lin, _quad(rng)))
    for _ in range(N_INEQ):
        lin = [round(rng.uniform(-1, 1), 3) for _ in range(N_VARS - 1)]
        lin.append(-round(rng.uniform(0.5, 1.5), 3))
        lines.append("ineq " + _poly(lin, _quad(rng)))
    for k in range(N_SWITCH):
        lines.append(f"switch {_poly(G[k] + [0.0], _quad(rng))} | "
                     f"{_poly(H[k] + [0.0], _quad(rng))}")
    return "\n".join(lines) + "\n"


def check_caps():
    """Every piece of the linearization and critical cones stays under the caps."""
    rows = N_SWITCH + N_INEQ + 1  # critical pieces add the objective row
    vertex_bases = math.comb(N_INEQ + 1, min(N_VARS - N_SWITCH, N_INEQ + 1))
    assert N_SWITCH <= MAX_BIACTIVE
    assert rows <= MAX_GEN_CONSTRAINTS and N_VARS <= MAX_GEN_DIM
    assert vertex_bases <= MAX_BASES


def make_instances(seed: int) -> list[str]:
    check_caps()
    rng = random.Random(seed)
    return [make_instance(rng) for _ in range(N_INSTANCES)]
