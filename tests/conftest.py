from pathlib import Path

import numpy as np
import pytest

from mpsckit import cq
from mpsckit.cones import ConePiece
from mpsckit.stationarity import _lagrangian_terms
from mpsckit.numeric import Tolerances, unit_rows
from mpsckit.problem import OBJECTIVE, MpscProblem, load_problem
from mpsckit.solver import lhs_starts, project_branch_cloud

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"

# every shipped instance together with a known feasible point
CORPUS_POINTS = {
    "wedge3d": (0.0, 0.0, 0.0),
    "tilted_sheet3d": (0.0, 0.0, 0.0),
    "ray2d": (0.0, 0.0),
    "axes2d": (0.0, 0.0),
    "parabola_sheet3d": (0.0, 0.0, 0.0),
    "crossplanes3d": (0.0, 0.0, 0.0),
    "pinch2d": (0.0, 0.0),
    "diagonal2d": (0.0, 0.0),
}


def problem_path(name):
    return PROBLEM_DIR / f"{name}.mpsc"


def load(name):
    return load_problem(str(problem_path(name)))


def scaled_text(name, c):
    """A corpus problem with every ineq, eq and switch side multiplied by c."""
    out = []
    for line in problem_path(name).read_text().splitlines():
        head, _, rest = line.partition(" ")
        if head in ("ineq", "eq"):
            line = f"{head} {c}*({rest})"
        elif head == "switch":
            a, _, b = rest.partition("|")
            line = f"switch {c}*({a.strip()}) | {c}*({b.strip()})"
        out.append(line)
    return "\n".join(out) + "\n"


def _objective_only(e, n):
    """A problem whose only expression is the objective e."""
    return MpscProblem(n, tuple(f"x{j + 1}" for j in range(n)), e, (), (), ())


def kernel_value(e, x):
    """Value of e at a point, or its values over a batch, from the evaluation kernel."""
    x = np.asarray(x, float)
    v = _objective_only(e, x.shape[-1]).values(x, [OBJECTIVE])
    return float(v[0]) if x.ndim == 1 else v[:, 0]


def kernel_gradient(e, x):
    """Gradient of e at a point, from the evaluation kernel."""
    return _objective_only(e, len(x)).jacobian(x, [OBJECTIVE])[0]


def kernel_hessian(e, x):
    """Hessian of e at a point, from the evaluation kernel."""
    return _objective_only(e, len(x)).hessian(x, OBJECTIVE)


def checked_acq_directions(ctx):
    """The directions ACQ tests in each piece of ctx's linearization cone,
    each block checked: unit rows, the piece's unit generators first, every
    row inside the piece, and no rows only where the piece is the origin."""
    out = []
    for k, piece in enumerate(ctx.linearization):
        D = cq.acq_directions(piece, k, ctx.tol)
        gens = np.reshape(piece.generators(ctx.tol).all_rays(), (-1, piece.dim))
        assert len(D) or piece.is_origin(ctx.tol)
        assert np.allclose(np.linalg.norm(D, axis=1), 1.0)
        assert np.allclose(D[:len(gens)], gens / np.linalg.norm(gens, axis=1, keepdims=True))
        assert np.all(piece.contains(D, 1e-9))
        out.append(D)
    return out


def lagrangian_gradient(ctx, mult):
    """grad f + the multiplier combination of the item gradients at x: the
    tests' witness check (it vanishes at a stationary point)."""
    out = ctx.grad("f")
    for c, it in _lagrangian_terms(ctx.P, mult):
        out = out + c * ctx.grad(*it)
    return out


def in_cone_union(cone, d, tol):
    """Whether some piece of a cone union holds d, with slack tau_feas * (1 + ||d||)."""
    d = np.asarray(d, float)
    slack = tol.tau_feas * (1.0 + np.linalg.norm(d))
    return any(piece.contains(d, slack) for piece in cone)


def random_cut_piece(rng, trial):
    """A seeded random piece cut from its parent, and the kind of its cut row:
    parents pointed or with lineality, in dimensions 2 to 6, rows scaled by
    1e-3 to 1e3; cut rows random, zero, parallel or opposite to a row, or the
    negated sum of the unit inequality rows, which is positive on every ray
    of a pointed parent."""
    n = int(rng.integers(2, 7))
    r = int(rng.integers(1, n)) if trial % 3 == 0 else n  # row rank
    q, m = int(rng.integers(0, n - 1)), int(rng.integers(1, 2 * n + 2))
    A_eq = rng.normal(size=(q, r)) @ rng.normal(size=(r, n))
    A_le = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
    A_le *= 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    kind = ("random", "zero", "parallel", "opposite", "all cut")[trial % 5]
    row = A_le[rng.integers(m)]
    a = {"random": rng.normal(size=n), "zero": np.zeros(n), "parallel": 2.0 * row,
         "opposite": -0.5 * row, "all cut": -np.sum(unit_rows(A_le), axis=0)}[kind]
    return ConePiece(A_eq=A_eq, A_le=np.vstack([A_le, a]),
                     parent=ConePiece(A_eq=A_eq, A_le=A_le)), kind


def cq_table(ctx, with_psoqn=True):
    """The standard CQ table: every direct check (PSOQN optional), then the
    lattice closure, which raises on a contradiction."""
    return cq.lattice_closure({name: getattr(cq, "check_" + name.lower())(ctx)
                               for name in cq.CHECKERS if with_psoqn or name != "PSOQN"})


def projection_starts(br, x0, tol):
    """x0 and four Latin hypercube starts around it, seeded by the branch."""
    x0 = np.asarray(x0, float)
    rng = tol.rng("project", br.label())
    return np.vstack([x0, lhs_starts(rng, 4, x0, max(0.5, 0.1 * np.linalg.norm(x0)))])


def project_branch(P, br, x0, tol):
    """The nearest branch-feasible point to x0 that project_branch_cloud
    reaches from projection_starts."""
    x0 = np.asarray(x0, float)
    Y = project_branch_cloud(P, br, projection_starts(br, x0, tol), tol)
    ok = np.flatnonzero(br.residual(Y) <= tol.tau_feas)
    assert ok.size, f"projection onto branch {br.label()} stalled infeasible"
    return Y[ok[np.argmin(np.linalg.norm(Y[ok] - x0, axis=1))]]


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in CORPUS_POINTS}


@pytest.fixture(scope="session")
def tol():
    return Tolerances()
