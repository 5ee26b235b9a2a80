from pathlib import Path

import numpy as np
import pytest

from mpsckit.numeric import Tolerances
from mpsckit.problem import OBJECTIVE, MpscProblem, load_problem

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


def in_cone_union(cone, d, tol):
    """Whether some piece of a cone union holds d, with slack tau_feas * (1 + ||d||)."""
    d = np.asarray(d, float)
    slack = tol.tau_feas * (1.0 + np.linalg.norm(d))
    return any(piece.contains(d, slack) for piece in cone.pieces)


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in CORPUS_POINTS}


@pytest.fixture(scope="session")
def tol():
    return Tolerances()
