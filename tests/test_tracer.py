"""The benchmark's tracer (perfbench/tracer.py) still finds what it traces.

It wraps package functions by name and reads batch sizes and tolerances by
argument position, so a rename or a signature change would silently zero a
per-layer metric instead of failing.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
from conftest import projection_starts

from mpsckit import report, solver
from mpsckit.cones import PointContext
from mpsckit.numeric import Tolerances
from mpsckit.problem import all_branches, load_problem

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_only_the_tree_walk_targets_are_missing():
    tracer = load_tracer_module().Tracer()
    assert sorted(tracer.missing) == ["cones.sample_tangent_directions", "expr.evaluate",
                                      "expr.gradient", "expr.hessian", "numeric.rank_tol"]


def test_argument_positions_the_tracer_reads():
    def param(fn, pos):
        return list(inspect.signature(fn).parameters)[pos]

    assert param(solver.project_branch_cloud, 2) == "X0"
    assert param(solver._alm_batch, 2) == "X0"


def test_traced_rows_are_the_batch_rows(monkeypatch):
    monkeypatch.setattr(solver, "LHS_STARTS", 2)
    P = load_problem("vars x1 x2\nmin x1^2 + x2^2\nineq 1 - x1\n", from_path=False)
    br = all_branches(P)[0]
    tracer = load_tracer_module().Tracer()
    with tracer:
        solver.solve_branch(P, br, np.array([2.0, 1.0]), Tolerances())
        solver.project_branch_cloud(
            P, br, projection_starts(br, np.array([0.0, 1.0]), Tolerances()), Tolerances())
    layers = tracer.layers()
    assert (layers["solver._alm_batch"]["calls"], layers["solver._alm_batch"]["rows"]) == (1, 3)
    assert layers["solver.project_branch_cloud"]["rows"] == 5


def test_the_stacked_generator_search_is_traced():
    # cones searches each union's pieces by one stacked call of the traced name
    # numeric.enumerate_generators, so its calls and self time do not read 0,
    # and the search ranks the equalities by the traced numeric.rank_tol_batch
    path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
    ctx = PointContext(load_problem(str(path)), np.zeros(8), Tolerances())
    tracer = load_tracer_module().Tracer()
    with tracer:
        report.cones_section(ctx)
    layer = tracer.layers()["numeric.enumerate_generators"]
    assert layer["calls"] == 1 and layer["self_s"] > 0.0
    assert tracer.layers()["numeric.rank_tol_batch"]["calls"] >= 1


def test_the_cq_checkers_are_traced():
    # report.analyze looks each checker up on the cq module when it runs it,
    # so the tracer's rebinding of cq.check_* reaches those calls
    P = load_problem(str(Path(__file__).resolve().parent.parent / "problems" / "ray2d.mpsc"))
    tracer = load_tracer_module().Tracer()
    with tracer:
        report.analyze(P, np.zeros(2), Tolerances())
    layers = tracer.layers()
    assert all(layers[f"cq.{name}"]["calls"] >= 1
               for name in ("check_acq", "check_rcrcq", "check_psoqn"))


def test_the_penalty_probes_are_traced():
    # report.analyze calls each probe through the penalty module, so the
    # tracer's rebinding of penalty.error_bound_probe and exact_penalty_probe
    # reaches those calls whatever their signature
    P = load_problem(str(Path(__file__).resolve().parent.parent / "problems" / "ray2d.mpsc"))
    tracer = load_tracer_module().Tracer()
    with tracer:
        report.analyze(P, np.zeros(2), Tolerances(), with_penalty=True)
    layers = tracer.layers()
    assert layers["penalty.error_bound_probe"]["calls"] == 1
    assert layers["penalty.exact_penalty_probe"]["calls"] == 1
