"""Per-layer tracing of mpsckit from outside the package.

Each traced function is replaced, at every module that binds it, by a
wrapper that records a span: name, parent span, operation id, start, end
and the batch rows passed in.  The package modules import each other's
functions with ``from .x import f``, so patching only the defining module
would miss most calls; the bindings are found by scanning ``vars(module)``
for the original function object.

Spans stay in typed arrays in memory and are written out by ``save``.  A
span's self time is its duration minus the durations of its direct
children; spans never overlap, because the program runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np


def _rows(pos):
    """Rows of the batch passed as positional argument `pos` (1 for a point)."""
    def rows(args, kwargs):
        if len(args) <= pos:
            return 0
        shape = np.shape(args[pos])
        return shape[0] if len(shape) >= 2 else 1
    return rows


def _count(pos):
    """Length of the stack passed as positional argument `pos`."""
    def rows(args, kwargs):
        return len(args[pos]) if len(args) > pos else 0
    return rows


def _tangent_kept(tracer, args, kwargs, result):
    tol = args[2] if len(args) > 2 else kwargs["tol"]
    tracer.add("cones.tangent.kept", len(result.directions))
    tracer.add("cones.tangent.drawn", len(result.by_branch) * tol.n_samples)


def _branch_feasible(tracer, args, kwargs, result):
    tracer.add("solver.solve_branch.solves", 1)
    tracer.add("solver.solve_branch.feasible", int(result.status == "feasible"))


# (module.function, rows of the call or None, hook on the result or None)
TARGETS = (
    ("expr.evaluate", _rows(1), None),
    ("expr.gradient", None, None),
    ("expr.hessian", None, None),
    ("numeric.enumerate_generators", None, None),
    ("numeric.rank_tol", None, None),
    ("numeric.rank_tol_batch", _count(0), None),
    ("numeric.lp_solve", None, None),
    ("problem.load_problem", None, None),
    ("problem.index_sets", None, None),
    ("problem.bipartitions", None, None),
    ("cones.linearization_cone", None, None),
    ("cones.critical_cone", None, None),
    ("cones.sample_tangent_directions", None, _tangent_kept),
    ("stationarity.check_w_stationary", None, None),
    ("stationarity.check_m_stationary", None, None),
    ("stationarity.check_s_stationary", None, None),
    ("stationarity.normal_cone_oracle", None, None),
    ("cq.check_acq", None, None),
    ("cq.check_rcrcq", None, None),
    ("cq.check_psoqn", None, None),
    ("cq.rank_constancy", None, None),
    ("soc.check_wsonc", None, None),
    ("soc.check_ssonc", None, None),
    ("penalty.error_bound_probe", None, None),
    ("penalty.exact_penalty_probe", None, None),
    ("solver.project_branch_cloud", _rows(2), None),
    ("solver._gauss_newton_polish", None, None),
    ("solver._descent_batch", None, None),
    ("solver._alm_batch", _rows(2), None),
    ("solver.solve_branch", None, _branch_feasible),
    ("report.analyze", None, None),
    ("report.cones_section", None, None),
    ("report.sanitize", None, None),
)


def package_modules(package="mpsckit"):
    """Import and return every module of the package."""
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


class Tracer:
    """Span recorder; ``with tracer:`` patches the package for the block."""

    def __init__(self, package="mpsckit"):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.counters = {}
        self.missing = []
        self.op = -1
        self._stack = [-1]
        self._bindings = []
        mods = package_modules(package)
        for name, rows_of, hook in TARGETS:
            modname, fname = name.split(".")
            orig = getattr(sys.modules.get(f"{package}.{modname}"), fname, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(orig, name, rows_of, hook)
            self._bindings += [(mod, key, orig, wrapper) for mod in mods
                               for key, value in vars(mod).items() if value is orig]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name, rows_of, hook):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_of)
            self.name_of.append(nid)
            self.parent.append(stack[-1])
            self.op_id.append(self.op)
            self.rows.append(rows_of(args, kwargs) if rows_of else 0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        for mod, key, _, wrapper in self._bindings:
            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, orig, _ in self._bindings:
            setattr(mod, key, orig)

    def spans(self):
        """Every span as numpy arrays, with its self time."""
        out = {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
               for key, dtype in (("name_of", np.int32), ("parent", np.int32),
                                  ("op_id", np.int32), ("start", np.float64),
                                  ("end", np.float64), ("rows", np.int64))}
        dur = out["end"] - out["start"]
        child = np.zeros_like(dur)
        nested = out["parent"] >= 0
        np.add.at(child, out["parent"][nested], dur[nested])
        out["self_s"] = dur - child
        return out

    def layers(self):
        """Per traced function: calls, rows and self seconds."""
        sp = self.spans()
        out = {}
        for nid, name in enumerate(self.names):
            mask = sp["name_of"] == nid
            out[name] = {"calls": int(mask.sum()), "rows": int(sp["rows"][mask].sum()),
                         "self_s": float(sp["self_s"][mask].sum())}
        for name in self.missing:
            out[name] = {"calls": 0, "rows": 0, "self_s": 0.0}
        return out

    def save(self, path):
        """Write every span plus the function names (numpy .npz)."""
        np.savez(path, names=np.array(self.names), **self.spans())
