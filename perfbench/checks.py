"""Output checks against a hand-written reference and an independent evaluator.

Problem files are re-read with sympy here, so residuals, objective values
and Jacobians are recomputed without ``mpsckit.expr``.  Every check returns
a list of the faults found; an empty list means the operation passed.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import sympy
from scipy.optimize import nnls

FEAS_TOL = 1e-8          # mpsckit's default tau_feas
GEN_TOL = 1e-7           # normalized constraint slack for cone generators


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """Parse RFC 8259 JSON; NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _report(rc, text, ok=(0,)):
    """The parsed report, or None and the reason there is none to check."""
    if rc not in ok:
        return None, [f"exit code {rc}"]
    try:
        return strict_json(text), []
    except ValueError as err:
        return None, [f"report is not strict JSON: {err}"]


class SymProblem:
    """A problem file read into sympy expressions."""

    def __init__(self, text):
        self.syms, self.f = None, None
        self.g, self.h, self.pairs = [], [], []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head == "vars":
                self.syms = sympy.symbols(rest.split())
            elif head == "min":
                self.f = self._expr(rest)
            elif head == "ineq":
                self.g.append(self._expr(rest))
            elif head == "eq":
                self.h.append(self._expr(rest))
            elif head == "switch":
                left, _, right = rest.partition("|")
                self.pairs.append((self._expr(left), self._expr(right)))
        self._compiled = {}

    def _expr(self, text):
        names = {str(s): s for s in self.syms}
        return sympy.sympify(text.replace("^", "**"), locals=names)

    def fn(self, expr):
        if expr not in self._compiled:
            self._compiled[expr] = sympy.lambdify(self.syms, expr, "math")
        return self._compiled[expr]

    def value(self, x):
        return float(self.fn(self.f)(*x))

    def residual(self, x):
        viol = sum(max(self.fn(e)(*x), 0.0) ** 2 for e in self.g)
        viol += sum(self.fn(e)(*x) ** 2 for e in self.h)
        viol += sum(min(self.fn(G)(*x) ** 2, self.fn(H)(*x) ** 2)
                    for G, H in self.pairs)
        return math.sqrt(viol)

    def jacobian(self, exprs, x):
        """Rows of partial derivatives of `exprs` at x."""
        J = sympy.Matrix(exprs).jacobian(self.syms)
        return np.array(sympy.lambdify(self.syms, J.tolist(), "math")(*x), dtype=float)


def load_schema(root: Path):
    return json.loads((root / "src/mpsckit/schemas/report-v1.json").read_text())


# derived reference values that are not a single path into the report
def _two_kappa_bar_local_min(report):
    pen = report["penalty"]
    kbar = pen["kappa_bar_hat"]
    return kbar is not None and any(
        math.isclose(g["kappa"], 2.0 * kbar, rel_tol=1e-9) and g["local_min"] is True
        for g in pen["kappa_grid"])


DERIVED = {"penalty.two_kappa_bar_local_min": _two_kappa_bar_local_min}


def _lookup(report, path):
    if path in DERIVED:
        return DERIVED[path](report)
    node = report
    for key in path.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def _matches(got, want):
    if isinstance(want, dict):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        got = abs(got) if want.get("magnitude") else got
        return abs(got - want["approx"]) <= want["abs"]
    return got == want and type(got) is type(want)


def check_analyze(name, rc, text, schema, expected) -> list:
    report, faults = _report(rc, text)
    if report is None:
        return faults
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as err:
        faults.append(f"schema: {err.message}")
    if report.get("errors"):
        faults.append(f"errors: {report['errors']}")
    for path, want in expected.get(name, {}).items():
        try:
            got = _lookup(report, path)
        except (KeyError, IndexError, TypeError):
            faults.append(f"{path}: missing")
            continue
        if not _matches(got, want):
            faults.append(f"{path}: got {got!r}, expected {want!r}")
    return faults


def check_solve(name, rc, text, problem: SymProblem, expected) -> list:
    sol, faults = _report(rc, text, ok=(0, 1))
    if sol is None:
        return faults
    bounded = name in expected["bounded"]
    status = sol["status"]
    if status not in (("feasible",) if bounded else ("feasible", "diverged")):
        return [f"status {status!r}"]
    if status != "feasible":
        return []
    x = [float(v) for v in sol["x"]]
    res = problem.residual(x)
    if res > FEAS_TOL:
        faults.append(f"independent residual {res:.3g} > {FEAS_TOL}")
    val = problem.value(x)
    if abs(val - sol["value"]) > 1e-9 * (1.0 + abs(val)):
        faults.append(f"reported value {sol['value']!r}, independent value {val!r}")
    if bounded and abs(sol["value"] - expected["optimum"]) > expected["value_tol"]:
        faults.append(f"value {sol['value']!r} is not the optimum {expected['optimum']}")
    return faults


def _violation(rows_eq, rows_le, v):
    v = np.asarray(v, float)
    worst = 0.0
    for row in rows_eq:
        worst = max(worst, abs(row @ v) / np.linalg.norm(row))
    for row in rows_le:
        worst = max(worst, (row @ v) / np.linalg.norm(row))
    return worst / max(1.0, np.linalg.norm(v))


def _in_cone(gens, lineality, d):
    """Whether d is a nonnegative combination of gens and +-lineality."""
    cols = list(gens) + list(lineality) + [-np.asarray(b, float) for b in lineality]
    if not cols:
        return False
    _, residual = nnls(np.array(cols, float).T, np.asarray(d, float))
    return residual <= 1e-8


def check_cones(rc, text, problem: SymProblem, inside) -> list:
    """2^l pieces per cone, and every generator obeys its piece's rows.

    The instance is built so that the origin activates every inequality and
    makes every switch biactive, so a piece's equality rows are G_k for k in
    beta1 and H_k for k in beta2, and its inequality rows are all of g (and
    grad f for the critical cone).  The direction `inside` lies in every
    linearization piece, so the reported rays and lineality must span it.
    """
    section, faults = _report(rc, text)
    if section is None:
        return faults
    n, l = len(problem.syms), len(problem.pairs)
    x0 = [0.0] * n
    at_origin = [problem.fn(e)(*x0) for e in problem.g]
    at_origin += [problem.fn(e)(*x0) for pair in problem.pairs for e in pair]
    if any(v != 0.0 for v in at_origin):
        return ["the origin does not activate every constraint"]
    switch_exprs = [e for pair in problem.pairs for e in pair]
    J = problem.jacobian([problem.f, *problem.g, *switch_exprs], x0)
    gf, Jg = J[0], list(J[1:1 + len(problem.g)])
    JG, JH = list(J[1 + len(problem.g)::2]), list(J[2 + len(problem.g)::2])
    all_splits = {(tuple(k for k in range(l) if mask[k]),
                   tuple(k for k in range(l) if not mask[k]))
                  for mask in itertools.product((1, 0), repeat=l)}
    for cone, extra_le in (("linearization", []), ("critical", [gf])):
        pieces = section[cone]["pieces"]
        splits = {(tuple(p["bipartition"][0]), tuple(p["bipartition"][1]))
                  for p in pieces}
        if len(pieces) != 2 ** l or splits != all_splits:
            faults.append(f"{cone}: {len(pieces)} pieces, expected the {2 ** l} bipartitions")
            continue
        for p in pieces:
            if "error" in p:
                faults.append(f"{cone} {p['bipartition']}: {p['error']}")
                continue
            beta1, beta2 = p["bipartition"]
            eq = [JG[k] for k in beta1] + [JH[k] for k in beta2]
            le = Jg + extra_le
            gens = [(v, eq, le) for v in p["vertices"] + p["rays"]]
            gens += [(b, eq + le, []) for b in p["lineality"]]
            if not p["vertices"]:
                faults.append(f"{cone} {p['bipartition']}: no vertex")
            if cone == "linearization" and not _in_cone(p["rays"], p["lineality"], inside):
                faults.append(f"{cone} {p['bipartition']}: the generators miss "
                              f"the interior direction {list(inside)}")
            for v, rows_eq, rows_le in gens:
                if _violation(rows_eq, rows_le, v) > GEN_TOL:
                    faults.append(f"{cone} {p['bipartition']}: generator {v} "
                                  f"violates the linearized constraints")
    every_row = Jg + JG + JH
    for b in section["critical_subspace"]:
        if _violation(every_row, [], b) > GEN_TOL:
            faults.append(f"critical subspace vector {b} is not in the kernel")
    return faults
