"""Metamorphic relations over the corpus: rewrites of a problem file that
leave the feasible set and the point unchanged up to a relabelling must
leave the verdicts unchanged."""

import re

import numpy as np
import pytest

from conftest import CORPUS_POINTS, problem_path, scaled_text

from mpsckit import penalty, report
from mpsckit.cones import PointContext
from mpsckit.numeric import Tolerances
from mpsckit.problem import load_problem

TOL = Tolerances()
CONSTRAINT = re.compile(r"(ineq|eq|switch) ")


def analyze_statuses(P, x):
    """Every status of `analyze` on P at x, keyed by its path in the report."""
    rep = report.analyze(P, x, TOL)
    assert rep["errors"] == []
    return {f"{group}.{name}": v["status"] for group, table in rep["verdicts"].items()
            for name, v in table.items() if isinstance(v, dict) and "status" in v}


def statuses(text, x):
    """Every status of `analyze` on the problem text at x and the error bound's verdict."""
    P = load_problem(text)
    return {**analyze_statuses(P, x),
            "errorbound": penalty.error_bound_probe(PointContext(P, x, TOL)).verdict}


def corpus_text(name):
    return problem_path(name).read_text()


def swap_switch_sides(text):
    return re.sub(r"^switch (.*) \| (.*)$", r"switch \2 | \1", text, flags=re.M)


def reverse_variables(text):
    return re.sub(r"^vars (.*)$", lambda m: "vars " + " ".join(m.group(1).split()[::-1]),
                  text, flags=re.M)


def duplicate_first_constraint(text):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if CONSTRAINT.match(line))
    return "\n".join(lines[:i + 1] + lines[i:]) + "\n"


@pytest.fixture(scope="module")
def original():
    return {name: statuses(corpus_text(name), x) for name, x in CORPUS_POINTS.items()}


@pytest.mark.parametrize("name", CORPUS_POINTS)
def test_swapping_the_switch_sides_moves_no_status(name, original):
    # G and H trade names, and M-, S-stationarity and every CQ are symmetric in them
    text = swap_switch_sides(corpus_text(name))
    assert text != corpus_text(name)
    assert statuses(text, CORPUS_POINTS[name]) == original[name]


@pytest.mark.parametrize("name", CORPUS_POINTS)
def test_reversing_the_variable_order_moves_no_status(name, original):
    x = np.asarray(CORPUS_POINTS[name])[::-1]
    assert statuses(reverse_variables(corpus_text(name)), x) == original[name]


@pytest.mark.parametrize("name", CORPUS_POINTS)
def test_an_inactive_inequality_moves_no_status(name, original):
    # x1 - 5 < 0 at every corpus point, so the row never enters an active set
    text = corpus_text(name) + "ineq x1 - 5\n"
    assert statuses(text, CORPUS_POINTS[name]) == original[name]


@pytest.mark.parametrize("name", CORPUS_POINTS)
def test_a_duplicated_constraint_keeps_the_feasible_set_verdicts(name, original):
    # the feasible set and f are unchanged, so the verdicts that depend only
    # on them keep their status; rank conditions such as LICQ may move
    got = statuses(duplicate_first_constraint(corpus_text(name)), CORPUS_POINTS[name])
    keys = ("cq.ACQ", "cq.GCQ", "errorbound", "stationarity.M", "stationarity.S")
    assert {k: got[k] for k in keys} == {k: original[name][k] for k in keys}


@pytest.mark.parametrize("c", ["1e-3", "1e3", "2^-10", "2^10"])
@pytest.mark.parametrize("name", CORPUS_POINTS)
def test_scaling_every_constraint_moves_no_analyze_status(name, c, original):
    # F, the cones and every CQ's truth are unchanged; the error bound's
    # residuals are still read against an absolute tau_feas, so it stays out
    got = analyze_statuses(load_problem(scaled_text(name, c)),
                           CORPUS_POINTS[name])
    assert got == {k: v for k, v in original[name].items() if k != "errorbound"}
