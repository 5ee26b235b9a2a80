"""The JSON outputs of the CLI must not change, byte for byte.

tests/data/reports/<name>.json holds the JSON report of
`mpsckit analyze problems/<name>.mpsc --point 0,...,0 --with-penalty --json`
at the default tolerances.  A change that alters the numerics on purpose
regenerates every golden file from the runs below, from the root of a
checkout, with

    PYTHONPATH=src python tests/test_report_snapshots.py

tests/data/snapshots/ holds the other commands' JSON, written the same way
with the arguments listed in SNAPSHOTS below: `cones --json` at the corpus
origins, `errorbound --json` on a FAILS and a HOLDS instance, and
`solve --json` for a feasible and a failed solve, for enumerative solves of
pinch2d, diagonal2d and the unbounded tilted_sheet3d and parabola_sheet3d
(whose augmented-Lagrangian rows walk their valleys to the iteration caps),
and for penalty-mode solves (penalty descent, then the augmented-Lagrangian
branch polish) from the default start and from all ones.  A run that exits
2 writes no JSON; its snapshot is the stderr (`<name>.stderr`).  Bytes are
compared, not parsed values, so key order and number formatting are pinned
too.
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import CORPUS_POINTS, problem_path
from mpsckit import cli

DATA_DIR = Path(__file__).resolve().parent / "data"
REPORT_DIR = DATA_DIR / "reports"
SNAPSHOT_DIR = DATA_DIR / "snapshots"
# problem text (a file argument with a newline is read as text): no branch
# is feasible, so the solve fails and writes a non-finite value as null
NO_BRANCH = "vars x1\nmin x1\neq x1^2 + 1\nswitch x1 | x1\n"


def _origin(name):
    return ",".join("0" for _ in CORPUS_POINTS[name])


def _ones(name):
    return ",".join("1" for _ in CORPUS_POINTS[name])


# snapshot name -> (expected exit code, CLI arguments before --json)
SNAPSHOTS = {
    **{f"cones_{name}": (0, ["cones", str(problem_path(name)), "--point", _origin(name)])
       for name in sorted(CORPUS_POINTS)},
    "errorbound_ray2d": (0, ["errorbound", str(problem_path("ray2d")), "--point", "0,0"]),
    "errorbound_diagonal2d": (0, ["errorbound", str(problem_path("diagonal2d")),
                                  "--point", "0,0"]),
    "solve_axes2d": (0, ["solve", str(problem_path("axes2d"))]),
    "solve_axes2d_penalty": (0, ["solve", str(problem_path("axes2d")), "--mode", "penalty"]),
    "solve_nobranch": (1, ["solve", NO_BRANCH]),
    **{f"solve_{name}": (0, ["solve", str(problem_path(name))])
       for name in ("pinch2d", "diagonal2d", "tilted_sheet3d", "parabola_sheet3d")},
    **{f"solve_{name}_penalty_ones": (code, ["solve", str(problem_path(name)), "--mode",
                                             "penalty", "--from", _ones(name)])
       for name, code in (("wedge3d", 1), ("tilted_sheet3d", 1), ("pinch2d", 2),
                          ("parabola_sheet3d", 0))},
}


def _report_argv(name):
    return ["analyze", str(problem_path(name)), "--point", _origin(name), "--with-penalty"]


def _snapshot_file(name, code):
    return SNAPSHOT_DIR / f"{name}.{'stderr' if code == 2 else 'json'}"


def _json_bytes(argv, tmp_dir):
    """Exit code and the --json file, or the stderr of a run that wrote none."""
    jpath = Path(tmp_dir) / "out.json"
    jpath.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv + ["--json", str(jpath)])
    return code, jpath.read_bytes() if jpath.exists() else err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CORPUS_POINTS))
def test_report_matches_snapshot(name, tmp_path):
    code, got = _json_bytes(_report_argv(name), tmp_path)
    assert code == 0
    assert got == (REPORT_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_command_json_matches_snapshot(name, tmp_path):
    want_code, argv = SNAPSHOTS[name]
    code, got = _json_bytes(argv, tmp_path)
    assert code == want_code
    assert got == _snapshot_file(name, code).read_bytes()


if __name__ == "__main__":  # rewrite the golden files; pytest never runs this
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CORPUS_POINTS):
            (REPORT_DIR / f"{name}.json").write_bytes(_json_bytes(_report_argv(name), tmp)[1])
        for name, (want_code, argv) in sorted(SNAPSHOTS.items()):
            code, got = _json_bytes(argv, tmp)
            _snapshot_file(name, code).write_bytes(got)
            if code != want_code:
                print(f"{name}: exit {code}, expected {want_code}", file=sys.stderr)
