"""The JSON outputs of the CLI must not change, byte for byte.

tests/data/reports/<name>.json holds the JSON report of
`mpsckit analyze problems/<name>.mpsc --point 0,...,0 --with-penalty --json`
at the default tolerances.  A change that alters the numerics on purpose
regenerates them, from the root of a checkout, with

    for f in problems/*.mpsc; do
        n=$(sed -n 's/^vars //p' "$f" | wc -w)
        PYTHONPATH=src python -m mpsckit.cli analyze "$f" --with-penalty \\
            --point "$(python -c "print(','.join(['0'] * $n))")" \\
            --json "tests/data/reports/$(basename "$f" .mpsc).json"
    done

tests/data/snapshots/ holds the other commands' JSON, written the same way
with the arguments listed in SNAPSHOTS below: `cones --json` at the corpus
origins, `errorbound --json` on a FAILS and a HOLDS instance, and
`solve --json` for a feasible and a failed solve, for enumerative solves of
pinch2d and diagonal2d, and for penalty-mode solves (penalty descent, then
the augmented-Lagrangian branch polish) from the default start and from all
ones.  A run that exits 2 writes no JSON; its snapshot is the stderr
(`<name>.stderr`).  Bytes are compared, not parsed values, so key order and
number formatting are pinned too.
"""

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
       for name in ("pinch2d", "diagonal2d")},
    **{f"solve_{name}_penalty_ones": (code, ["solve", str(problem_path(name)), "--mode",
                                             "penalty", "--from", _ones(name)])
       for name, code in (("wedge3d", 1), ("tilted_sheet3d", 1), ("pinch2d", 2))},
}


def _json_bytes(argv, tmp_path, capsys):
    """Exit code and the --json file, or the stderr of a run that wrote none."""
    jpath = tmp_path / "out.json"
    code = cli.main(argv + ["--json", str(jpath)])
    err = capsys.readouterr().err
    return code, jpath.read_bytes() if jpath.exists() else err.encode()


@pytest.mark.parametrize("name", sorted(CORPUS_POINTS))
def test_report_matches_snapshot(name, tmp_path, capsys):
    code, got = _json_bytes(["analyze", str(problem_path(name)), "--point",
                             _origin(name), "--with-penalty"], tmp_path, capsys)
    assert code == 0
    assert got == (REPORT_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_command_json_matches_snapshot(name, tmp_path, capsys):
    want_code, argv = SNAPSHOTS[name]
    code, got = _json_bytes(argv, tmp_path, capsys)
    assert code == want_code
    assert got == (SNAPSHOT_DIR / f"{name}.{'stderr' if code == 2 else 'json'}").read_bytes()
