"""The analyze --with-penalty reports of the corpus must not change.

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
"""

import json
from pathlib import Path

import pytest

from conftest import CORPUS_POINTS, problem_path
from mpsckit import cli

REPORT_DIR = Path(__file__).resolve().parent / "data" / "reports"


@pytest.mark.parametrize("name", sorted(CORPUS_POINTS))
def test_report_matches_snapshot(name, tmp_path, capsys):
    jpath = tmp_path / f"{name}.json"
    point = ",".join("0" for _ in CORPUS_POINTS[name])
    code = cli.main(["analyze", str(problem_path(name)), "--point", point,
                     "--with-penalty", "--json", str(jpath)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(jpath.read_text()) == json.loads((REPORT_DIR / f"{name}.json").read_text())
