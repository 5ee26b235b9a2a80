import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import CORPUS_POINTS, problem_path
from mpsckit import cli, cones, numeric, report
from mpsckit.problem import load_problem

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(*argv, strict=False):
    """The CLI in a fresh interpreter; strict turns every warning into an error."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable] + (["-W", "error"] if strict else []) + ["-m", "mpsckit.cli"]
    return subprocess.run(cmd + list(argv), capture_output=True, text=True, env=env)


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_axes2d_m_holds_s_fails(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "0,0", "--json", str(jpath))
        assert code == 0
        assert "M: HOLDS" in out and "S: FAILS" in out
        rep = json.loads(jpath.read_text())
        assert rep["verdicts"]["stationarity"]["M"]["status"] == "HOLDS"
        assert rep["verdicts"]["stationarity"]["S"]["status"] == "FAILS"
        assert rep["verdicts"]["stationarity"]["normal_cone_oracle"] == \
            {"M": True, "S": False}

    def test_wedge3d_cq_triple(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", str(problem_path("wedge3d")),
                               "--point", "0,0,0", "--json", str(jpath))
        assert code == 0
        rep = json.loads(jpath.read_text())
        cqs = rep["verdicts"]["cq"]
        assert cqs["WCR"]["status"] == "HOLDS"
        assert cqs["PWCR"]["status"] == "FAILS"
        assert cqs["PCRSC"]["status"] == "HOLDS"
        assert "WCR: HOLDS" in out and "PWCR: FAILS" in out

    def test_infeasible_point_limited_report(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", str(problem_path("ray2d")),
                               "--point", "9,9", "--json", str(jpath))
        assert code == 0
        assert "infeasible" in out
        rep = json.loads(jpath.read_text())
        assert rep["feasible"] is False
        assert "verdicts" not in rep

    def test_soc_skipped_without_s_stationarity(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "0,0", "--json", str(jpath))
        rep = json.loads(jpath.read_text())
        assert "note" in rep["verdicts"]["soc"]
        assert "skipped" in rep["verdicts"]["soc"]["note"]

    def test_json_validates_against_schema(self, capsys, tmp_path):
        schema = report.load_schema()
        for name, point in (("axes2d", "0,0"), ("wedge3d", "0,0,0"),
                            ("diagonal2d", "0,0"), ("ray2d", "9,9")):
            jpath = tmp_path / f"{name}.json"
            run_cli(capsys, "analyze", str(problem_path(name)),
                    "--point", point, "--json", str(jpath))
            jsonschema.validate(json.loads(jpath.read_text()), schema)

    def test_text_and_json_verdicts_agree(self, capsys, tmp_path):
        jpath = tmp_path / "report.json"
        _, out, _ = run_cli(capsys, "analyze", str(problem_path("diagonal2d")),
                            "--point", "0,0", "--json", str(jpath))
        rep = json.loads(jpath.read_text())
        for name, v in rep["verdicts"]["cq"].items():
            assert f"{name}: {v['status']}" in out
        for kind in ("W", "M", "S"):
            status = rep["verdicts"]["stationarity"][kind]["status"]
            assert f"{kind}: {status}" in out

    def test_bad_point_dimension(self, capsys):
        code, _, err = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "1,2,3")
        assert code == 2 and "coordinates" in err

    def test_non_finite_point_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "nan,0")
        assert code == 2 and "finite" in err
        code, _, err = run_cli(capsys, "solve", str(problem_path("axes2d")),
                               "--from", "0,inf")
        assert code == 2 and "finite" in err

    def test_overflowing_residual_is_a_domain_error(self, capsys, tmp_path):
        jpath = tmp_path / "overflow.json"
        code, _, err = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "1e308,1e308", "--json", str(jpath))
        assert code == 2 and "non-finite" in err
        assert not jpath.exists()

    def test_failed_cones_section_is_left_out(self, capsys, tmp_path):
        # grad f is undefined at 0: the cones component records its error and
        # the report, with no cones section, still validates
        jpath = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "analyze", "vars x1 x2\nmin (x1 / x1)\n", "--point", "0,0",
                             "--json", str(jpath))
        rep = json.loads(jpath.read_text())
        assert code == 1 and "cones" not in rep
        assert "cones" in [e["component"] for e in rep["errors"]]
        jsonschema.validate(rep, report.load_schema())

    def test_gradient_whose_norm_overflows(self, capsys, tmp_path):
        # |grad f| = 2e200 * sqrt(2) squares past the float range: no warning,
        # and the unconstrained point is not stationary
        jpath = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "vars x1 x2\nmin (x1)^2\n",
                               "--point", "1e200,-1e200", "--json", str(jpath))
        assert code == 0 and "W: FAILS" in out
        jsonschema.validate(json.loads(jpath.read_text()), report.load_schema())

    def test_overflow_under_strict_warnings(self):
        for command in ("analyze", "penalty"):
            proc = run_module(command, str(problem_path("axes2d")),
                              "--point", "1e308,1e308", strict=True)
            assert proc.returncode == 2, command
            assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("s", ["1e160", "1e200", "1e-170"])
    def test_rows_whose_squares_leave_the_float_range(self, capsys, tmp_path, s):
        # the inequality's gradient (2 s, 0) squares past the largest float or
        # below the smallest nonzero one, and a RuntimeWarning fails the test;
        # every verdict but LICQ's (whose rank cutoff is relative to the
        # largest row) is the one at s = 1
        def statuses(scale):
            path, jpath = tmp_path / "p.mpsc", tmp_path / "report.json"
            path.write_text(f"vars x1 x2\nmin x1^2\nineq {scale}*x1^2 - {scale}\n"
                            "switch x1 | x2\n")
            code, _, _ = run_cli(capsys, "analyze", str(path), "--point", "1,0",
                                 "--with-penalty", "--json", str(jpath))
            rep = json.loads(jpath.read_text())
            assert (code, rep["errors"]) == (0, [])
            return ({k: v["status"] for k, v in rep["verdicts"]["cq"].items() if k != "LICQ"},
                    rep["errorbound"]["verdict"])
        assert statuses(s) == statuses("1")

    def test_simplex_cap_is_reported_not_raised(self, capsys, monkeypatch, tmp_path):
        # every LP of the CLI runs inside a component that records MpscErrors:
        # analyze lists them and exits 1; cones runs no LP, and marks the
        # pieces whose enumeration hits a cap
        monkeypatch.setattr(numeric, "MAX_SIMPLEX_PIVOTS", 0)
        jpath = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "0,0", "--json", str(jpath))
        assert code == 1 and "simplex did not terminate" in err
        components = [e["component"] for e in json.loads(jpath.read_text())["errors"]]
        assert "stationarity.W" in components
        code, _, _ = run_cli(capsys, "cones", str(problem_path("axes2d")),
                             "--point", "0,0", "--json", str(jpath))
        assert code == 0
        pieces = json.loads(jpath.read_text())["linearization"]["pieces"]
        assert pieces and all("error" not in p and p["vertices"] for p in pieces)
        monkeypatch.setattr(numeric, "_MAX_BASES", 0)
        code, _, _ = run_cli(capsys, "cones", str(problem_path("axes2d")),
                             "--point", "0,0", "--json", str(jpath))
        assert code == 0
        pieces = json.loads(jpath.read_text())["linearization"]["pieces"]
        assert all("too many candidate active sets" in p["error"] for p in pieces)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "nonexistent.mpsc",
                               "--point", "0,0")
        assert code == 2

    def test_index_set_error_reported_per_component(self, capsys, tmp_path):
        # feasible within tau_feas, yet neither switch side is within tau_act:
        # every component that needs the index sets reports its own error
        jpath = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "analyze", str(problem_path("axes2d")),
                               "--point", "5e-9,5e-9", "--tau-act", "1e-9",
                               "--json", str(jpath))
        assert code == 1
        errors = json.loads(jpath.read_text())["errors"]
        assert [e["component"] for e in errors] == [
            "index_sets", "cones", "stationarity.W", "stationarity.M",
            "stationarity.S", "stationarity.oracle", "cq.LICQ", "cq.WCR", "cq.PWCR",
            "cq.RCRCQ", "cq.PCRSC", "cq.ACQ", "cq.PSOQN"]
        for e in errors:
            assert e["message"].startswith("switch pair 0 has neither side active")
        assert err.count("switch pair 0 has neither side active") == 13
        assert json.loads(jpath.read_text())["verdicts"]["cq"] == {}

    def test_failing_cq_checker_keeps_the_others(self, capsys, tmp_path):
        # ACQ steps along L's lineality -e1 to x1 < 0, where sqrt(x1) is
        # undefined, and PSOQN needs the undefined gradient of the inactive
        # sqrt(x1) - 5: both fail alone, the other five decide
        prob = tmp_path / "sqrt.mpsc"
        prob.write_text("vars x1 x2\nmin x1 + x2\nineq -x2\nineq sqrt(x1) - 5\n"
                        "switch x1 | x2\n")
        jpath = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "analyze", str(prob), "--point", "0,0",
                                 "--json", str(jpath))
        assert code == 1
        rep = json.loads(jpath.read_text())
        assert [e["component"] for e in rep["errors"]] == ["cq.ACQ", "cq.PSOQN"]
        assert "error in cq.ACQ: sqrt of a negative value (offset 0)" in err
        cqs = rep["verdicts"]["cq"]
        assert {name: cqs[name]["status"] for name in ("LICQ", "WCR", "PWCR", "RCRCQ", "PCRSC")} \
            == {"LICQ": "FAILS", "WCR": "HOLDS", "PWCR": "HOLDS", "RCRCQ": "HOLDS",
                "PCRSC": "HOLDS"}
        assert all(cqs[name]["mode"] != "inferred"
                   for name in ("LICQ", "WCR", "PWCR", "RCRCQ", "PCRSC"))
        assert "LICQ: FAILS" in out and "PCRSC: HOLDS" in out

    def test_switch_side_within_tau_act_is_active_for_the_oracle(self, capsys, tmp_path):
        # G = -9.09e-13 is active by index_sets' test |G| <= tau_act, although
        # |G * H| = 1.3e-8 exceeds tau_feas; the cross-set table agrees
        prob = tmp_path / "cross.mpsc"
        prob.write_text("vars x1 x2\nmin x1 + x2\nswitch x1 | x2 + 13978.69\n")
        jpath = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "analyze", str(prob), "--point=-9.09e-13,0",
                               "--json", str(jpath))
        assert (code, err) == (0, "")
        rep = json.loads(jpath.read_text())
        assert rep["errors"] == [] and rep["index_sets"]["I_G"] == [0]
        assert set(rep["verdicts"]["stationarity"]["normal_cone_oracle"]) == {"M", "S"}


class TestSolve:
    def test_ray2d_enumerative(self, capsys, tmp_path):
        jpath = tmp_path / "sol.json"
        code, out, _ = run_cli(capsys, "solve", str(problem_path("ray2d")),
                               "--json", str(jpath))
        assert code == 0
        sol = json.loads(jpath.read_text())
        assert sol["status"] == "feasible"
        assert abs(sol["value"]) <= 1e-6
        assert abs(sol["x"][0]) <= 1e-5
        # the Newton inner steps reach a KKT point (first-order steps stalled at 4.98e4)
        assert float(next(s for s in sol["log"] if s.startswith("kkt="))[4:]) <= 1e-6

    def test_axes2d_enumerative_table(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(problem_path("axes2d")),
                               "--from", "1,1", "--mode", "enumerative")
        assert code == 0
        assert "value: " in out and "branch:" in out
        value = float(next(l for l in out.splitlines()
                           if l.startswith("value:")).split()[1])
        assert abs(value) <= 1e-6
        # per-branch table lines
        assert out.count("value=") >= 2

    def test_infeasible_instance_nonzero_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.mpsc"
        bad.write_text("vars x\nmin x\neq x\neq x - 1\n")
        code, out, _ = run_cli(capsys, "solve", str(bad))
        assert code == 1
        assert "status:" in out

    def test_failure_json_is_strict(self, capsys, tmp_path):
        bad = tmp_path / "nobranch.mpsc"
        bad.write_text("vars x1\nmin x1\neq x1^2 + 1\nswitch x1 | x1\n")
        jpath = tmp_path / "sol.json"
        code, out, _ = run_cli(capsys, "solve", str(bad), "--json", str(jpath))
        assert code == 1 and "status: failure" in out
        sol = json.loads(jpath.read_text(), parse_constant=reject_constant)
        assert sol["value"] is None and sol["residual"] is None
        assert '"value": null' in jpath.read_text()

    def test_penalty_overflow_under_strict_warnings(self):
        argv = ("solve", str(problem_path("pinch2d")), "--mode", "penalty", "--from", "1,1")
        loose, strict = run_module(*argv), run_module(*argv, strict=True)
        assert strict.stdout == loose.stdout
        assert strict.returncode == loose.returncode
        assert "Traceback" not in strict.stderr

    def test_non_finite_iterate_under_strict_warnings(self):
        # from 1e200 the descent overflows: enumerative ends with the kernel's
        # EvalDomainError (exit 2), penalty descent with status failure
        for mode, code, out in (("enumerative", 2, ""), ("penalty", 1, "status: failure\n")):
            run = run_module("solve", str(problem_path("axes2d")), "--mode", mode,
                             "--from", "1e200,1e200", strict=True)
            assert (run.returncode, run.stdout) == (code, out)
            assert run.stderr == ("error: evaluation point must be finite\n" if code == 2 else "")

    def test_unsolved_residual_lp_is_recorded(self, capsys, monkeypatch, tmp_path):
        # the W-residual LP ending without an optimum is a numeric breakdown,
        # which the solution's stationarity annotation records
        residual, combination, lp_solve = [], cones.combination_lp, numeric.lp_solve

        def spy(B, nonneg, rhs, mode, tol=None):
            residual.append(mode == "residual")
            return combination(B, nonneg, rhs, mode, tol)

        def unsolved(c, A, b):
            return numeric.LpResult("infeasible") if residual[-1] else lp_solve(c, A, b)

        monkeypatch.setattr(cones, "combination_lp", spy)
        monkeypatch.setattr(numeric, "lp_solve", unsolved)
        jpath = tmp_path / "sol.json"
        code, _, err = run_cli(capsys, "solve", str(problem_path("axes2d")),
                               "--json", str(jpath))
        assert (code, err) == (0, "") and any(residual)
        sol = json.loads(jpath.read_text())
        assert sol["stationarity"] == {"error": "residual LP ended infeasible"}

    def test_penalty_mode(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(problem_path("axes2d")),
                               "--from", "1,1", "--mode", "penalty")
        assert code == 0
        assert "value:" in out


class TestOtherCommands:
    def test_penalty_feasible_point_equals_f(self, capsys):
        code, out, _ = run_cli(capsys, "penalty", str(problem_path("axes2d")),
                               "--point", "0,0", "--kappa", "3")
        assert code == 0
        assert "penalized objective = 0" in out

    def test_penalty_non_finite_residual_rejected(self, capsys, tmp_path):
        prob = tmp_path / "far.mpsc"
        prob.write_text("vars x1 x2\nmin x1\nineq x2\nswitch x1 | x2\n")
        jpath = tmp_path / "penalty.json"
        code, _, err = run_cli(capsys, "penalty", str(prob), "--point", "0,1e200",
                               "--json", str(jpath))
        assert code == 2 and err.startswith("error:") and "non-finite" in err
        assert not jpath.exists()

    def test_errorbound_ray2d(self, capsys, tmp_path):
        jpath = tmp_path / "eb.json"
        code, out, _ = run_cli(capsys, "errorbound", str(problem_path("ray2d")),
                               "--point", "0,0", "--json", str(jpath))
        assert code == 0
        assert "FAILS" in out
        rep = json.loads(jpath.read_text())
        assert rep["verdict"] == "FAILS"
        assert rep["witness_sequence"]

    def test_errorbound_at_an_infeasible_point_fails_as_cones_does(self, capsys):
        # both read the point through its context, whose index sets gate it
        argv = [str(problem_path("ray2d")), "--point", "1,1"]
        code, out, err = run_cli(capsys, "errorbound", *argv)
        assert (code, out) == (2, "") and err.startswith("error: point is infeasible")
        assert run_cli(capsys, "cones", *argv) == (code, out, err)

    def test_cones_diagonal2d_pieces_trivial(self, capsys, tmp_path):
        jpath = tmp_path / "cones.json"
        code, out, _ = run_cli(capsys, "cones", str(problem_path("diagonal2d")),
                               "--point", "0,0", "--json", str(jpath))
        assert code == 0
        section = json.loads(jpath.read_text())
        for piece in section["critical"]["pieces"]:
            assert piece["rays"] == [] and piece["lineality"] == []

    def test_thin_equality_row_cone_is_the_origin(self, capsys, tmp_path):
        # the equality row is too thin for any basis to reach full rank at the
        # basis's own scale, yet the cone is pointed: its only vertex is the
        # origin, and neither command ends in "infeasible polyhedron"
        text = ("vars x1 x2\nmin x1 + x2\nineq 222200*x1 - 99099*x2\n"
                "ineq -305484*x1 - 132105*x2\neq -0.0000007927*x1 + 0.0000022538*x2\n")
        jpath = tmp_path / "cones.json"
        assert run_cli(capsys, "cones", text, "--point", "0,0", "--json", str(jpath))[0] == 0
        section = json.loads(jpath.read_text())
        for piece in section["linearization"]["pieces"] + section["critical"]["pieces"]:
            assert (piece["vertices"], piece["rays"]) == ([[0.0, 0.0]], [])
        code, _, err = run_cli(capsys, "analyze", text, "--point", "0,0")
        assert (code, err) == (0, "")

    def test_thin_equality_row_keeps_the_rays(self, capsys, tmp_path):
        # every ray basis [eq; ineq_i] is rank 1 at its own scale, yet both
        # cones have two rays: x1 = x2 >= 0, x3 >= 0, and x1 <= x3 in the
        # critical cone
        text = ("vars x1 x2 x3\nmin x1 - x3\neq 0.0001*x1 - 0.0001*x2\n"
                "ineq -100000*x1\nineq -100000*x2\nineq -100000*x3\n")
        jpath = tmp_path / "cones.json"
        assert run_cli(capsys, "cones", text, "--point", "0,0,0", "--json", str(jpath))[0] == 0
        section = json.loads(jpath.read_text())
        for cone, ray in (("linearization", [1.0, 1.0, 0.0]), ("critical", [1.0, 1.0, 1.0])):
            (piece,) = section[cone]["pieces"]
            assert piece["vertices"] == [[0.0, 0.0, 0.0]] and piece["lineality"] == []
            assert np.allclose(piece["rays"], [[0.0, 0.0, 1.0], ray / np.linalg.norm(ray)])

    def test_parse_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "parse", str(problem_path("wedge3d")))
        assert code == 0
        assert out.startswith("vars x1 x2 x3")
        assert "switch x1 | x3" in out

    def test_overflowing_literal_is_a_parse_error(self, capsys):
        # 1e400 overflows a float: it is rejected where it is read, so
        # neither the echo of parse nor that of analyze meets an infinite constant
        text = "vars x1 x2\nmin x1 + 1e400*x2\nineq x2\nswitch x1 | x2\n"
        for argv in (["parse", text], ["analyze", text, "--point", "0,0"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: bad numeric literal '1e400' (offset 5) (line 2)\n"

    def test_analyze_with_penalty_section(self, capsys, tmp_path):
        jpath = tmp_path / "full.json"
        code, out, _ = run_cli(capsys, "analyze", str(problem_path("diagonal2d")),
                               "--point", "0,0", "--with-penalty",
                               "--json", str(jpath))
        assert code == 0
        rep = json.loads(jpath.read_text())
        assert rep["errorbound"]["verdict"] == "HOLDS"
        assert rep["penalty"]["kappa_bar_hat"] is not None
        jsonschema.validate(rep, report.load_schema())


@pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--samples", "5"),
                                        ("--eps", "0.1"), ("--tau-feas", "1"),
                                        ("--angular-tol", "0.1")])
def test_penalty_takes_no_tolerance_flags(capsys, flag, value):
    # the penalized objective reads no tolerance, so the command takes none
    with pytest.raises(SystemExit) as stop:
        cli.main(["penalty", str(problem_path("ray2d")), "--point", "0.1,0.2", flag, value])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# bad option values, each on the command that reads it
BAD_OPTIONS = [
    ("analyze", "--samples", "0"),
    ("analyze", "--eps", "-1"),
    ("analyze", "--tau-feas", "0"),
    ("analyze", "--angular-tol", "-1"),
    ("analyze", "--tau-feas", "nan"),
    ("errorbound", "--tau-rank", "inf"),
    ("cones", "--seed", "-1"),
    ("solve", "--seed", "-1"),
    ("penalty", "--kappa", "-1"),
    ("penalty", "--kappa", "nan"),
]


@pytest.mark.parametrize("command,flag,value", BAD_OPTIONS)
def test_bad_option_value_exits_2_without_traceback(capsys, command, flag, value):
    point = [] if command == "solve" else ["--point", "0,0"]
    code, out, err = run_cli(capsys, command, str(problem_path("axes2d")),
                             *point, flag, value)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, extra", [
    ("analyze", ["--with-penalty"]), ("cones", []), ("errorbound", []),
    ("penalty", ["--kappa", "3"]), ("solve", [])])
def test_json_is_coerced_once(capsys, monkeypatch, tmp_path, command, extra):
    # one top-level sanitize call per command: the plain JSON it returns is
    # written as it is, not walked again float by float
    calls, sanitize = [], report.sanitize
    monkeypatch.setattr(report, "sanitize", lambda obj: calls.append(1) or sanitize(obj))
    point = [] if command == "solve" else ["--point", "0,0"]
    jpath = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, command, str(problem_path("diagonal2d")), *point, *extra,
                         "--json", str(jpath))
    assert code == 0 and jpath.exists()
    assert len(calls) == 1


def test_no_command_loads_numpy_ma():
    # numpy.ma costs a fresh process its import time and memory; numpy's set
    # routines (np.unique, np.union1d, ...) load it and the package calls none.
    # At runtime the only dependency is numpy, so no command loads a package
    # that only the tests use either.  Every corpus problem at its origin; the
    # solves, which take seconds on the 3-variable problems, on the 2-variable ones
    argvs = []
    for name, x in CORPUS_POINTS.items():
        path, point = str(problem_path(name)), ",".join(map(str, x))
        argvs += [["analyze", path, "--point", point, "--with-penalty"],
                  ["errorbound", path, "--point", point], ["cones", path, "--point", point]]
        argvs += [["solve", path, "--mode", "enumerative"],
                  ["solve", path, "--mode", "penalty", "--from", "1,1"]] if len(x) == 2 else []
    script = ("import contextlib, io, json, sys\n"
              "from mpsckit import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "            contextlib.redirect_stderr(io.StringIO()):\n"
              "        cli.main(argv)\n"
              "    if {'numpy.ma', 'scipy', 'sympy', 'jsonschema', 'hypothesis'} & set(sys.modules):\n"
              "        sys.exit(' '.join(argv))\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert (done.returncode, done.stderr) == (0, "")


# the CLI error contract, fuzzed over problem text in the README grammar: every
# literal below but 1e400 is a finite float, and x1^-1 and log, sqrt reach
# their domain errors at some of the points
_LITERALS = ("0", "1", "2", "0.5", ".5", "3e-3", "1e300", "1e400")
_TEXT_EXPRS = hst.recursive(
    hst.sampled_from(("x1", "x2") + _LITERALS),
    lambda kids: hst.one_of(
        hst.builds("({} {} {})".format, kids, hst.sampled_from("+-*/"), kids),
        hst.builds("({})^{}".format, kids, hst.sampled_from(("-1", "2", "3"))),
        hst.builds("{}({})".format, hst.sampled_from(("sin", "cos", "exp", "log", "sqrt")),
                   kids),
        hst.builds("-{}".format, kids)),
    max_leaves=6)
_LINES = hst.lists(hst.one_of(hst.builds("ineq {}".format, _TEXT_EXPRS),
                              hst.builds("eq {}".format, _TEXT_EXPRS),
                              hst.builds("switch {} | {}".format, _TEXT_EXPRS, _TEXT_EXPRS)),
                   max_size=3)
PROBLEM_TEXTS = hst.builds(lambda f, lines: "\n".join(["vars x1 x2", f"min {f}", *lines]) + "\n",
                           _TEXT_EXPRS, _LINES)
POINTS = hst.sampled_from(("0,0", "1,0", "0,-1", "0.5,0.5", "1e-9,0", "1e200,-1e200"))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(PROBLEM_TEXTS, POINTS)
def test_cli_error_contract(text, point):
    # parse, analyze and cones each exit 0 (or 1: analyze with component
    # errors) with strict JSON, analyze's valid against report-v1, or exit 2
    # with one error line; anything else, a warning included, fails the test
    schema = report.load_schema()
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("parse", "analyze", "cones"):
            jpath = Path(tmp) / f"{command}.json"
            args = [] if command == "parse" else ["--point", point, "--json", str(jpath)]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([command, text, *args])
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert out.getvalue() == "" and not jpath.exists()
                continue
            if command == "parse":  # the echo reads back as the same problem
                assert code == 0 and load_problem(out.getvalue()) == load_problem(text)
                continue
            assert code in ((0, 1) if command == "analyze" else (0,))
            payload = json.loads(jpath.read_text(), parse_constant=reject_constant)
            if command == "analyze":
                jsonschema.validate(payload, schema)
