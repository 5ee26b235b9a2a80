"""Command-line interface.

Commands: analyze | solve | penalty | errorbound | cones | parse.
Points are comma-separated decimals; all randomized verdicts print the seed
and sample counts, and --json writes the machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import penalty as pen
from . import report as rp
from . import solver as sv
from .cones import PointContext
from .errors import MpscError, ParseError
from .numeric import Tolerances
from .problem import load_problem, problem_text


def _parse_point(text, n):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(f"bad point {text!r}; expected comma-separated decimals")
    if not np.all(np.isfinite(vals)):
        raise ParseError(f"bad point {text!r}; coordinates must be finite")
    if len(vals) != n:
        raise ParseError(f"point has {len(vals)} coordinates, problem has {n}")
    return np.array(vals)


def _tolerances(args) -> Tolerances:
    field = {"samples": "n_samples", "eps": "eps_ball"}
    kw = {field.get(flag, flag): getattr(args, flag, None)
          for flag in ("tau_rank", "tau_act", "tau_feas", "tau_psd", "angular_tol",
                       "samples", "eps", "seed")}
    try:
        return Tolerances(**{k: v for k, v in kw.items() if v is not None})
    except ValueError as err:
        raise ParseError(f"bad option: {err}") from None


def _add_common(p, tolerances=True):
    p.add_argument("file", help="problem file")
    p.add_argument("--point", required=True, help="comma-separated decimals")
    if tolerances:
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        for name in ("tau-rank", "tau-act", "tau-feas", "tau-psd", "angular-tol"):
            p.add_argument(f"--{name}", dest=name.replace("-", "_"),
                           type=float, default=None)
    p.add_argument("--json", dest="json_path", default=None,
                   help="also write the JSON report here")


def build_parser():
    ap = argparse.ArgumentParser(prog="mpsckit",
                                 description="analysis toolkit for switching-"
                                             "constrained programs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="index sets, cones, stationarity, CQ "
                                       "table, second-order conditions")
    _add_common(p)
    p.add_argument("--with-penalty", action="store_true",
                   help="include the error-bound and exact-penalty sections")

    p = sub.add_parser("solve", help="local solve (enumerative or penalty)")
    p.add_argument("file")
    p.add_argument("--from", dest="starts", action="append", default=[],
                   help="start point, repeatable")
    p.add_argument("--mode", choices=("enumerative", "penalty"),
                   default="enumerative")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("penalty", help="penalized objective values at a point")
    _add_common(p, tolerances=False)
    p.add_argument("--kappa", type=float, action="append", default=[],
                   help="penalty parameter, repeatable")

    p = sub.add_parser("errorbound", help="local error-bound probe")
    _add_common(p)

    p = sub.add_parser("cones", help="cone generators at a point")
    _add_common(p)

    p = sub.add_parser("parse", help="echo the normalized problem")
    p.add_argument("file")
    return ap


def _emit_json(path, payload):
    """Write payload, already plain JSON (sanitize's output), to path if given."""
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


def _print_verdict_line(name, v):
    extra = []
    if v.get("mode"):
        extra.append(v["mode"])
    ev = v.get("evidence") or {}
    if "n_samples" in ev:
        extra.append(f"n={ev['n_samples']}")
    if "seed" in ev:
        extra.append(f"seed={ev['seed']}")
    suffix = f" ({', '.join(extra)})" if extra else ""
    print(f"  {name}: {v['status']}{suffix}")


def cmd_analyze(args):
    P = load_problem(args.file)
    tol = _tolerances(args)
    x = _parse_point(args.point, P.n)
    report = rp.analyze(P, x, tol, with_penalty=args.with_penalty)
    print(f"point: {report['point']}")
    print(f"residual: {report['residual']:.3e}  feasible: {report['feasible']}")
    if not report["feasible"]:
        print(report["note"])
        _emit_json(args.json_path, report)
        return 0
    I = report.get("index_sets")
    if I:
        print(f"index sets: I_g={I['I_g']} I_h={I['I_h']} I_G={I['I_G']} "
              f"I_H={I['I_H']} I_GH={I['I_GH']}")
        print(f"bipartitions: {report['bipartitions']}")
    sta = report["verdicts"]["stationarity"]
    print("stationarity:")
    for kind in ("W", "M", "S"):
        if kind in sta:
            v = sta[kind]
            print(f"  {kind}: {v['status']}"
                  + (f"  witness={v['witness']}" if v.get("witness") else ""))
    if "normal_cone_oracle" in sta:
        print(f"  normal-cone oracle: M={sta['normal_cone_oracle']['M']} "
              f"S={sta['normal_cone_oracle']['S']}")
    print(f"constraint qualifications (seed={report['seed']}, "
          f"n_samples={report['tolerances']['n_samples']}):")
    for name, v in report["verdicts"]["cq"].items():
        _print_verdict_line(name, v)
    soc = report["verdicts"]["soc"]
    print("second-order conditions:")
    if "note" in soc:
        print(f"  {soc['note']}")
    for kind in ("WSONC", "SSONC"):
        if kind in soc:
            v = soc[kind]
            print(f"  {kind}: {v['status']} ({v['mode']})"
                  + (f"  witness value={v['witness']['value']:.6g}"
                     if v.get("witness") else ""))
    if "errorbound" in report:
        eb = report["errorbound"]
        print(f"error bound: {eb['verdict']} alpha_hat={eb['alpha_hat']:.4g}")
    if "penalty" in report:
        pr = report["penalty"]
        print(f"exact penalty: kappa_bar_hat={pr['kappa_bar_hat']} grid:")
        for g in pr["kappa_grid"]:
            print(f"  kappa={g['kappa']:.4g}: local_min={g['local_min']}")
    for err in report["errors"]:
        print(f"error in {err['component']}: {err['message']}", file=sys.stderr)
    _emit_json(args.json_path, report)
    return 1 if report["errors"] else 0


def cmd_solve(args):
    P = load_problem(args.file)
    tol = _tolerances(args)
    starts = [_parse_point(s, P.n) for s in args.starts] or [np.zeros(P.n)]
    best = None
    for x0 in starts:
        sol = (sv.solve_enumerative if args.mode == "enumerative"
               else sv.solve_penalty_descent)(P, x0, tol)
        if best is None or (sol.status == "feasible"
                            and (best.status != "feasible" or sol.value < best.value)):
            best = sol
    rp.annotate_stationarity(P, best, tol)
    print(f"status: {best.status}")
    if best.status == "feasible":
        print(f"x*: {[round(float(v), 10) for v in best.x]}")
        print(f"value: {best.value:.10g}  residual: {best.residual:.3e}")
        print(f"branch: {best.branch}")
    if args.mode == "enumerative":
        for line in best.log:
            print(f"  {line}")
    _emit_json(args.json_path, rp.sanitize(best))
    return 0 if best.status == "feasible" else 1


def cmd_penalty(args):
    P = load_problem(args.file)
    x = _parse_point(args.point, P.n)
    # one evaluation: the constraint values, then f, so a constraint's error comes first
    *values, f = np.split(P.values(x, P.items[1:] + P.items[:1]), np.cumsum([P.m, P.p, P.l, P.l]))
    r = pen.residual(values)
    try:
        rows = [{"kappa": k, "value": pen.penalized_objective(f[0], r, k)}
                for k in args.kappa or [1.0]]
    except ValueError as err:
        raise ParseError(f"bad option: {err}") from None
    print(f"residual: {r:.6e}")
    for row in rows:
        print(f"kappa={row['kappa']:g}: penalized objective = {row['value']:.10g}")
    _emit_json(args.json_path, rp.sanitize({"residual": r, "values": rows}))
    return 0


def cmd_errorbound(args):
    P = load_problem(args.file)
    tol = _tolerances(args)
    x = _parse_point(args.point, P.n)
    rep = pen.error_bound_probe(PointContext(P, x, tol))
    print(f"error bound: {rep.verdict} (alpha_hat={rep.alpha_hat:.6g}, "
          f"n_samples={rep.n_samples}, seed={rep.seed})")
    for c in rep.ratio_curve:
        print(f"  radius={c['radius']:.3g}: max ratio={c['max_ratio']}")
    if rep.witness_sequence:
        print("  witness sequence:")
        for s in rep.witness_sequence:
            print(f"    radius={s['radius']:.3g} ratio={s['ratio']:.6g} "
                  f"point={s['point']}")
    _emit_json(args.json_path, rp.sanitize(rep))
    return 0


def cmd_cones(args):
    P = load_problem(args.file)
    tol = _tolerances(args)
    x = _parse_point(args.point, P.n)
    section = rp.sanitize(rp.cones_section(PointContext(P, x, tol)))
    for title, key in (("linearization cone", "linearization"),
                       ("critical cone", "critical")):
        print(f"{title}:")
        for piece in section[key]["pieces"]:
            print(f"  bipartition {piece['bipartition']}: "
                  f"vertices={piece.get('vertices')} rays={piece.get('rays')} "
                  f"lineality={piece.get('lineality')}")
    print(f"critical subspace basis: {section['critical_subspace']}")
    _emit_json(args.json_path, section)
    return 0


def cmd_parse(args):
    P = load_problem(args.file)
    sys.stdout.write(problem_text(P))
    return 0


COMMANDS = {"analyze": cmd_analyze, "solve": cmd_solve, "penalty": cmd_penalty,
            "errorbound": cmd_errorbound, "cones": cmd_cones, "parse": cmd_parse}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (MpscError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
