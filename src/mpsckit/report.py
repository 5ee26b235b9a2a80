"""Report assembly shared by the CLI commands: analyses and solve results.

Every verdict in the report carries its mode and the seed, and component
failures are collected as error entries instead of aborting the rest of the
analysis.
"""

from __future__ import annotations

import json
from dataclasses import replace
from importlib import resources

from . import cones as cn
from . import cq as cqmod
from . import penalty as pen
from . import soc as socmod
from . import solver
from . import stationarity as st
from .errors import MpscError
from .numeric import Tolerances, sanitize
from .problem import MpscProblem
from .expr import to_text

SCHEMA_VERSION = "1"


def load_schema():
    with resources.files("mpsckit.schemas").joinpath("report-v1.json").open() as fh:
        return json.load(fh)


def problem_echo(P: MpscProblem) -> dict:
    return {
        "n": P.n,
        "var_names": list(P.var_names),
        "min": to_text(P.f, P.var_names),
        "ineq": [to_text(e, P.var_names) for e in P.g],
        "eq": [to_text(e, P.var_names) for e in P.h],
        "switch": [[to_text(G, P.var_names), to_text(H, P.var_names)]
                   for G, H in P.switch_pairs],
    }


def _piece_json(piece, tol):
    out = {"bipartition": [sorted(piece.tag.beta1), sorted(piece.tag.beta2)]
           if piece.tag else None}
    try:
        gen = piece.generators(tol)
        out["vertices"] = gen.vertices
        out["rays"] = gen.rays
        out["lineality"] = gen.lineality
    except MpscError as err:
        out["error"] = str(err)
    return out


def cones_section(ctx: cn.PointContext) -> dict:
    """Cone generators at ctx's point, as numpy arrays: sanitize makes it JSON."""
    return {
        "linearization": {"pieces": [_piece_json(p, ctx.tol) for p in ctx.linearization.pieces]},
        "critical": {"pieces": [_piece_json(p, ctx.tol) for p in ctx.critical.pieces]},
        "critical_subspace": ctx.critical_subspace.lineality_basis(ctx.tol).T,
    }


def analyze(P: MpscProblem, x, tol: Tolerances, with_penalty=False) -> dict:
    """Full analysis pipeline; partial results on component errors."""
    ctx = cn.PointContext(P, x, tol)
    report = {
        "version": SCHEMA_VERSION,
        "seed": tol.seed,
        "tolerances": tol,
        "problem": problem_echo(P),
        "point": ctx.x,
        "errors": [],
    }
    report["residual"] = r = pen.residual(ctx.values)
    report["feasible"] = bool(r <= tol.tau_feas)
    if not report["feasible"]:
        report["note"] = "point is infeasible; analysis limited to the residual"
        return sanitize(report)

    def run(name, fn):
        try:
            return fn()
        except MpscError as err:
            report["errors"].append({"component": name, "message": str(err)})
            return None

    I = run("index_sets", lambda: ctx.I)
    if I is not None:
        report["index_sets"] = I
        report["bipartitions"] = [[sorted(b.beta1), sorted(b.beta2)]
                                  for b in ctx.bipartitions]
    cones = run("cones", lambda: cones_section(ctx))
    if cones is not None:  # the schema has no null section
        report["cones"] = cones

    sta = {}
    for kind, fn in (("W", st.check_w_stationary), ("M", st.check_m_stationary),
                     ("S", st.check_s_stationary)):
        v = run(f"stationarity.{kind}", lambda fn=fn: fn(ctx))
        if v is not None:
            sta[kind] = v
    oracle = run("stationarity.oracle", lambda: {
        "M": st.normal_cone_oracle(ctx, "M"),
        "S": st.normal_cone_oracle(ctx, "S")})
    if oracle is not None:
        sta["normal_cone_oracle"] = oracle

    decided = {}  # each checker is its own component; the rest still close the lattice
    for name in cqmod.CHECKERS:  # looked up at call time, so a rebound checker is the one run
        v = run(f"cq.{name}", lambda name=name: getattr(cqmod, "check_" + name.lower())(ctx))
        if v is not None:
            decided[name] = v
    cq_table = run("cq", lambda: cqmod.lattice_closure(decided)) if decided else None
    soc_out = {}
    if "S" in sta and sta["S"].holds():
        for kind, fn in (("WSONC", socmod.check_wsonc), ("SSONC", socmod.check_ssonc)):
            v = run(f"soc.{kind}", lambda fn=fn: fn(ctx))
            if v is not None:
                soc_out[kind] = v
    else:
        soc_out["note"] = ("skipped: second-order conditions presuppose an "
                           "S-stationary point and S-stationarity does not hold")

    report["verdicts"] = {
        "stationarity": sta,
        "cq": cq_table or {},
        "soc": soc_out,
    }

    if with_penalty:
        eb = run("errorbound", lambda: pen.error_bound_probe(ctx))
        if eb is not None:  # no penalty section without its error bound
            report["errorbound"] = eb
            pr = run("penalty", lambda: pen.exact_penalty_probe(ctx, eb))
            if pr is not None:
                report["penalty"] = pr
    return sanitize(report)


def annotate_stationarity(P: MpscProblem, sol: solver.LocalSolution,
                          tol: Tolerances) -> solver.LocalSolution:
    """Record first-order sanity data at a feasible solver iterate.

    Activity detection is relaxed to the KKT scale, since iterates sit
    within tau_kkt of the true active set, not within tau_act.
    """
    if sol.status != "feasible":
        return sol
    ctx = cn.PointContext(P, sol.x, replace(tol, tau_act=max(tol.tau_act, 10.0 * solver.TAU_KKT)))
    try:
        w_res = st.w_stationarity_residual(ctx)
    except MpscError as err:
        sol.stationarity = {"error": str(err)}
        return sol
    sol.stationarity = {
        "W_residual": w_res,
        "W_within_10_tau_kkt": bool(w_res <= 10.0 * solver.TAU_KKT),
    }
    for kind, fn in (("W", st.check_w_stationary), ("M", st.check_m_stationary),
                     ("S", st.check_s_stationary)):
        try:
            sol.stationarity[kind] = fn(ctx).status
        except MpscError:
            sol.stationarity[kind] = "UNKNOWN"
    return sol
