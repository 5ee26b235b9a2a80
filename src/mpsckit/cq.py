"""Constraint-qualification checkers with three-valued verdicts.

Neighbourhood quantifiers ("there is a ball where the rank is constant")
are undecidable numerically.  One rank routine, `rank_constancy`, decides
WCR, PWCR, PCRSC and each RCRCQ subset triple: a family of full rank at x
with a clear margin on unit rows, or of constant gradients, is certified
without a sample; any other is sliced out of one active-family Jacobian on
the context's three shrinking shells, the same points for all, and its
positive verdict is sampled evidence.  ACQ tests the linearization cone's
own directions for tangency by the ratio dist(x + t d, F) / t over shrinking
t, through the branches at x.  The implication lattice then completes the
verdict table and cross-checks the direct results for contradictions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import penalty as pen
from .cones import ConePiece, PointContext, active_items, branch_items
from .errors import LatticeContradictionError, SizeCapError
from .expr import Const
from .numeric import RADII_FRACTIONS, rank_tol_batch, unit_rows
from .soc import quadform_min_over_cone
from .stationarity import Multipliers, lagrangian_hessian

HOLDS, FAILS, UNKNOWN = "HOLDS", "FAILS", "UNKNOWN"

CQ_NAMES = ("LICQ", "WCR", "PWCR", "RCRCQ", "PCRSC", "ACQ", "GCQ",
            "SSOCQ", "WSOCQ", "PSOQN")

# forward implication edges (contrapositives propagate FAILS backward)
LATTICE_EDGES = (
    ("LICQ", "RCRCQ"), ("RCRCQ", "ACQ"), ("ACQ", "GCQ"),
    ("RCRCQ", "PCRSC"), ("RCRCQ", "WCR"), ("RCRCQ", "SSOCQ"),
    ("PCRSC", "SSOCQ"), ("PCRSC", "ACQ"), ("SSOCQ", "ACQ"),
    ("SSOCQ", "WSOCQ"), ("WCR", "WSOCQ"), ("PWCR", "WSOCQ"),
)

RCRCQ_TRIPLE_CAP = 4096


@dataclass
class CqVerdict:
    name: str
    status: str
    mode: str = "exact"  # exact | sampled | inferred
    evidence: dict = field(default_factory=dict)

    def holds(self):
        return self.status == HOLDS


# ---------------------------------------------------------------------------
# gradient families and rank constancy
# ---------------------------------------------------------------------------

def _thin_ranks(F, tol):
    """Ranks and margins of a stack of families on unit rows, and where a margin
    under 10 makes a rank thin."""
    ranks, margins = rank_tol_batch(unit_rows(F), tol)
    return ranks, margins, margins < 10.0


def rank_constancy(ctx: PointContext, items) -> dict:
    """Rank constancy near x of a gradient family within the active family, every rank
    taken on unit rows: certified with no sample (`because`, n_samples 0) when the family
    has rank min(len(items), n) with a clear margin, as rank is lower semicontinuous, or
    its gradient trees are constants; otherwise sampled on `ctx.shells`, whose Jacobians
    one context shares.

    Returns a dict with constant (bool), base rank, witness sample (if any),
    and a thin_margin flag for fragile decisions near the rank cutoff.
    """
    tol = ctx.tol
    r0, _, thin = (v[0].item() for v in _thin_ranks(ctx.rows(items)[None], tol))
    rep = {"constant": True, "rank": r0, "witness": None, "thin_margin": thin,
           "n_samples": 0, "radii": [tol.eps_ball * f for f in RADII_FRACTIONS], "seed": tol.seed}
    if r0 == min(len(items), ctx.P.n) and not thin:
        return {**rep, "because": "full rank at x; rank is lower semicontinuous"}
    if all(isinstance(d, Const) for it in items for d in ctx.P.gradient_trees[it]):
        return {**rep, "because": "constant gradients"}
    active = active_items(ctx)
    sel = [active.index(it) for it in items]
    tensors = ctx.once("shell jacobians", lambda: [ctx.P.jacobian(X, active) for X in ctx.shells])
    witness = None
    for frac, X, T in zip(RADII_FRACTIONS, ctx.shells, tensors):
        ranks, _, thins = _thin_ranks(T[:, sel, :], tol)
        for b in np.flatnonzero(ranks != r0):
            if thins[b]:
                thin = True
                continue
            witness = {"point": X[b].tolist(), "rank": int(ranks[b]),
                       "radius": tol.eps_ball * frac}
            break
        if witness:
            break
    return {**rep, "constant": witness is None, "witness": witness, "thin_margin": thin,
            "n_samples": tol.n_samples}


# ---------------------------------------------------------------------------
# first-order checks
# ---------------------------------------------------------------------------

def check_licq(ctx: PointContext) -> CqVerdict:
    """Linear independence of the active gradients, on unit rows; a thin margin reads UNKNOWN."""
    items = active_items(ctx)
    r, margin, thin = (v[0].item() for v in _thin_ranks(ctx.rows(items)[None], ctx.tol))
    status = UNKNOWN if thin else HOLDS if r == len(items) else FAILS
    thin = {"thin_margin": True, "margin": margin} if thin else {}
    return CqVerdict("LICQ", status, "exact",
                     {"rows": len(items), "rank": r, "family": items, **thin})


def check_wcr(ctx: PointContext) -> CqVerdict:
    """Sampled constant rank of the full active family near x."""
    rep = rank_constancy(ctx, active_items(ctx))
    if rep["constant"] and rep["thin_margin"]:
        return CqVerdict("WCR", UNKNOWN, "sampled", rep)
    return CqVerdict("WCR", HOLDS if rep["constant"] else FAILS, "sampled", rep)


def check_pwcr(ctx: PointContext) -> CqVerdict:
    """Per-branch sampled constant rank of the branch families."""
    reports = []
    for br in ctx.branches:
        rep = rank_constancy(ctx, branch_items(ctx, *ctx.split(br)))
        rep["bipartition"] = ctx.split(br)
        reports.append(rep)
        if not rep["constant"]:
            ev = {"bipartitions": reports, **_sample_keys(reports, ctx.tol)}
            return CqVerdict("PWCR", FAILS, "sampled", {**ev, "witness": rep["witness"]})
    return _kept_rank("PWCR", reports, ctx.tol, bipartitions=reports)


def check_rcrcq(ctx: PointContext) -> CqVerdict:
    """Sampled constant rank over all subset triples (I1, I3, I4)."""
    I, tol = ctx.I, ctx.tol
    n_triples = 2 ** len(I.I_g) * 4 ** len(I.I_GH)
    if n_triples > RCRCQ_TRIPLE_CAP:
        return CqVerdict("RCRCQ", UNKNOWN, "sampled", {
            "note": f"{n_triples} subset triples exceed the cap", **_sample_keys([], tol)})
    gh_subsets = list(_subsets(I.I_GH))
    reports = []
    for I1, I3, I4 in itertools.product(_subsets(I.I_g), gh_subsets, gh_subsets):
        rep = rank_constancy(ctx, branch_items(ctx, I3, I4, g_idx=I1))
        reports.append(rep)
        if not rep["constant"]:
            w = rep["witness"]
            return CqVerdict("RCRCQ", FAILS, "sampled", {
                "triple": {"I1": list(I1), "I3": list(I3), "I4": list(I4)},
                "witness": {"point": w["point"], "rank": w["rank"], "base_rank": rep["rank"]},
                **_sample_keys(reports, tol)})
    return _kept_rank("RCRCQ", reports, tol, triples_checked=n_triples)


def _sample_keys(reports, tol):
    """The sample count and seed every sampled verdict carries: the largest count
    over the families checked (0 when each was certified, or none was checked)."""
    return {"n_samples": max((r["n_samples"] for r in reports), default=0), "seed": tol.seed}


def _kept_rank(name, reports, tol, **evidence):
    """The sampled verdict of families that all kept their rank: HOLDS, or UNKNOWN
    when a rank decision was thin."""
    status = UNKNOWN if any(r["thin_margin"] for r in reports) else HOLDS
    return CqVerdict(name, status, "sampled", {**evidence, **_sample_keys(reports, tol)})


def _subsets(idx):
    idx = tuple(idx)
    for r in range(len(idx) + 1):
        yield from itertools.combinations(idx, r)


# ---------------------------------------------------------------------------
# I_g^- and PCRSC
# ---------------------------------------------------------------------------

def i_g_minus(ctx: PointContext, piece: ConePiece):
    """Active inequalities forced to equality on a branch's linearization piece.

    Primary route: the implicit equalities of the piece
    (`ConePiece.implicit_equalities`, unit rows), mapped to I_g.
    Cross-check: the unit gradient of g_l annihilates every generator of
    that piece.  Returns (indices, crosscheck dict).
    """
    I = ctx.I
    picked = [I.I_g[k] for k in piece.implicit_equalities(ctx.tol)]

    # cross-check against I_0: the unit rows that vanish on every generator
    dirs = np.reshape(piece.generators(ctx.tol).all_rays(), (-1, ctx.P.n))
    i0 = [i for i, u in zip(I.I_g, unit_rows(piece.A_le)) if np.all(np.abs(dirs @ u) <= 1e-9)]
    return tuple(picked), {"I0": i0, "agree": set(picked) == set(i0)}


def check_pcrsc(ctx: PointContext) -> CqVerdict:
    """Per-branch constant rank with g restricted to I_g^-."""
    reports = []
    any_mismatch = False
    for br, piece in zip(ctx.branches, ctx.linearization):
        igm, cross = i_g_minus(ctx, piece)
        any_mismatch |= not cross["agree"]
        rep = rank_constancy(ctx, branch_items(ctx, *ctx.split(br), g_idx=igm))
        rep["bipartition"] = ctx.split(br)
        rep["I_g_minus"] = list(igm)
        rep["crosscheck"] = cross
        reports.append(rep)
        if not rep["constant"] and cross["agree"]:
            ev = {"bipartitions": reports, **_sample_keys(reports, ctx.tol)}
            return CqVerdict("PCRSC", FAILS, "sampled", {**ev, "witness": rep["witness"]})
    if any_mismatch:
        return CqVerdict("PCRSC", UNKNOWN, "sampled", {
            "bipartitions": reports, "note": "I_g^- LP and I_0 cross-check disagree",
            **_sample_keys(reports, ctx.tol)})
    return _kept_rank("PCRSC", reports, ctx.tol, bipartitions=reports)


# ---------------------------------------------------------------------------
# ACQ (tangency of the linearization cone's directions by distance ratios)
# ---------------------------------------------------------------------------

TILT = 0.3          # weight of the other generator in a tilted direction
N_INTERIOR = 16     # seeded interior combinations per piece
T_FRACTIONS = (1.0, 1e-1, 1e-2, 1e-3)  # steps t along a direction, times eps_ball
WITNESS_KEEP = 0.5  # a witness's ratio at the smallest t keeps at least this
                    # share of its ratio at the largest; a ratio falling with t
                    # is a tangent direction along a curved boundary


def acq_directions(piece: ConePiece, k, tol) -> np.ndarray:
    """Unit directions ACQ tests in piece k of the linearization cone, in
    order: the generators, each generator tilted toward each other one by
    TILT, then N_INTERIOR combinations from tol.rng("tangency", k) with
    uniform weights on the rays and normal weights on the lineality.  All
    lie in the piece; a piece that is the origin has none."""
    gens = piece.generators(tol)
    U = unit_rows(np.reshape(gens.all_rays(), (-1, piece.dim)))
    if not len(U):
        return U
    tilted = (U[:, None] + TILT * U[None])[~np.eye(len(U), dtype=bool)]
    rng = tol.rng("tangency", k)
    rays = np.reshape(gens.rays, (-1, piece.dim))
    lin = np.reshape(gens.lineality, (-1, piece.dim))
    interior = rng.uniform(size=(N_INTERIOR, len(rays))) @ rays \
        + rng.normal(size=(N_INTERIOR, len(lin))) @ lin
    return np.vstack([U, unit_rows(tilted), unit_rows(interior)])


def distance_ratios(ctx: PointContext, D, branches) -> np.ndarray:
    """dist(x + t d, F) / t for each row d of D (rows) and each step t of
    eps_ball * T_FRACTIONS (columns), the distance from
    `penalty.ray_distances` over `branches`; inf where no projection ends
    feasible."""
    ts = ctx.tol.eps_ball * np.array(T_FRACTIONS)
    return pen.ray_distances(ctx, D, ts, branches) / ts


def check_acq(ctx: PointContext) -> CqVerdict:
    """T(x) = L(x) tested along L's own directions (`acq_directions`).

    d is tangent exactly when dist(x + t d, F) / t -> 0 as t -> 0.  A
    direction whose ratio is finite, above sin(angular_tol) at every t and
    not falling (WITNESS_KEEP) is a witness that ACQ fails; one whose ratio
    at the smallest t is at most that threshold is tangent; any other is
    undecided.  HOLDS (sampled) needs every direction tangent; FAILS names
    the first witness.  Near x, F is the union of the branches at x: the
    distance through a direction's own branch bounds dist to F from above
    and settles most tangent directions, and only the rest are projected
    onto every branch at x.
    """
    tol = ctx.tol
    L = ctx.linearization
    if all(p.is_origin(tol) for p in L):
        return CqVerdict("ACQ", HOLDS, "exact",
                         {"note": "linearization cone is the origin"})

    per_piece = [acq_directions(p, k, tol) for k, p in enumerate(L)]
    D = np.vstack(per_piece)
    owner = np.repeat(np.arange(len(per_piece)), [len(d) for d in per_piece])
    ratios = np.vstack([distance_ratios(ctx, d, [br])
                        for d, br in zip(per_piece, ctx.branches) if len(d)])
    threshold = math.sin(tol.angular_tol)
    rest = ratios[:, -1] > threshold
    if rest.any():
        ratios[rest] = distance_ratios(ctx, D[rest], ctx.branches)
    witness = np.isfinite(ratios).all(axis=1) & (ratios > threshold).all(axis=1) \
        & (ratios[:, -1] >= WITNESS_KEEP * ratios[:, 0])
    tangent = ratios[:, -1] <= threshold
    evidence = {"directions": len(D), "tangent": int(tangent.sum()),
                "witnesses": int(witness.sum()), "undecided": int((~witness & ~tangent).sum()),
                "t": tol.eps_ball * np.array(T_FRACTIONS), "threshold": threshold,
                "seed": tol.seed}
    if witness.any():
        i = int(np.argmax(witness))
        return CqVerdict("ACQ", FAILS, "sampled", {
            "witness": D[i], "bipartition": ctx.split(ctx.branches[owner[i]]),
            "ratios": ratios[i], **evidence})
    return CqVerdict("ACQ", HOLDS if tangent.all() else UNKNOWN, "sampled", evidence)


# ---------------------------------------------------------------------------
# piecewise second-order quasi-normality (partial checker)
# ---------------------------------------------------------------------------

def check_psoqn(ctx: PointContext) -> CqVerdict:
    """Search for singular multipliers; certify absence, else probe failure.

    HOLDS is exact: no branch admits a nonzero (lambda >= 0 on I_g, rho, mu, nu)
    with vanishing constraint-gradient combination.  FAILS needs all three
    defining conditions witnessed at once; anything less is UNKNOWN.
    """
    P = ctx.P
    candidates = []
    for br in ctx.branches:
        items = branch_items(ctx, *ctx.split(br))
        try:
            rays = ctx.combination(items, np.zeros(P.n), "rays")
        except SizeCapError:
            return CqVerdict("PSOQN", UNKNOWN, "sampled",
                             {"note": "multiplier-ray enumeration exceeds caps"})
        for z in rays:
            m = Multipliers.over(P, items, z)
            if m.l1() > 1e-9:
                candidates.append((br, items, m))
    if not candidates:
        return CqVerdict("PSOQN", HOLDS, "exact",
                         {"note": "no nonzero singular multiplier on any branch"})

    for br, items, m in candidates:
        if _psoqn_second_order(ctx, items, m) and _psoqn_sign_sequence(ctx, m):
            return CqVerdict("PSOQN", FAILS, "sampled", {
                "bipartition": ctx.split(br),
                "multiplier": m.to_json(), "seed": ctx.tol.seed})
    return CqVerdict("PSOQN", UNKNOWN, "sampled",
                     {"candidates": len(candidates), "seed": ctx.tol.seed,
                      "note": "singular multipliers exist but no full witness"})


def _psoqn_second_order(ctx, items, m):
    """Constraint-Hessian combination PSD on the critical subspace of a branch family."""
    piece = ConePiece.subspace(ctx.rows(items))
    qf = quadform_min_over_cone(lagrangian_hessian(ctx, m, include_objective=False), piece, ctx.tol)
    return not qf.negative(ctx.tol)


def _psoqn_sign_sequence(ctx, m):
    """A sample at every shrinking radius where each strict term (|coefficient|
    > tau_act) has a value of its coefficient's sign: coefficient * value above
    1e-12, a g value itself (lambda >= 0)."""
    P = ctx.P
    strict = [(c, it) for c, it in m.terms() if abs(c) > ctx.tol.tau_act]
    cols = [P.items.index(it) - 1 for _, it in strict]
    scale = np.array([1.0 if kind == "g" else c for c, (kind, _) in strict])
    shell_values = ctx.once("psoqn values", lambda: [P.values(X, P.items[1:]) for X in ctx.shells])
    return all(np.any(np.all(V[:, cols] * scale > 1e-12, axis=1)) for V in shell_values)


# ---------------------------------------------------------------------------
# implication lattice
# ---------------------------------------------------------------------------

def lattice_closure(verdicts: dict) -> dict:
    """Complete a verdict table along the implication edges.

    HOLDS propagates forward, FAILS backward; a node receiving both raises
    LatticeContradictionError (a tolerance or sampling bug upstream).
    Direct verdicts are never overwritten.
    """
    out = {name: verdicts[name] for name in verdicts}
    derived_h = {}  # node -> source chain
    derived_f = {}

    changed = True
    holds = {n for n, v in out.items() if v.status == HOLDS}
    fails = {n for n, v in out.items() if v.status == FAILS}
    while changed:
        changed = False
        for a, b in LATTICE_EDGES:
            if a in holds and b not in holds:
                holds.add(b)
                derived_h.setdefault(b, a)
                changed = True
            if b in fails and a not in fails:
                fails.add(a)
                derived_f.setdefault(a, b)
                changed = True

    conflict = holds & fails
    if conflict:
        raise LatticeContradictionError(
            f"lattice contradiction on {sorted(conflict)}: "
            "a direct verdict is inconsistent with the implication edges")

    for name in CQ_NAMES:
        if name in out and out[name].status != UNKNOWN:
            continue
        if name in holds:
            src = derived_h.get(name, "direct")
            out[name] = CqVerdict(name, HOLDS, "inferred",
                                  {"via": f"{src} HOLDS implies {name}"})
        elif name in fails:
            src = derived_f.get(name, "direct")
            out[name] = CqVerdict(name, FAILS, "inferred",
                                  {"via": f"{name} FAILS follows from {src} FAILS"})
        elif name not in out:
            out[name] = CqVerdict(name, UNKNOWN, "inferred", {})
    return out


# the CQs checked directly, each by its check_<name> function
CHECKERS = ("LICQ", "WCR", "PWCR", "RCRCQ", "PCRSC", "ACQ", "PSOQN")
