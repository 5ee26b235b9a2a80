"""Constraint-qualification checkers with three-valued verdicts.

Neighbourhood quantifiers ("there is a ball where the rank is constant")
are undecidable numerically, so every rank-constancy check samples three
shrinking radii and labels a positive verdict as sampled evidence rather
than proof.  The implication lattice then completes the verdict table and
cross-checks the direct results for contradictions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cones as cn
from .cones import PointContext, active_items, branch_items
from .errors import LatticeContradictionError, SizeCapError
from .numeric import (RADII_FRACTIONS, ball_offsets, eig_sym, nullspace, rank_margin,
                      rank_tol, rank_tol_batch)
from .problem import Bipartition
from .stationarity import expand_multiplier, lagrangian_hessian, multiplier_labels

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
# gradient families and sampled rank constancy
# ---------------------------------------------------------------------------

def rank_constancy(ctx: PointContext, items, tag) -> dict:
    """Sampled rank constancy of a gradient family near x.

    Returns a dict with constant (bool), base rank, witness sample (if any),
    and a thin_margin flag for fragile decisions near the rank cutoff.
    """
    P, x, tol = ctx.P, ctx.x, ctx.tol
    M0 = ctx.rows(items)
    r0 = rank_tol(M0, tol)
    thin = rank_margin(M0, tol) < 10.0
    witness = None
    for ri, frac in enumerate(RADII_FRACTIONS):
        rng = tol.rng("rankconst", tag, ri)
        X = x[None, :] + ball_offsets(rng, tol.n_samples, P.n, tol.eps_ball * frac)
        ranks = rank_tol_batch(P.jacobian(X, items), tol)
        bad = np.where(ranks != r0)[0]
        for b in bad:
            if rank_margin(P.jacobian(X[b], items), tol) < 10.0:
                thin = True
                continue
            witness = {"point": X[b].tolist(), "rank": int(ranks[b]),
                       "radius": tol.eps_ball * frac}
            break
        if witness:
            break
    return {"constant": witness is None, "rank": r0, "witness": witness,
            "thin_margin": thin, "n_samples": tol.n_samples,
            "radii": [tol.eps_ball * f for f in RADII_FRACTIONS], "seed": tol.seed}


# ---------------------------------------------------------------------------
# first-order checks
# ---------------------------------------------------------------------------

def check_licq(ctx: PointContext) -> CqVerdict:
    """Linear independence of the full active gradient family (exact)."""
    items = active_items(ctx)
    r = rank_tol(ctx.rows(items), ctx.tol)
    status = HOLDS if r == len(items) else FAILS
    return CqVerdict("LICQ", status, "exact",
                     {"rows": len(items), "rank": r, "family": items})


def check_wcr(ctx: PointContext) -> CqVerdict:
    """Sampled constant rank of the full active family near x."""
    rep = rank_constancy(ctx, active_items(ctx), "wcr")
    if rep["constant"] and rep["thin_margin"]:
        return CqVerdict("WCR", UNKNOWN, "sampled", rep)
    return CqVerdict("WCR", HOLDS if rep["constant"] else FAILS, "sampled", rep)


def check_pwcr(ctx: PointContext) -> CqVerdict:
    """Per-bipartition sampled constant rank of the branch families."""
    reports = []
    any_thin = False
    for bi, b in enumerate(ctx.bipartitions):
        rep = rank_constancy(ctx, branch_items(ctx, b.beta1, b.beta2), ("pwcr", bi))
        rep["bipartition"] = [list(b.beta1), list(b.beta2)]
        reports.append(rep)
        any_thin |= rep["thin_margin"]
        if not rep["constant"]:
            return CqVerdict("PWCR", FAILS, "sampled",
                             {"bipartitions": reports, "witness": rep["witness"]})
    status = UNKNOWN if any_thin else HOLDS
    return CqVerdict("PWCR", status, "sampled",
                     {"bipartitions": reports, "n_samples": ctx.tol.n_samples,
                      "seed": ctx.tol.seed})


def check_rcrcq(ctx: PointContext) -> CqVerdict:
    """Sampled constant rank over all subset triples (I1, I3, I4)."""
    P, x, tol, I = ctx.P, ctx.x, ctx.tol, ctx.I
    n_triples = 2 ** len(I.I_g) * 4 ** len(I.I_GH)
    if n_triples > RCRCQ_TRIPLE_CAP:
        return CqVerdict("RCRCQ", UNKNOWN, "sampled",
                         {"note": f"{n_triples} subset triples exceed the cap"})
    # evaluate the full gradient tensor once per radius, slice per triple
    full_items = [("g", i) for i in I.I_g] + list(P.items[1 + P.m:])
    pos = {it: r for r, it in enumerate(full_items)}

    tensors = []
    for ri, frac in enumerate(RADII_FRACTIONS):
        rng = tol.rng("rankconst", "rcrcq", ri)
        X = x[None, :] + ball_offsets(rng, tol.n_samples, P.n, tol.eps_ball * frac)
        tensors.append((X, P.jacobian(X, full_items)))

    g_subsets = list(_subsets(I.I_g))
    gh_subsets = list(_subsets(I.I_GH))
    any_thin = False
    checked = 0
    for I1 in g_subsets:
        for I3 in gh_subsets:
            for I4 in gh_subsets:
                items = branch_items(ctx, I3, I4, g_idx=I1)
                checked += 1
                if not items:
                    continue
                sel = [pos[it] for it in items]
                r0 = rank_tol(ctx.rows(items), tol)
                for X, T in tensors:
                    ranks = rank_tol_batch(T[:, sel, :], tol)
                    bad = np.where(ranks != r0)[0]
                    for bidx in bad:
                        if rank_margin(P.jacobian(X[bidx], items), tol) < 10.0:
                            any_thin = True
                            continue
                        return CqVerdict("RCRCQ", FAILS, "sampled", {
                            "triple": {"I1": list(I1), "I3": list(I3), "I4": list(I4)},
                            "witness": {"point": X[bidx].tolist(),
                                        "rank": int(ranks[bidx]), "base_rank": r0},
                            "seed": tol.seed})
    status = UNKNOWN if any_thin else HOLDS
    return CqVerdict("RCRCQ", status, "sampled",
                     {"triples_checked": checked, "n_samples": tol.n_samples,
                      "seed": tol.seed})


def _subsets(idx):
    idx = tuple(idx)
    for r in range(len(idx) + 1):
        yield from itertools.combinations(idx, r)


# ---------------------------------------------------------------------------
# I_g^- and PCRSC
# ---------------------------------------------------------------------------

def i_g_minus(ctx: PointContext, b: Bipartition):
    """Active inequalities forced to equality on the branch linearization cone.

    Primary route: -grad g_l lies in the cone generated by the remaining
    active inequality gradients (nonnegative weights) plus the span of the
    branch equality gradients.  Cross-check: g_l annihilates every generator
    of the branch linearization cone.  Returns (indices, crosscheck dict).
    """
    I = ctx.I
    picked = [l for l in I.I_g if ctx.combination(
        branch_items(ctx, b.beta1, b.beta2, g_idx=[i for i in I.I_g if i != l]),
        -ctx.grad("g", l), "feasible")]

    # cross-check against I_0 computed from the cone generators
    piece = ctx.linearization.pieces[ctx.bipartitions.index(b)]
    dirs = piece.generators(ctx.tol).all_rays()
    i0 = []
    for i in I.I_g:
        gi = ctx.grad("g", i)
        scale = 1e-9 * (1.0 + np.linalg.norm(gi))
        if all(abs(gi @ d) <= scale for d in dirs):
            i0.append(i)
    agree = set(picked) == set(i0)
    return tuple(picked), {"I0": i0, "agree": agree}


def check_pcrsc(ctx: PointContext) -> CqVerdict:
    """Per-bipartition constant rank with g restricted to I_g^-."""
    reports = []
    any_thin = False
    any_mismatch = False
    for bi, b in enumerate(ctx.bipartitions):
        igm, cross = i_g_minus(ctx, b)
        any_mismatch |= not cross["agree"]
        rep = rank_constancy(ctx, branch_items(ctx, b.beta1, b.beta2, g_idx=igm),
                             ("pcrsc", bi))
        rep["bipartition"] = [list(b.beta1), list(b.beta2)]
        rep["I_g_minus"] = list(igm)
        rep["crosscheck"] = cross
        reports.append(rep)
        any_thin |= rep["thin_margin"]
        if not rep["constant"] and cross["agree"]:
            return CqVerdict("PCRSC", FAILS, "sampled",
                             {"bipartitions": reports, "witness": rep["witness"]})
    if any_mismatch:
        return CqVerdict("PCRSC", UNKNOWN, "sampled",
                         {"bipartitions": reports,
                          "note": "I_g^- LP and I_0 cross-check disagree"})
    status = UNKNOWN if any_thin else HOLDS
    return CqVerdict("PCRSC", status, "sampled",
                     {"bipartitions": reports, "n_samples": ctx.tol.n_samples,
                      "seed": ctx.tol.seed})


# ---------------------------------------------------------------------------
# ACQ (sampled tangent cone vs linearization cone)
# ---------------------------------------------------------------------------

def check_acq(ctx: PointContext) -> CqVerdict:
    """Evidence-based equality of tangent and linearization cones.

    The inclusion T in L always holds; a sampled violation marks numeric
    failure (UNKNOWN).  The reverse inclusion is tested per piece: every
    generator must be shadowed by a sampled tangent direction of the same
    branch.  An unmatched generator whose ray visibly leaves the feasible
    set is a FAILS witness.
    """
    P, x, tol = ctx.P, ctx.x, ctx.tol
    L = ctx.linearization

    trivial = all(p.lineality_basis(tol).shape[1] == 0
                  and not p.generators(tol).rays for p in L.pieces)
    if trivial:
        return CqVerdict("ACQ", HOLDS, "exact",
                         {"note": "linearization cone is the origin"})

    cloud = cn.sample_tangent_directions(P, x, tol)
    for d in cloud.directions:
        if not L.member_angular(d, tol)[0]:
            return CqVerdict("ACQ", UNKNOWN, "sampled", {
                "note": "sampled tangent direction escaped the linearization "
                        "cone; projection accuracy is suspect",
                "direction": d.tolist()})

    unresolved = []
    for piece in L.pieces:
        gens = piece.generators(tol)
        targets = [r / np.linalg.norm(r) for r in gens.all_rays()]
        branch_dirs = cloud.by_branch.get(piece.tag.label(), np.zeros((0, P.n)))
        for t in targets:
            if branch_dirs.size and np.max(branch_dirs @ t) >= math.cos(tol.angular_tol):
                continue
            probe = x + 0.5 * tol.eps_ball * t
            r = float(P.residual(probe))
            if r > 10.0 * tol.tau_feas:
                return CqVerdict("ACQ", FAILS, "sampled", {
                    "witness_generator": t.tolist(),
                    "bipartition": [list(piece.tag.beta1), list(piece.tag.beta2)],
                    "probe_residual": r,
                    "n_samples": tol.n_samples, "seed": tol.seed})
            unresolved.append({"generator": t.tolist(), "probe_residual": r})
    if unresolved:
        return CqVerdict("ACQ", UNKNOWN, "sampled",
                         {"unmatched": unresolved, "seed": tol.seed})
    return CqVerdict("ACQ", HOLDS, "sampled",
                     {"cloud_size": len(cloud), "n_samples": tol.n_samples,
                      "seed": tol.seed})


# ---------------------------------------------------------------------------
# piecewise second-order quasi-normality (partial checker)
# ---------------------------------------------------------------------------

def check_psoqn(ctx: PointContext) -> CqVerdict:
    """Search for singular multipliers; certify absence, else probe failure.

    HOLDS is exact: no branch admits a nonzero (lambda >= 0, rho, mu, nu)
    with vanishing constraint-gradient combination.  FAILS needs all three
    defining conditions witnessed at once; anything less is UNKNOWN.
    """
    P = ctx.P
    candidates = []
    for b in ctx.bipartitions:
        items = branch_items(ctx, b.beta1, b.beta2, g_idx=range(P.m))
        try:
            rays = ctx.combination(items, np.zeros(P.n), "rays")
        except SizeCapError:
            return CqVerdict("PSOQN", UNKNOWN, "sampled",
                             {"note": "multiplier-ray enumeration exceeds caps"})
        for z in rays:
            m = expand_multiplier(P, multiplier_labels(items), z)
            if m.l1() > 1e-9:
                candidates.append((b, m))
    if not candidates:
        return CqVerdict("PSOQN", HOLDS, "exact",
                         {"note": "no nonzero singular multiplier on any branch"})

    for b, m in candidates:
        if _psoqn_second_order(ctx, b, m) and _psoqn_sign_sequence(ctx, m):
            return CqVerdict("PSOQN", FAILS, "sampled", {
                "bipartition": [list(b.beta1), list(b.beta2)],
                "multiplier": m.to_json(), "seed": ctx.tol.seed})
    return CqVerdict("PSOQN", UNKNOWN, "sampled",
                     {"candidates": len(candidates), "seed": ctx.tol.seed,
                      "note": "singular multipliers exist but no full witness"})


def _psoqn_second_order(ctx, b, m):
    """Constraint-Hessian combination PSD on the branch critical subspace."""
    B = nullspace(ctx.rows(branch_items(ctx, b.beta1, b.beta2)), ctx.tol)
    if B.shape[1] == 0:
        return True
    K = lagrangian_hessian(ctx, m, include_objective=False)
    w, _ = eig_sym(B.T @ K @ B)
    return bool(w[0] >= -ctx.tol.tau_psd)


def _psoqn_sign_sequence(ctx, m):
    """A sample at every shrinking radius matching all strict sign conditions."""
    P, x, tol = ctx.P, ctx.x, ctx.tol
    lam, rho, mu, nu = m.as_arrays()
    for ri, frac in enumerate(RADII_FRACTIONS):
        rng = tol.rng("psoqn", ri)
        X = x[None, :] + ball_offsets(rng, tol.n_samples, P.n, tol.eps_ball * frac)
        g, h, G, H = P.constraint_values(X)
        ok = np.ones(X.shape[0], dtype=bool)
        for i in range(P.m):
            if lam[i] > tol.tau_act:
                ok &= g[:, i] > 1e-12
        for j in range(P.p):
            if abs(rho[j]) > tol.tau_act:
                ok &= rho[j] * h[:, j] > 1e-12
        for k in range(P.l):
            if abs(mu[k]) > tol.tau_act:
                ok &= mu[k] * G[:, k] > 1e-12
            if abs(nu[k]) > tol.tau_act:
                ok &= nu[k] * H[:, k] > 1e-12
        if not np.any(ok):
            return False
    return True


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


CHECKERS = {"LICQ": check_licq, "WCR": check_wcr, "PWCR": check_pwcr,
            "RCRCQ": check_rcrcq, "PCRSC": check_pcrsc, "ACQ": check_acq,
            "PSOQN": check_psoqn}


def run_all(ctx: PointContext, with_psoqn=True) -> dict:
    """Direct checks plus lattice closure; the standard CQ table."""
    return lattice_closure({name: check(ctx) for name, check in CHECKERS.items()
                            if with_psoqn or name != "PSOQN"})
