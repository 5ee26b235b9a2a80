"""Acceptance suite: golden-example reproduction plus the property suites.

Each criterion prints one PASS line on success; a pytest failure marks the
criterion FAIL.  Defaults throughout: seed 42, n_samples 512.
"""

import numpy as np
import pytest

from conftest import (CORPUS_POINTS, checked_acq_directions, cq_table, kernel_gradient,
                      kernel_hessian, kernel_value, lagrangian_gradient)
from mpsckit import cones, cq, penalty, soc
from mpsckit import stationarity as st
from mpsckit.cones import PointContext
from mpsckit.expr import parse_expr
from mpsckit.numeric import Tolerances
from mpsckit.problem import Bipartition, all_branches, load_problem
from mpsckit import solver
from mpsckit.solver import solve_enumerative, solve_penalty_descent

TOL = Tolerances()


def _report(num, name):
    print(f"\nACCEPTANCE {num} {name}: PASS")


def rank_oracle(M):
    return np.linalg.matrix_rank(np.asarray(M), tol=1e-8)


def test_criterion_1_golden_cq_triples(corpus):
    expected = {
        "wedge3d": ("HOLDS", "FAILS", "HOLDS"),
        "tilted_sheet3d": ("FAILS", "HOLDS", None),
        "ray2d": ("HOLDS", "HOLDS", "FAILS"),
    }
    for name, (wcr_s, pwcr_s, pcrsc_s) in expected.items():
        P = corpus[name]
        x = np.array(CORPUS_POINTS[name])
        ctx = PointContext(P, x, TOL)
        wcr = cq.check_wcr(ctx)
        pwcr = cq.check_pwcr(ctx)
        assert wcr.status == wcr_s, (name, "WCR")
        assert pwcr.status == pwcr_s, (name, "PWCR")
        assert wcr.mode == pwcr.mode == "sampled"
        if pcrsc_s is not None:
            pcrsc = cq.check_pcrsc(ctx)
            assert pcrsc.status == pcrsc_s, (name, "PCRSC")
        # re-verify each FAILS witness with an independent rank oracle
        for verdict, items_of in ((wcr, "wcr"), (pwcr, "pwcr")):
            if verdict.status != "FAILS":
                continue
            if items_of == "wcr":
                cand = [cones.active_items(ctx)]
            else:
                cand = [cones.branch_items(ctx, b.beta1, b.beta2) for b in ctx.bipartitions]
            w = verdict.evidence.get("witness") or next(
                r["witness"] for r in verdict.evidence["bipartitions"]
                if not r["constant"])
            point = np.array(w["point"])
            base_ranks = [rank_oracle(P.jacobian(x, it)) for it in cand]
            samp_ranks = [rank_oracle(P.jacobian(point, it)) for it in cand]
            assert any(b != s for b, s in zip(base_ranks, samp_ranks))
    _report(1, "golden CQ verdict triples")


def test_criterion_2_m_vs_s_stationarity(corpus):
    P = corpus["axes2d"]
    x = np.zeros(2)
    m = st.check_m_stationary(PointContext(P, x, TOL))
    assert m.status == "HOLDS"
    assert m.patterns and all(p["feasible"] for p in m.patterns)
    ctx = PointContext(P, x, TOL)
    for pat in m.patterns:
        w = pat["witness"]
        assert abs(w["mu"][0] + w["nu"][0] - 2.0) <= 1e-8
        wit = st.Multipliers(tuple(w["lambda"]), tuple(w["rho"]),
                             tuple(w["mu"]), tuple(w["nu"]))
        assert np.linalg.norm(lagrangian_gradient(ctx, wit)) <= 1e-8
    w = m.witness
    assert abs(w.mu[0] + w.nu[0] - 2.0) <= 1e-8
    assert np.linalg.norm(lagrangian_gradient(ctx, w)) <= 1e-8
    s = st.check_s_stationary(ctx)
    assert s.status == "FAILS"
    assert st.normal_cone_oracle(ctx, "M") is True
    assert st.normal_cone_oracle(ctx, "S") is False
    _report(2, "M-stationarity versus S-stationarity with oracle agreement")


def test_criterion_3_i_g_minus_golden(corpus):
    cases = [
        ("wedge3d", Bipartition((0,), ()), (0,)),
        ("wedge3d", Bipartition((), (0,)), ()),
        ("ray2d", Bipartition((), (0,)), (1,)),
    ]
    for name, b, expected in cases:
        P = corpus[name]
        x = np.array(CORPUS_POINTS[name])
        picked, cross = cq.i_g_minus(PointContext(P, x, TOL), b)
        assert picked == expected, (name, b)
        assert cross["agree"]
        assert set(cross["I0"]) == set(expected)
    _report(3, "I_g^- golden values with I_0 cross-check")


def test_criterion_4_acq_verdicts(corpus):
    v = cq.check_acq(PointContext(corpus["parabola_sheet3d"], np.zeros(3), TOL))
    assert v.status == "FAILS"
    w = np.array(v.evidence["witness"])
    assert w[0] > 0.9  # close to the generator e1 of the half-space piece R+ x R x R
    probe = np.zeros(3) + 0.5 * TOL.eps_ball * w
    assert float(corpus["parabola_sheet3d"].residual(probe)) > 10 * TOL.tau_feas

    ctx = PointContext(corpus["crossplanes3d"], np.zeros(3), TOL)
    v2 = cq.check_acq(ctx)
    assert v2.status == "HOLDS"
    # every generator of every piece is a verified tangent direction:
    # dist(x + t d, F) / t falls to the threshold at the smallest t
    for piece in ctx.linearization.pieces:
        gens = np.reshape(piece.generators(TOL).all_rays(), (-1, 3))
        ratios = cq.distance_ratios(ctx, gens / np.linalg.norm(gens, axis=1, keepdims=True),
                                    ctx.branches)
        assert np.all(ratios[:, -1] <= np.sin(TOL.angular_tol))
    _report(4, "ACQ verdicts on the two boundary examples")


def test_criterion_5_second_order_conditions(corpus):
    P = corpus["pinch2d"]
    x = np.zeros(2)
    ssonc = soc.check_ssonc(PointContext(P, x, TOL))
    assert ssonc.status == "FAILS"
    assert ssonc.witness["value"] == pytest.approx(-2.0, abs=1e-8)
    d = np.asarray(ssonc.witness["direction"])
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-9)
    assert abs(d[0]) == pytest.approx(1.0, abs=1e-9)  # direction in R x {0}
    assert d[1] == pytest.approx(0.0, abs=1e-9)
    wsonc = soc.check_wsonc(PointContext(P, x, TOL))
    assert wsonc.status == "HOLDS"
    assert wsonc.evidence["subspace_dim"] == 0

    Q = corpus["diagonal2d"]
    assert cq.check_rcrcq(PointContext(Q, x, TOL)).status == "HOLDS"
    C = cones.critical_cone(PointContext(Q, x, TOL))
    for piece in C.pieces:
        gen = piece.generators(TOL)
        assert not gen.rays and not gen.lineality  # piece is the origin
    v = soc.check_ssonc(PointContext(Q, x, TOL))
    assert v.status == "HOLDS" and v.mode == "exact"
    _report(5, "second-order necessary conditions golden examples")


def _cross_set_oracle(a, b):
    """Brute-force tangent cloud / polar / limit classification at (a, b)."""
    eps = 0.1
    p = np.array([a, b])

    def set_points(center, radius, count=400):
        ts = np.linspace(-radius, radius, count)
        pts = [np.array([center[0] + t, 0.0]) for t in ts]
        pts += [np.array([0.0, center[1] + t]) for t in ts]
        return [q for q in pts
                if abs(q[0] * q[1]) <= 1e-15 and np.linalg.norm(q - center) <= radius]

    def tangent_dirs(center):
        # local radius: away from the origin the other branch must stay
        # outside the sampling ball
        nrm_c = np.linalg.norm(center)
        radius = eps if nrm_c <= 1e-12 else min(eps, 0.9 * nrm_c)
        dirs = []
        for q in set_points(center, radius):
            step = q - center
            nrm = np.linalg.norm(step)
            if nrm > 1e-12:
                dirs.append(step / nrm)
        return np.array(dirs) if dirs else np.zeros((0, 2))

    def polar(dirs):
        grid = np.array([[np.cos(t), np.sin(t)]
                         for t in np.linspace(0, 2 * np.pi, 720, endpoint=False)])
        if dirs.size == 0:
            return grid
        return grid[np.max(grid @ dirs.T, axis=1) <= 1e-9]

    def classify(vecs):
        vecs = np.asarray(vecs)
        if vecs.size == 0:
            return "origin"
        on_x = np.any(np.abs(vecs @ [0.0, 1.0]) <= 1e-2)
        on_y = np.any(np.abs(vecs @ [1.0, 0.0]) <= 1e-2)
        off_axes = np.any((np.abs(vecs[:, 0]) > 1e-2) & (np.abs(vecs[:, 1]) > 1e-2))
        assert not off_axes
        if on_x and on_y:
            return "cross"
        return "RxO" if on_x else "OxR"

    tangent = classify(tangent_dirs(p))
    frechet = classify(polar(tangent_dirs(p)))
    limit_vecs = []
    for q in set_points(p, eps / 2, count=21) + [p]:
        limit_vecs.extend(polar(tangent_dirs(q)))
    limiting = classify(np.array(limit_vecs))
    return tangent, frechet, limiting


def test_criterion_6_cross_set_cone_oracle():
    grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
    tags = {("OxR", "RxO", "RxO"): "a_zero_b_nonzero",
            ("RxO", "OxR", "OxR"): "a_nonzero_b_zero",
            ("cross", "origin", "cross"): "both_zero"}
    checked = 0
    for a in grid:
        for b in grid:
            if a * b != 0.0:
                continue
            row = cones.cross_cones(a, b, TOL)
            oracle = _cross_set_oracle(a, b)
            assert oracle == (row.tangent, row.frechet_normal, row.limiting_normal)
            assert tags[oracle] == row.case
            checked += 1
    assert checked == 9
    _report(6, "cross-set cone table versus brute-force polar/limit oracle")


def test_criterion_7_error_bound_and_exact_penalty(corpus):
    rep = penalty.error_bound_probe(PointContext(corpus["ray2d"], np.zeros(2), TOL))
    assert rep.verdict == "FAILS"
    ratios = [s["ratio"] for s in rep.witness_sequence]
    assert ratios[0] <= ratios[1] <= ratios[2]
    assert ratios[2] >= 16.0 * (1.0 - penalty.GROWTH_SLACK) * ratios[0]
    for s in rep.witness_sequence:  # escape ray is (t, 0)
        assert s["point"][0] > 0 and abs(s["point"][1]) <= 1e-9

    ctx = PointContext(corpus["diagonal2d"], np.zeros(2), TOL)
    rep2 = penalty.error_bound_probe(ctx)
    assert rep2.verdict == "HOLDS"
    pr = penalty.exact_penalty_probe(ctx, rep2)
    assert pr.kappa_bar_hat is not None
    assert pr.minimality_radius == 0.05 and pr.n_min_samples == 1000
    two_kappa = [g for g in pr.kappa_grid
                 if g["kappa"] == pytest.approx(2.0 * pr.kappa_bar_hat)]
    assert two_kappa and two_kappa[0]["local_min"] is True
    _report(7, "error-bound failure and exact-penalty certificate")


def test_criterion_8a_derivatives_vs_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        names = tuple(f"x{j+1}" for j in range(n))
        terms = []
        for _ in range(rng.integers(1, 5)):
            powers = np.zeros(n, dtype=int)
            for _ in range(rng.integers(0, 5)):
                powers[rng.integers(0, n)] += 1
            fac = [f"{rng.uniform(-3, 3):.6f}"]
            fac += [f"x{j+1}^{p}" if p > 1 else f"x{j+1}"
                    for j, p in enumerate(powers) if p > 0]
            terms.append("*".join(fac))
        e = parse_expr(" + ".join(terms), names)
        x = rng.uniform(-1, 1, size=n)
        h = 1e-5
        gfd = np.zeros(n)
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            gfd[j] = (kernel_value(e, xp) - kernel_value(e, xm)) / (2 * h)
        g = kernel_gradient(e, x)
        assert np.max(np.abs(g - gfd)) <= 1e-5 * max(1.0, np.max(np.abs(gfd)))
        H = kernel_hessian(e, x)
        Hfd = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
                xpp[i] += h; xpp[j] += h
                xpm[i] += h; xpm[j] -= h
                xmp[i] -= h; xmp[j] += h
                xmm[i] -= h; xmm[j] -= h
                Hfd[i, j] = (kernel_value(e, xpp) - kernel_value(e, xpm)
                             - kernel_value(e, xmp) + kernel_value(e, xmm)) / (4 * h * h)
        assert np.max(np.abs(H - Hfd)) <= 1e-4 * max(1.0, np.max(np.abs(Hfd)))
    _report("8a", "symbolic derivatives match central differences")


def test_criterion_8b_branch_union_law(corpus):
    rng = np.random.default_rng(42)
    for name, P in corpus.items():
        X = rng.uniform(-1, 1, size=(200, P.n))
        res = P.residual(X)
        branch_res = np.min(np.stack([br.residual(X) for br in all_branches(P)]),
                            axis=0)
        assert np.array_equal(res <= TOL.tau_feas, branch_res <= TOL.tau_feas), name
    _report("8b", "branch-union feasibility law")


def test_criterion_8c_acq_directions_inside_linearization(corpus):
    # ACQ tests only directions of L, where T in L is never at stake, and
    # it finds a direction to test in every piece that is not the origin
    for name, P in corpus.items():
        assert checked_acq_directions(PointContext(P, np.array(CORPUS_POINTS[name]), TOL)), name
    _report("8c", "directions ACQ tests lie in the linearization cone")


def test_criterion_8d_stationarity_chain(corpus):
    checked = 0
    rng = np.random.default_rng(42)
    for name, P in corpus.items():
        points = [np.array(CORPUS_POINTS[name])]
        # extra feasible points from branch projections of random samples
        from mpsckit.solver import project_branch_cloud
        for br in all_branches(P):
            Y = project_branch_cloud(P, br, rng.uniform(-1, 1, size=(25, P.n)), TOL)
            points.extend(Y[P.residual(Y) <= TOL.tau_feas][:13])
        for x in points:
            ctx = PointContext(P, x, TOL)
            s = st.check_s_stationary(ctx).holds()
            m = st.check_m_stationary(ctx).holds()
            w = st.check_w_stationary(ctx).holds()
            assert (not s or m) and (not m or w), name
            checked += 1
        if checked >= 200:
            break
    assert checked >= 100
    _report("8d", f"S=>M=>W verdict chain on {checked} feasible points")


def test_criterion_8e_residual_distance_zero_sets(corpus):
    rng = np.random.default_rng(42)
    checked = 0
    for name, P in corpus.items():
        # the error-bound probe's path: one batch of every point per problem
        X = rng.uniform(-0.6, 0.6, size=(25, P.n))
        dists, Y = penalty.nearest_feasible(P, X, TOL, all_branches(P))
        for x, d, y in zip(X, dists, Y):
            if not np.isfinite(d):
                continue  # no branch projection ended feasible
            r = penalty.residual(P.constraint_values(x))
            assert (d == 0.0) == (r <= TOL.tau_feas), name
            assert penalty.residual(P.constraint_values(y)) <= TOL.tau_feas
            checked += 1
    assert checked >= 150
    _report("8e", f"residual and distance zero sets agree on {checked} samples")


def test_criterion_8f_lattice_closure_no_contradiction(corpus):
    for name, P in corpus.items():
        x = np.array(CORPUS_POINTS[name])
        table = cq_table(PointContext(P, x, TOL))  # raises on contradiction
        assert set(table) == set(cq.CQ_NAMES)
    _report("8f", "lattice closure raises no contradiction on the corpus")


def test_criterion_8g_penalty_descent_vs_enumerative(monkeypatch):
    monkeypatch.setattr(solver, "LHS_STARTS", 3)
    monkeypatch.setattr(solver, "MAX_INNER", 100)
    rng = np.random.default_rng(42)
    kept = 0
    while kept < 20:
        n = int(rng.integers(1, 4))
        names = [f"x{j+1}" for j in range(n)]
        lines = [f"vars {' '.join(names)}"]
        center = rng.uniform(-1, 1, size=n)
        lines.append("min " + " + ".join(
            f"(x{j+1} - {center[j]:.4f})^2" for j in range(n)))
        for _ in range(int(rng.integers(0, 3))):
            j = int(rng.integers(0, n))
            lines.append(f"ineq {rng.choice(['-', ''])}x{j+1} - {rng.uniform(0, 1):.4f}")
        for _ in range(int(rng.integers(0, 3))):
            j, k = rng.integers(0, n, size=2)
            a, b = rng.uniform(-0.8, 0.8, size=2)
            lines.append(f"switch x{j+1} - {a:.4f} | x{k+1} - {b:.4f}")
        P = load_problem("\n".join(lines) + "\n", from_path=False)
        if P.l > 2:
            continue
        x0 = rng.uniform(-1.5, 1.5, size=n)
        ref = solve_enumerative(P, x0, TOL)
        if ref.status != "feasible":
            continue
        kept += 1
        sol = solve_penalty_descent(P, x0, TOL)
        if sol.status == "feasible":
            assert sol.value >= ref.value - 1e-6
    _report("8g", "penalty descent never beats the enumerative oracle")
