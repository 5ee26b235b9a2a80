import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (CORPUS_POINTS, OFF_BIACTIVE_POINTS, checked_acq_directions, cq_table,
                      scaled_text)
from mpsckit import cones, cq, penalty, report
from mpsckit.cones import PointContext
from mpsckit.cq import CqVerdict
from mpsckit.errors import LatticeContradictionError
from mpsckit.numeric import Tolerances, rank_tol_batch
from mpsckit.problem import MpscProblem, load_problem
from mpsckit.stationarity import Multipliers

TOL = Tolerances()
REPORT_DIR = Path(__file__).resolve().parent / "data" / "reports"


def rank_oracle(P, x, items):
    return np.linalg.matrix_rank(P.jacobian(x, items), tol=1e-8)


class TestLicq:
    def test_diagonal2d_fails(self, corpus):
        v = cq.check_licq(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS" and v.mode == "exact"
        assert v.evidence["rows"] == 3 and v.evidence["rank"] == 2

    def test_wedge3d_fails(self, corpus):
        v = cq.check_licq(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        assert v.evidence["rows"] == 5

    def test_single_boundary_constraint_holds(self):
        P = load_problem("vars x\nmin x\nineq -x\n")
        assert cq.check_licq(PointContext(P, [0.0], TOL)).status == "HOLDS"

    def test_thin_margin_reads_unknown(self):
        # the two active gradients are 5e-8 apart in direction, so the rank
        # sits within a factor 10 of the cutoff, the rule rank_constancy
        # applies; LICQ then implies nothing over WCR's and RCRCQ's UNKNOWN
        P = load_problem("vars x1 x2\nmin x1 + x2\nineq -x1\nineq -x1 - 5e-8*x2\n")
        ctx = PointContext(P, [0.0, 0.0], TOL)
        licq = cq.check_licq(ctx)
        assert (licq.status, licq.mode, licq.evidence["thin_margin"]) == ("UNKNOWN", "exact", True)
        assert 1.0 <= licq.evidence["margin"] < 10.0
        table = cq.lattice_closure({"LICQ": licq, "WCR": cq.check_wcr(ctx),
                                    "RCRCQ": cq.check_rcrcq(ctx)})
        assert [(table[n].status, table[n].mode) for n in ("LICQ", "WCR", "RCRCQ")] == \
            [("UNKNOWN", "exact"), ("UNKNOWN", "sampled"), ("UNKNOWN", "sampled")]

    @pytest.mark.parametrize("s", ["1e-170", "1e-12", "1e-9", "1", "1e7", "1e8", "1e9",
                                   "1e12", "1e50", "1e160", "1e200"])
    def test_the_scale_of_a_row_moves_no_rank_verdict(self, s):
        # the active gradients (2s, 0) and (0, 1) are independent at every
        # s > 0; on raw rows LICQ cut the smaller one off, or read a thin margin
        P = load_problem(f"vars x1 x2\nmin x1^2\nineq {s}*x1^2 - {s}\nswitch x1 | x2\n")
        ctx = PointContext(P, [1.0, 0.0], TOL)
        assert [cq.check_licq(ctx).status, cq.check_wcr(ctx).status,
                cq.check_pwcr(ctx).status, cq.check_rcrcq(ctx).status] == ["HOLDS"] * 4


class TestWcr:
    def test_wedge3d_holds(self, corpus):
        assert cq.check_wcr(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)).status == "HOLDS"

    def test_tilted_sheet3d_fails_with_verified_witness(self, corpus):
        P = corpus["tilted_sheet3d"]
        v = cq.check_wcr(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = v.evidence["witness"]
        items = cones.active_items(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert rank_oracle(P, np.array(w["point"]), items) == w["rank"]
        assert w["rank"] != v.evidence["rank"]

    def test_ray2d_holds(self, corpus):
        assert cq.check_wcr(PointContext(corpus["ray2d"], [0.0, 0.0], TOL)).status == "HOLDS"

    @pytest.mark.parametrize("s", [f"1e{e}" for e in range(-12, 13)])
    def test_the_scale_of_a_row_moves_no_sampled_rank(self, s):
        # the active family has rank 2 at x and rank 3 wherever x3 != 0, so it
        # is sampled; on raw rows a large s cut the switch rows off at x and at
        # every sample, and WCR read a wrong HOLDS with rank 1
        P = load_problem(f"vars x1 x2 x3\nmin x1^2\nineq {s}*x1^2 - {s}\n"
                         "switch x2 + x3^2 | x2\n")
        v = cq.check_wcr(PointContext(P, [1.0, 0.0, 0.0], TOL))
        assert (v.status, v.mode, v.evidence["rank"]) == ("FAILS", "sampled", 2)
        assert v.evidence["witness"]["rank"] == 3


class TestPwcr:
    def test_wedge3d_fails_on_g_pinned_branch(self, corpus):
        v = cq.check_pwcr(PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        bad = [r for r in v.evidence["bipartitions"] if not r["constant"]]
        assert bad and bad[0]["bipartition"] == [[0], []]

    def test_tilted_sheet3d_holds(self, corpus):
        ctx = PointContext(corpus["tilted_sheet3d"], [0.0, 0.0, 0.0], TOL)
        assert cq.check_pwcr(ctx).status == "HOLDS"

    def test_ray2d_holds(self, corpus):
        assert cq.check_pwcr(PointContext(corpus["ray2d"], [0.0, 0.0], TOL)).status == "HOLDS"


class TestRcrcq:
    def test_diagonal2d_holds(self, corpus):
        assert cq.check_rcrcq(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL)).status == "HOLDS"

    def test_tilted_sheet3d_fails(self, corpus):
        v = cq.check_rcrcq(PointContext(corpus["tilted_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"

    def test_linear_constraints_hold(self):
        P = load_problem("vars x1 x2\nmin x1\nineq x1 + x2\nineq -x1\n")
        assert cq.check_rcrcq(PointContext(P, [0.0, 0.0], TOL)).status == "HOLDS"

    def test_thin_base_margin_reads_unknown_as_wcr_does(self):
        # the two active gradients are 5e-8 apart in direction, so the rank
        # at x sits within a factor 10 of the cutoff, for WCR's family and
        # for the RCRCQ triple (I_g, (), ()), which is the same family
        P = load_problem("vars x1 x2\nmin x1 + x2\nineq -x1\nineq -x1 - 5e-8*x2\n")
        ctx = PointContext(P, [0.0, 0.0], TOL)
        wcr, rcrcq = cq.check_wcr(ctx), cq.check_rcrcq(ctx)
        assert (wcr.status, rcrcq.status) == ("UNKNOWN", "UNKNOWN")
        assert rcrcq.evidence["triples_checked"] == 4
        table = cq.lattice_closure({"WCR": wcr, "RCRCQ": rcrcq})
        assert (table["WCR"].status, table["RCRCQ"].status) == ("UNKNOWN", "UNKNOWN")

    def test_single_triple_agrees_with_wcr(self, corpus, tol):
        # WCR is the (I_g, I_GH, I_GH) instance of the RCRCQ family
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            items = cones.active_items(ctx)
            rep = cq.rank_constancy(ctx, items)
            wcr = cq.check_wcr(ctx)
            expected = "HOLDS" if rep["constant"] and not rep["thin_margin"] else (
                "FAILS" if not rep["constant"] else "UNKNOWN")
            assert wcr.status == expected, name


class TestIgMinus:
    def test_wedge3d_g_side(self, corpus):
        ctx = PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)
        picked, cross = cq.i_g_minus(ctx, ctx.linearization[1])  # G pinned
        assert picked == (0,)
        assert cross["agree"]

    def test_wedge3d_h_side(self, corpus):
        ctx = PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)
        picked, cross = cq.i_g_minus(ctx, ctx.linearization[0])  # H pinned
        assert picked == ()
        assert cross["agree"]

    def test_ray2d_h_side(self, corpus):
        ctx = PointContext(corpus["ray2d"], [0.0, 0.0], TOL)
        picked, cross = cq.i_g_minus(ctx, ctx.linearization[0])  # H pinned
        assert picked == (1,)
        assert cross["agree"]

    def test_lp_matches_i0_on_corpus(self, corpus, tol):
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            for k, piece in enumerate(ctx.linearization):
                picked, cross = cq.i_g_minus(ctx, piece)
                assert cross["agree"], (name, k)
                assert set(picked) == set(cross["I0"]), (name, k)


class TestPcrsc:
    def test_wedge3d_holds(self, corpus):
        ctx = PointContext(corpus["wedge3d"], [0.0, 0.0, 0.0], TOL)
        assert cq.check_pcrsc(ctx).status == "HOLDS"

    def test_ray2d_fails(self, corpus):
        v = cq.check_pcrsc(PointContext(corpus["ray2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        bad = [r for r in v.evidence["bipartitions"] if not r["constant"]]
        assert bad and bad[0]["bipartition"] == [[], [0]]
        assert bad[0]["I_g_minus"] == [1]

    def test_linear_constraints_hold(self):
        P = load_problem("vars x1 x2\nmin x1\nineq x1 + x2\nineq -x1\n")
        assert cq.check_pcrsc(PointContext(P, [0.0, 0.0], TOL)).status == "HOLDS"


GOLDEN_ACQ = {name: json.loads((REPORT_DIR / f"{name}.json").read_text())
              ["verdicts"]["cq"]["ACQ"]["status"] for name in CORPUS_POINTS}


class TestAcq:
    def test_parabola_sheet3d_fails(self, corpus):
        P = corpus["parabola_sheet3d"]
        v = cq.check_acq(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = np.array(v.evidence["witness"])
        # witness leaves along x1 with the x2 = x1^2 sheet left behind
        assert w[0] > 0.9
        assert float(P.residual(0.5 * TOL.eps_ball * w)) > 10 * TOL.tau_feas
        # dist/t stays near |w2|: the sheet is tangent only along x2 = 0
        assert np.all(np.abs(np.array(v.evidence["ratios"]) - abs(w[1])) < 0.02)

    def test_parabola_sheet3d_tangent_directions_lie_in_t(self, corpus):
        # T = ({0} x R x R) u (R+ x {0} x R); a direction read tangent is
        # within the threshold of it, and some direction of each part is
        ctx = PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL)
        D = np.vstack([cq.acq_directions(p, k, TOL)
                       for k, p in enumerate(ctx.linearization)])
        thr = np.sin(TOL.angular_tol) + 1e-3
        T = D[cq.distance_ratios(ctx, D, ctx.branches)[:, -1] <= np.sin(TOL.angular_tol)]
        in_plane = np.abs(T[:, 0]) <= thr
        on_sheet = (T[:, 0] >= -1e-9) & (np.abs(T[:, 1]) <= thr)
        assert np.all(in_plane | on_sheet)
        assert np.any(in_plane & (np.abs(T[:, 1]) > 0.5)) and np.any(T[:, 0] > 0.9)

    def test_crossplanes3d_holds(self, corpus):
        v = cq.check_acq(PointContext(corpus["crossplanes3d"], [0.0, 0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.mode == "sampled"

    def test_single_linear_equality_holds(self):
        P = load_problem("vars x1 x2\nmin x1\neq x1 - x2\n")
        assert cq.check_acq(PointContext(P, [0.0, 0.0], TOL)).status == "HOLDS"

    def test_halfline_holds(self):
        P = load_problem("vars x\nmin x\nineq -x\n")
        v = cq.check_acq(PointContext(P, [0.0], TOL))
        assert (v.status, v.mode) == ("HOLDS", "sampled")
        # the ray e1 and 16 interior combinations, all of them e1
        assert (v.evidence["directions"], v.evidence["tangent"]) == (17, 17)

    def test_diagonal2d_exact(self, corpus):
        v = cq.check_acq(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.mode == "exact"

    def test_evidence_counts_the_directions(self, corpus):
        for name, P in corpus.items():
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            ev = cq.check_acq(ctx).evidence
            if name == "diagonal2d":
                continue
            D = [cq.acq_directions(p, k, TOL) for k, p in enumerate(ctx.linearization)]
            assert ev["directions"] == sum(len(d) for d in D) > 0, name
            assert ev["tangent"] + ev["witnesses"] + ev["undecided"] == ev["directions"], name
            assert ev["t"] == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5]), name
            assert ev["seed"] == TOL.seed, name

    def test_directions_lie_in_their_piece(self, corpus):
        for name, P in corpus.items():
            assert checked_acq_directions(PointContext(P, CORPUS_POINTS[name], TOL)), name

    def test_distances_through_the_own_branch_then_the_local_branches(self, corpus, monkeypatch):
        # each piece's directions are projected onto that piece's branch,
        # then those not tangent there onto every branch at x, in one call
        calls = []
        nearest = penalty.nearest_feasible

        def recording(P, X, tol, branches):
            calls.append((len(X), [(br.eq_G, br.eq_H) for br in branches]))
            return nearest(P, X, tol, branches)

        monkeypatch.setattr(penalty, "nearest_feasible", recording)
        for name, P in corpus.items():
            calls.clear()
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            v = cq.check_acq(ctx)
            if v.mode == "exact":
                assert calls == [], name
                continue
            local = [(br.eq_G, br.eq_H) for br in ctx.branches]
            sizes = [len(D) for D in checked_acq_directions(ctx)]
            own = [(4 * n, [br]) for n, br in zip(sizes, local) if n]
            assert calls[:len(own)] == own, name
            rest = calls[len(own):]
            assert len(rest) <= 1, name
            undecided_or_witness = 4 * (v.evidence["witnesses"] + v.evidence["undecided"])
            assert sum(n for n, _ in rest) >= undecided_or_witness, name
            assert all(brs == local for _, brs in rest), name

    def test_many_switches_with_one_biactive(self):
        # l = 17 exceeds the cap on all 2^l branches; only the 2 branches
        # at x are projected onto, and F near 0 is the union of two axes
        text = "vars x1 x2 x3\nmin x1 + x2\nswitch x1 | x2\n" + "switch x3 | 1\n" * 16
        P = load_problem(text)
        v = cq.check_acq(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert (v.status, v.mode) == ("HOLDS", "sampled")

    def test_a_ratio_falling_with_t_is_no_witness(self):
        # on {x2 >= 1e4 x1^2}, e1 is tangent along a strongly curved
        # boundary: dist/t stays above the threshold at every t, but falls
        P = load_problem("vars x1 x2\nmin x2\nineq 1e4*x1^2 - x2\n")
        v = cq.check_acq(PointContext(P, [0.0, 0.0], TOL))
        assert v.status == "UNKNOWN" and v.evidence["witnesses"] == 0

    @pytest.mark.parametrize("c", ["1e-11", "1e-6", "1", "1e6"])
    def test_the_scale_of_a_row_moves_no_verdict(self, c):
        P = load_problem(f"vars x1 x2\nmin -x1^2\nineq {c}*x1\n")
        v = cq.check_acq(PointContext(P, [0.0, 0.0], TOL))
        assert (v.status, v.mode) == ("HOLDS", "sampled")

    @pytest.mark.parametrize("c", ["1e-3", "1e3"])
    def test_scaling_every_constraint_moves_no_status(self, c):
        for name in CORPUS_POINTS:
            P = load_problem(scaled_text(name, c))
            v = cq.check_acq(PointContext(P, CORPUS_POINTS[name], TOL))
            assert v.status == GOLDEN_ACQ[name], (name, c)

    def test_no_distance_reads_unknown(self, corpus, monkeypatch):
        # a distance estimate that never ends feasible decides nothing
        def nowhere(P, X, tol, branches):
            X = np.atleast_2d(X)
            return np.full(len(X), np.inf), np.full_like(X, np.nan)

        monkeypatch.setattr(penalty, "nearest_feasible", nowhere)
        for name, P in corpus.items():
            v = cq.check_acq(PointContext(P, CORPUS_POINTS[name], TOL))
            if v.mode == "exact":
                continue
            assert v.status == "UNKNOWN", name
            assert v.evidence["undecided"] == v.evidence["directions"], name
            assert v.evidence["tangent"] == v.evidence["witnesses"] == 0, name


class TestPsoqn:
    def test_unconstrained_holds(self):
        P = load_problem("vars x\nmin x^2\n")
        assert cq.check_psoqn(PointContext(P, [0.0], TOL)).status == "HOLDS"

    def test_single_inequality_holds(self):
        P = load_problem("vars x\nmin x\nineq -x\n")
        assert cq.check_psoqn(PointContext(P, [0.0], TOL)).status == "HOLDS"

    def test_opposed_gradients_unknown(self):
        P = load_problem("vars x\nmin x^2\nineq x\nineq -x\n")
        v = cq.check_psoqn(PointContext(P, [0.0], TOL))
        assert v.status == "UNKNOWN"


def four_loop_sign_sequence(ctx, m):
    """PSOQN's sign test written as four per-kind loops over the (g, h, G, H)
    shell values: the reference for `cq._psoqn_sign_sequence`."""
    P, tol = ctx.P, ctx.tol
    lam, rho, mu, nu = (np.asarray(part, float) for part in (m.lam, m.rho, m.mu, m.nu))
    for g, h, G, H in (P.constraint_values(X) for X in ctx.shells):
        ok = np.ones(g.shape[0], dtype=bool)
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


def psoqn_candidates(ctx):
    """The nonzero singular multipliers `check_psoqn` tests, branch by branch."""
    out = []
    for br in ctx.branches:
        items = cones.branch_items(ctx, *ctx.split(br))
        out += [m for z in ctx.combination(items, np.zeros(ctx.P.n), "rays")
                if (m := Multipliers.over(ctx.P, items, z)).l1() > 1e-9]
    return out


class TestPsoqnSignTest:
    POINTS = [*CORPUS_POINTS.items(), *OFF_BIACTIVE_POINTS]

    @pytest.mark.parametrize("name, x", POINTS)
    def test_candidates_decide_as_the_four_loops(self, corpus, name, x):
        ctx = PointContext(corpus[name], x, TOL)
        for m in psoqn_candidates(ctx):
            assert cq._psoqn_sign_sequence(ctx, m) == four_loop_sign_sequence(ctx, m), m

    def test_random_multipliers_decide_as_the_four_loops(self, corpus):
        # lambda >= 0, as on every candidate; zeros, mixed signs, and
        # magnitudes at, just off and around tau_act
        rng, tau = np.random.default_rng(40), TOL.tau_act
        levels = [0.0, tau, np.nextafter(tau, 0.0), np.nextafter(tau, 1.0), 0.5 * tau, 2 * tau]
        decisions = []
        for name, x in self.POINTS:
            P = corpus[name]
            ctx = PointContext(P, x, TOL)
            for _ in range(40):
                parts = []
                for size, signed in ((P.m, False), (P.p, True), (P.l, True), (P.l, True)):
                    v = np.where(rng.random(size) < 0.5, rng.choice(levels, size),
                                 rng.uniform(0.0, 2.0, size))
                    parts.append(tuple(v * rng.choice([-1.0, 1.0], size) if signed else v))
                m = Multipliers(*parts)
                decisions.append(cq._psoqn_sign_sequence(ctx, m))
                assert decisions[-1] == four_loop_sign_sequence(ctx, m), (name, x, m)
        assert True in decisions and False in decisions


class TestSampleWork:
    """The sampled checks at a point read the point context's one sample of
    three shells, evaluated in one batch call per shell, however many
    checks, families or candidate multipliers read it."""

    @staticmethod
    def batch_calls(monkeypatch, name):
        calls = []
        original = getattr(MpscProblem, name)

        def counting(self, x, *args):
            if np.ndim(x) == 2:
                calls.append(len(x))
            return original(self, x, *args)

        monkeypatch.setattr(MpscProblem, name, counting)
        return calls

    # the corpus problems where some rank family is neither of full rank at
    # x nor of constant gradients, so the four rank checks sample
    SAMPLING = {"wedge3d", "tilted_sheet3d", "ray2d", "parabola_sheet3d", "crossplanes3d",
                "pinch2d"}

    def test_rcrcq_makes_at_most_three_batch_jacobian_calls(self, corpus, monkeypatch):
        calls = self.batch_calls(monkeypatch, "jacobian")
        triples = []
        for name, P in corpus.items():
            calls.clear()
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            cq.check_rcrcq(ctx)
            assert calls == [TOL.n_samples] * 3 * (name in self.SAMPLING), name
            triples.append(2 ** len(ctx.I.I_g) * 4 ** len(ctx.I.I_GH))
        assert max(triples) >= 16

    def test_rank_checks_share_at_most_three_batch_jacobian_calls(self, corpus, monkeypatch):
        calls = self.batch_calls(monkeypatch, "jacobian")
        for name, P in corpus.items():
            calls.clear()
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            verdicts = [check(ctx) for check in (cq.check_wcr, cq.check_pwcr, cq.check_rcrcq,
                                                 cq.check_pcrsc)]
            assert calls == [TOL.n_samples] * 3 * (name in self.SAMPLING), name
            if name not in self.SAMPLING:  # and the evidence says no sample was drawn
                assert [v.evidence["n_samples"] for v in verdicts] == [0] * 4, name

    def test_every_rank_verdict_carries_its_seed_and_sample_count(self, corpus):
        # the count is the largest over the families checked, 0 when each was
        # certified; a FAILS is a rank rise seen in the sample
        for name, P in corpus.items():
            verdicts = report.analyze(P, CORPUS_POINTS[name], TOL)["verdicts"]["cq"]
            for check in ("WCR", "PWCR", "RCRCQ", "PCRSC"):
                v = verdicts[check]
                assert v["evidence"]["seed"] == TOL.seed, (name, check)
                want = [TOL.n_samples] if v["status"] == "FAILS" else [0, TOL.n_samples]
                assert v["evidence"]["n_samples"] in want, (name, check)

    def test_psoqn_reads_the_context_shells(self, corpus, monkeypatch):
        seen = []
        original = MpscProblem.values

        def recording(self, x, items):
            if np.ndim(x) == 2:
                seen.append((x, tuple(items)))
            return original(self, x, items)

        monkeypatch.setattr(MpscProblem, "values", recording)
        ctx = PointContext(corpus["pinch2d"], [0.0, 0.0], TOL)
        cq.check_psoqn(ctx)
        assert len(seen) == 3 and all(X is S and items == ctx.P.items[1:]
                                      for (X, items), S in zip(seen, ctx.shells))

    def test_psoqn_makes_at_most_three_batch_value_calls(self, corpus, monkeypatch):
        calls = self.batch_calls(monkeypatch, "values")
        for name, P in corpus.items():
            calls.clear()
            v = cq.check_psoqn(PointContext(P, CORPUS_POINTS[name], TOL))
            assert len(calls) <= 3, name
        calls.clear()
        v = cq.check_psoqn(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert v.evidence["candidates"] == 12 and calls == [TOL.n_samples] * 3


class TestRankCertificate:
    @staticmethod
    def rank_reports(corpus, monkeypatch):
        """(context, family, rank_constancy's result) of every family the
        four rank checks test at the corpus points."""
        seen, original = [], cq.rank_constancy

        def recording(ctx, items):
            seen.append((ctx, items, original(ctx, items)))
            return seen[-1][2]
        monkeypatch.setattr(cq, "rank_constancy", recording)
        for name, P in corpus.items():
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            for check in (cq.check_wcr, cq.check_pwcr, cq.check_rcrcq, cq.check_pcrsc):
                check(ctx)
        return seen

    def test_a_certified_family_keeps_its_rank_at_every_sample(self, corpus, monkeypatch):
        # the oracle is the sampled path the certificate skips
        because = []
        for ctx, items, rep in self.rank_reports(corpus, monkeypatch):
            if "because" not in rep:
                assert rep["n_samples"] == TOL.n_samples
                continue
            because.append(rep["because"])
            assert (rep["constant"], rep["witness"], rep["n_samples"]) == (True, None, 0)
            for X in ctx.shells:
                assert np.all(rank_tol_batch(ctx.P.jacobian(X, items), TOL)[0] == rep["rank"])
        assert because.count("full rank at x; rank is lower semicontinuous") == 73
        assert because.count("constant gradients") == 5

    def test_a_real_rank_drop_is_still_sampled(self, corpus):
        v = cq.check_wcr(PointContext(corpus["tilted_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert (v.status, v.mode) == ("FAILS", "sampled")
        assert v.evidence["witness"] and "because" not in v.evidence


class TestLattice:
    def test_rcrcq_holds_propagates(self):
        table = cq.lattice_closure({"RCRCQ": CqVerdict("RCRCQ", "HOLDS", "sampled")})
        for name in ("PCRSC", "WCR", "SSOCQ", "WSOCQ", "ACQ", "GCQ"):
            assert table[name].status == "HOLDS"
            assert table[name].mode == "inferred"
        assert table["LICQ"].status == "UNKNOWN"
        assert table["PWCR"].status == "UNKNOWN"

    def test_acq_fails_propagates_backward(self):
        table = cq.lattice_closure({"ACQ": CqVerdict("ACQ", "FAILS", "sampled")})
        for name in ("RCRCQ", "LICQ", "PCRSC", "SSOCQ"):
            assert table[name].status == "FAILS"
        assert table["WCR"].status == "UNKNOWN"
        assert table["GCQ"].status == "UNKNOWN"

    def test_incomparable_nodes_no_contradiction(self):
        table = cq.lattice_closure({
            "WCR": CqVerdict("WCR", "HOLDS", "sampled"),
            "PWCR": CqVerdict("PWCR", "FAILS", "sampled"),
        })
        assert table["WCR"].status == "HOLDS"
        assert table["PWCR"].status == "FAILS"

    def test_contradiction_raises(self):
        with pytest.raises(LatticeContradictionError):
            cq.lattice_closure({
                "RCRCQ": CqVerdict("RCRCQ", "HOLDS", "sampled"),
                "ACQ": CqVerdict("ACQ", "FAILS", "sampled"),
            })


class TestGoldenTriples:
    def test_golden_verdict_triples(self, corpus):
        triples = {
            "wedge3d": ("HOLDS", "FAILS", "HOLDS"),
            "tilted_sheet3d": ("FAILS", "HOLDS", None),
            "ray2d": ("HOLDS", "HOLDS", "FAILS"),
        }
        for name, (wcr, pwcr, pcrsc) in triples.items():
            P = corpus[name]
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, TOL)
            assert cq.check_wcr(ctx).status == wcr, name
            assert cq.check_pwcr(ctx).status == pwcr, name
            if pcrsc is not None:
                assert cq.check_pcrsc(ctx).status == pcrsc, name

    def test_closure_no_contradiction_on_corpus(self, corpus, tol):
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            table = cq_table(PointContext(P, x, tol), with_psoqn=False)
            assert set(table) == set(cq.CQ_NAMES) - {"PSOQN"} or "PSOQN" in table

    def test_determinism(self, corpus):
        P = corpus["wedge3d"]
        a = cq_table(PointContext(P, [0.0, 0.0, 0.0], TOL))
        b = cq_table(PointContext(P, [0.0, 0.0, 0.0], TOL))
        assert {k: v.status for k, v in a.items()} == {k: v.status for k, v in b.items()}


class TestAcqTangentialIntersections:
    # branches whose equalities touch tangentially have fat residual tubes;
    # points in a tube must not make a linearization direction that leaves
    # the feasible set read tangent
    def test_ray2d_fails(self, corpus):
        v = cq.check_acq(PointContext(corpus["ray2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = np.array(v.evidence["witness"])
        assert w[0] > 0.9  # the (t, 0) escape ray

    def test_pinch2d_fails(self, corpus):
        v = cq.check_acq(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        w = np.array(v.evidence["witness"])
        assert abs(w[0]) > 0.9 and abs(w[1]) < 0.1

    def test_pinch2d_has_no_tangent_direction(self, corpus):
        # the origin is isolated in F, so T = {0} and every direction of L
        # is a witness
        ev = cq.check_acq(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL)).evidence
        assert ev["witnesses"] == ev["directions"] > 0
        assert ev["tangent"] == ev["undecided"] == 0
