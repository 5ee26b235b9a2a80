import numpy as np
import pytest

from conftest import CORPUS_POINTS, lagrangian_gradient
from mpsckit import soc
from mpsckit import stationarity as st
from mpsckit.cones import PointContext
from mpsckit.errors import MpscError, NotSStationaryError
from mpsckit.numeric import Tolerances
from mpsckit.problem import OBJECTIVE, MpscProblem, load_problem

TOL = Tolerances()


def mult(lam=(), rho=(), mu=(), nu=()):
    return st.Multipliers(tuple(lam), tuple(rho), tuple(mu), tuple(nu))


class TestLagrangian:
    def test_axes2d_hand_arithmetic(self, corpus):
        P = corpus["axes2d"]
        m = mult(lam=(3.0,), mu=(2.0,), nu=(0.0,))
        g = lagrangian_gradient(PointContext(P, [0.0, 0.0], TOL), m)
        assert np.allclose(g, [0.0, 0.0], atol=1e-12)

    def test_zero_multipliers_give_grad_f(self, corpus):
        P = corpus["axes2d"]
        m = mult(lam=(0.0,), mu=(0.0,), nu=(0.0,))
        assert np.allclose(lagrangian_gradient(PointContext(P, [0.0, 0.0], TOL), m),
                           [1.0, -3.0])

    def test_diagonal2d_hessian(self, corpus):
        P = corpus["diagonal2d"]
        m = mult(rho=(0.0,), mu=(0.0,), nu=(0.0,))
        H = st.lagrangian_hessian(PointContext(P, [0.0, 0.0], TOL), m)
        assert np.array_equal(H, np.diag([-2.0, -2.0]))


class TestHessiansAtX:
    @staticmethod
    def jh_calls(monkeypatch):
        """The items of every "jh" kernel call, recorded as they are made."""
        calls, evaluate = [], MpscProblem._evaluate

        def spy(self, kind, items, x):
            if kind == "jh":
                calls.append(tuple(items))
            return evaluate(self, kind, items, x)

        monkeypatch.setattr(MpscProblem, "_evaluate", spy)
        return calls

    def test_a_lagrangian_hessian_reads_the_items_not_kept_in_one_call(self, corpus,
                                                                       monkeypatch):
        # and its sum is that of the one-item Hessians in term order, bit for bit
        calls, rng = self.jh_calls(monkeypatch), np.random.default_rng(11)
        for name, P in corpus.items():
            ctx, kept = PointContext(P, CORPUS_POINTS[name], TOL), set()
            for trial in range(12):
                m = mult(*(np.where(rng.random(k) < 0.5, 0.0, rng.normal(size=k))
                           for k in (P.m, P.p, P.l, P.l)))
                with_f = trial % 2 == 1
                asked = [OBJECTIVE] * with_f + [it for _, it in m.terms()]
                calls.clear()
                H = st.lagrangian_hessian(ctx, m, include_objective=with_f)
                new = tuple(it for it in asked if it not in kept)
                assert calls == ([new] if new else []), (name, trial)
                kept.update(asked)
                want = P.hessian(ctx.x, OBJECTIVE).copy() if with_f else np.zeros((P.n, P.n))
                for c, it in m.terms():
                    want = want + c * P.hessian(ctx.x, it)
                assert np.array_equal(H, want), (name, trial)

    def test_a_second_sonc_run_reads_no_hessian(self, corpus, monkeypatch):
        calls, first = self.jh_calls(monkeypatch), []
        for name, P in corpus.items():
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            for run in (first, []):
                calls.clear()
                for check in (soc.check_wsonc, soc.check_ssonc):
                    try:
                        check(ctx)
                    except MpscError:  # not S-stationary
                        pass
                run += calls
            assert calls == [], name
        assert first  # some first run read Hessians


class TestSStationarity:
    def test_axes2d_fails(self, corpus):
        v = st.check_s_stationary(PointContext(corpus["axes2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS" and v.witness is None

    def test_diagonal2d_holds_with_zero_multiplier(self, corpus):
        v = st.check_s_stationary(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS"
        assert v.witness.l1() == pytest.approx(0.0, abs=1e-9)

    def test_unconstrained_stationary(self):
        P = load_problem("vars x1 x2\nmin x1^2 + x2^2\n")
        v = st.check_s_stationary(PointContext(P, [0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.witness.l1() == 0.0


class TestMStationarity:
    def test_axes2d_holds_both_patterns(self, corpus):
        v = st.check_m_stationary(PointContext(corpus["axes2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS"
        assert len(v.patterns) == 2
        for pat in v.patterns:
            assert pat["feasible"]
            w = pat["witness"]
            assert w["mu"][0] + w["nu"][0] == pytest.approx(2.0, abs=1e-8)
            wit = mult(w["lambda"], w["rho"], w["mu"], w["nu"])
            grad = lagrangian_gradient(
                PointContext(corpus["axes2d"], [0.0, 0.0], TOL), wit)
            assert np.linalg.norm(grad) <= 1e-8

    def test_diagonal2d_holds(self, corpus):
        ctx = PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL)
        assert st.check_m_stationary(ctx).status == "HOLDS"

    def test_linear_objective_unconstrained_fails(self):
        P = load_problem("vars x\nmin x\n")
        assert st.check_m_stationary(PointContext(P, [0.0], TOL)).status == "FAILS"


class TestWStationarity:
    def test_axes2d_holds(self, corpus):
        ctx = PointContext(corpus["axes2d"], [0.0, 0.0], TOL)
        assert st.check_w_stationary(ctx).status == "HOLDS"

    def test_unconstrained_fails(self):
        P = load_problem("vars x\nmin x\n")
        assert st.check_w_stationary(PointContext(P, [0.0], TOL)).status == "FAILS"

    def test_switch_only_witness(self):
        P = load_problem("vars x1 x2\nmin x1 - 3*x2\nswitch x1 | x2\n")
        v = st.check_w_stationary(PointContext(P, [0.0, 0.0], TOL))
        assert v.status == "HOLDS"
        assert v.witness.mu[0] == pytest.approx(-1.0, abs=1e-9)
        assert v.witness.nu[0] == pytest.approx(3.0, abs=1e-9)


class TestSMultiplierPolyhedron:
    def test_diagonal2d_single_point(self, corpus):
        ctx = PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL)
        items, gen = st.s_multiplier_polyhedron(ctx)
        assert [k for k, _ in items] == ["h"]
        assert len(gen.vertices) == 1 and len(gen.rays) == 0 and len(gen.lineality) == 0
        assert np.allclose(gen.vertices[0], [0.0], atol=1e-9)

    def test_unconstrained_zero_dimensional(self):
        P = load_problem("vars x\nmin x^2\n")
        items, gen = st.s_multiplier_polyhedron(PointContext(P, [0.0], TOL))
        assert items == [] and len(gen.vertices) == 1

    def test_single_active_inequality(self):
        P = load_problem("vars x\nmin x\nineq -x\n")
        items, gen = st.s_multiplier_polyhedron(PointContext(P, [0.0], TOL))
        assert items == [("g", 0)]
        assert len(gen.vertices) == 1
        assert gen.vertices[0][0] == pytest.approx(1.0, abs=1e-9)

    def test_requires_s_stationarity(self, corpus):
        with pytest.raises(NotSStationaryError):
            st.s_multiplier_polyhedron(PointContext(corpus["axes2d"], [0.0, 0.0], TOL))


class TestNormalConeOracle:
    def test_axes2d(self, corpus):
        ctx = PointContext(corpus["axes2d"], [0.0, 0.0], TOL)
        assert st.normal_cone_oracle(ctx, "M") is True
        assert st.normal_cone_oracle(ctx, "S") is False

    def test_unconstrained_stationary_both(self):
        P = load_problem("vars x\nmin x^2\n")
        ctx = PointContext(P, [0.0], TOL)
        assert st.normal_cone_oracle(ctx, "M") is True
        assert st.normal_cone_oracle(ctx, "S") is True

    def test_matches_lp_checks_on_corpus(self, corpus, tol):
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            assert st.normal_cone_oracle(PointContext(P, x, tol), "M") == \
                st.check_m_stationary(PointContext(P, x, tol)).holds(), name
            assert st.normal_cone_oracle(PointContext(P, x, tol), "S") == \
                st.check_s_stationary(PointContext(P, x, tol)).holds(), name


class TestChain:
    def test_s_implies_m_implies_w(self, corpus, tol):
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            s = st.check_s_stationary(ctx).holds()
            m = st.check_m_stationary(ctx).holds()
            w = st.check_w_stationary(ctx).holds()
            assert (not s or m) and (not m or w), name

    def test_witnesses_respect_structure(self, corpus, tol):
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            I = ctx.I
            for check in (st.check_w_stationary, st.check_m_stationary,
                          st.check_s_stationary):
                v = check(ctx)
                if not v.holds():
                    continue
                w = v.witness
                assert np.linalg.norm(lagrangian_gradient(ctx, w)) <= 1e-6
                for i in range(P.m):
                    if i not in I.I_g:
                        assert w.lam[i] == 0.0
                    assert w.lam[i] >= -1e-12
                for k in I.I_H:
                    assert w.mu[k] == 0.0
                for k in I.I_G:
                    assert w.nu[k] == 0.0
                if v.kind == "S":
                    for k in I.I_GH:
                        assert w.mu[k] == 0.0 and w.nu[k] == 0.0
                if v.kind == "M":
                    for k in I.I_GH:
                        assert w.mu[k] * w.nu[k] == 0.0
