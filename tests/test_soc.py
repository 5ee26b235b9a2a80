import numpy as np
import pytest

from conftest import in_cone_union

from mpsckit import cones, soc
from mpsckit.cones import ConePiece, PointContext
from mpsckit.errors import NotSStationaryError
from mpsckit.numeric import Tolerances
from mpsckit.problem import load_problem

TOL = Tolerances()


def sphere_grid_min(Q, piece, count=10_000):
    rng = np.random.default_rng(123)
    D = rng.normal(size=(count, Q.shape[0]))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    vals = [d @ Q @ d for d in D if piece.contains(d, 1e-9)]
    return min(vals) if vals else None


class TestQuadForm:
    def test_negative_definite_on_axis_subspace(self):
        piece = ConePiece(A_eq=np.array([[0.0, 1.0]]), A_le=np.zeros((0, 2)))
        qf = soc.quadform_min_over_cone(np.diag([-2.0, -2.0]), piece, TOL)
        assert qf.exact and qf.method == "subspace_eig"
        assert qf.value == pytest.approx(-2.0, abs=1e-12)
        assert abs(qf.direction[0]) == pytest.approx(1.0)

    def test_identity_nonnegative_everywhere(self):
        piece = ConePiece(A_eq=np.zeros((0, 2)), A_le=np.array([[-1.0, 0.0]]))
        qf = soc.quadform_min_over_cone(np.eye(2), piece, TOL)
        assert qf.value >= 1.0 - 1e-9

    def test_indefinite_but_positive_on_subspace(self):
        piece = ConePiece(A_eq=np.array([[0.0, 1.0]]), A_le=np.zeros((0, 2)))
        Q = np.diag([1.0, -1.0])
        qf = soc.quadform_min_over_cone(Q, piece, TOL)
        assert qf.value == pytest.approx(1.0, abs=1e-12)
        oracle = sphere_grid_min(Q, piece)
        if oracle is not None:
            assert qf.value <= oracle + 1e-9

    def test_trivial_piece_vacuous(self):
        piece = ConePiece(A_eq=np.eye(2), A_le=np.zeros((0, 2)))
        qf = soc.quadform_min_over_cone(np.eye(2), piece, TOL)
        assert qf.method == "vacuous" and qf.value is None


class TestWsonc:
    def test_pinch2d_vacuous_subspace(self, corpus):
        v = soc.check_wsonc(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.mode == "exact"
        assert v.evidence["subspace_dim"] == 0

    def test_diagonal2d_vacuous_subspace(self, corpus):
        v = soc.check_wsonc(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS"
        assert v.evidence["subspace_dim"] == 0

    def test_unconstrained_concave_fails(self):
        P = load_problem("vars x\nmin -x^2\n", from_path=False)
        v = soc.check_wsonc(PointContext(P, [0.0], TOL))
        assert v.status == "FAILS"
        assert v.witness["value"] == pytest.approx(-2.0, abs=1e-12)
        assert abs(v.witness["direction"][0]) == pytest.approx(1.0)

    def test_requires_s_stationary(self, corpus):
        with pytest.raises(NotSStationaryError):
            soc.check_wsonc(PointContext(corpus["axes2d"], [0.0, 0.0], TOL))


class TestSsonc:
    def test_pinch2d_fails_with_value_minus_two(self, corpus):
        v = soc.check_ssonc(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert v.status == "FAILS"
        assert v.witness["value"] == pytest.approx(-2.0, abs=1e-8)
        d = np.asarray(v.witness["direction"])
        # unit direction along the horizontal axis
        assert abs(d[0]) == pytest.approx(1.0, abs=1e-9)
        assert d[1] == pytest.approx(0.0, abs=1e-9)
        assert v.witness["multiplier"].l1() == pytest.approx(0.0, abs=1e-9)

    def test_diagonal2d_vacuous_exact_holds(self, corpus):
        v = soc.check_ssonc(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert v.status == "HOLDS" and v.mode == "exact"

    def test_convex_quadratic_holds(self):
        P = load_problem("vars x1 x2\nmin x1^2 + x2^2\n", from_path=False)
        v = soc.check_ssonc(PointContext(P, [0.0, 0.0], TOL))
        assert v.status == "HOLDS"

    def test_wsonc_fails_implies_ssonc_fails(self):
        for text in ("vars x\nmin -x^2\n",
                     "vars x1 x2\nmin -x1^2 - x2^2\neq x1^2 - x2\nswitch x1 | x2\n"
                     "switch x1 - x2^2 | x2 - x1^2\n"):
            P = load_problem(text, from_path=False)
            x = [0.0] * P.n
            ctx = PointContext(P, x, TOL)
            w = soc.check_wsonc(ctx)
            if w.status != "FAILS":
                continue
            s = soc.check_ssonc(ctx)
            assert s.status == "FAILS"
            d = np.asarray(s.witness["direction"])
            assert s.witness["value"] < -TOL.tau_psd

    def test_strict_complementarity_verdicts_coincide(self):
        # lambda = 1 > 0 on the only active inequality
        P = load_problem("vars x\nmin x + x^2\nineq -x\n", from_path=False)
        w = soc.check_wsonc(PointContext(P, [0.0], TOL))
        s = soc.check_ssonc(PointContext(P, [0.0], TOL))
        assert w.status == s.status == "HOLDS"

    def test_fails_witness_reverifies(self, corpus):
        from mpsckit.stationarity import lagrangian_hessian
        v = soc.check_ssonc(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        d = np.asarray(v.witness["direction"])
        C = cones.critical_cone(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert in_cone_union(C, d, TOL)
        Q = lagrangian_hessian(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL),
                               v.witness["multiplier"])
        assert d @ Q @ d < -TOL.tau_psd


class TestCqSoncConsistency:
    def _sampled_local_min(self, P, x, tol, radius=0.05, count=2000):
        rng = np.random.default_rng(77)
        U = rng.normal(size=(count, P.n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        Y = np.asarray(x)[None, :] + radius * rng.uniform(size=(count, 1)) * U
        feas = P.residual(Y) <= tol.tau_feas
        if not np.any(feas):
            return True  # isolated feasible point
        from conftest import kernel_value
        fvals = kernel_value(P.f, Y[feas])
        return bool(np.all(fvals >= kernel_value(P.f, np.asarray(x, float)) - tol.tau_feas))

    def test_cq_implies_sonc_at_verified_minimizers(self, corpus, tol):
        from conftest import CORPUS_POINTS
        from mpsckit import cq
        from mpsckit.stationarity import check_s_stationary
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            if not check_s_stationary(ctx).holds():
                continue
            if not self._sampled_local_min(P, x, tol):
                continue
            table = cq.run_all(ctx, with_psoqn=False)
            if table["RCRCQ"].holds() or table["PCRSC"].holds():
                assert soc.check_ssonc(ctx).status != "FAILS", name
            if table["WCR"].holds() or table["PWCR"].holds():
                assert soc.check_wsonc(ctx).status != "FAILS", name


class TestSharedSStationarity:
    """The report and both second-order gates share one S verdict and one
    S-multiplier enumeration per point context."""

    def _count(self, monkeypatch, P, x):
        from mpsckit import report
        from mpsckit import stationarity as st
        s_items = cones.branch_items(PointContext(P, x, TOL), (), ())
        solves, enumerations = [], []
        solve, enumerate_generators = st._solve_system, st.enumerate_generators

        def counting_solve(ctx, items):
            if items == s_items:
                solves.append(items)
            return solve(ctx, items)

        def counting_enumerate(*args, **kwargs):
            enumerations.append(args)
            return enumerate_generators(*args, **kwargs)

        monkeypatch.setattr(st, "_solve_system", counting_solve)
        monkeypatch.setattr(st, "enumerate_generators", counting_enumerate)
        rep = report.analyze(P, x, TOL)
        assert rep["verdicts"]["stationarity"]["S"]["status"] == "HOLDS"
        assert set(rep["verdicts"]["soc"]) == {"WSONC", "SSONC"}
        return len(solves), len(enumerations)

    def test_pinch2d_solves_s_system_once(self, corpus, monkeypatch):
        assert self._count(monkeypatch, corpus["pinch2d"], [0.0, 0.0]) == (1, 1)

    def test_crossplanes3d_enumerates_s_multipliers_once(self, corpus, monkeypatch):
        # the critical subspace is a line here, so both gates sweep the multipliers
        assert self._count(monkeypatch, corpus["crossplanes3d"], [0.0, 0.0, 0.0]) == (1, 1)
