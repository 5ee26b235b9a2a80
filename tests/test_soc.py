import numpy as np
import pytest

from conftest import in_cone_union

from mpsckit import cones, cq, soc
from mpsckit.cones import ConePiece, PointContext
from mpsckit.errors import NotSStationaryError, SizeCapError
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

    @pytest.mark.parametrize("text, dim, generators", [
        # no multiplier: the one (empty) vertex on the whole plane
        ("vars x1 x2\nmin x1^2 + x2^2\n", 2, 1),
        # lambda1 + 2 lambda2 = 1, lambda >= 0: two vertices
        ("vars x1 x2\nmin x1 + x2^2\nineq -x1\nineq -2*x1\n", 1, 2),
        # rho1 + 2 rho2 = -1: one vertex and both signs of the lineality ray
        ("vars x1 x2\nmin x1 + x2^2\neq x1\neq 2*x1\n", 1, 3),
    ])
    def test_convex_on_the_subspace_holds_after_the_full_sweep(self, text, dim, generators):
        P = load_problem(text, from_path=False)
        v = soc.check_wsonc(PointContext(P, [0.0] * P.n, TOL))
        assert (v.status, v.mode, v.witness) == ("HOLDS", "exact", None)
        # the critical subspace is the one piece, decided once per generator
        assert v.evidence == {"pieces": 1,
                              "sweeps": [{"piece": 0, "generator": gi, "method": "subspace_eig",
                                          "admitted": TOL.n_samples}
                                         for gi in range(generators)],
                              "multiplier_argument": soc.MULTIPLIER_ARGUMENT,
                              "seed": TOL.seed, "subspace_dim": dim}

    def test_unconstrained_concave_fails(self):
        P = load_problem("vars x\nmin -x^2\n", from_path=False)
        v = soc.check_wsonc(PointContext(P, [0.0], TOL))
        assert v.status == "FAILS"
        assert v.witness["value"] == pytest.approx(-2.0, abs=1e-12)
        assert abs(v.witness["direction"][0]) == pytest.approx(1.0)
        # a vertex witness: no recession ray was needed
        assert v.evidence == {"piece": 0, "method": "subspace_eig", "subspace_dim": 1}

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

    @pytest.mark.parametrize("c", ["1e-11", "1e-6", "1", "1e6"])
    def test_the_scale_of_a_row_moves_no_verdict(self, c):
        # c * x1 <= 0 cuts the half-plane d1 <= 0 at every scale c, and -x1^2
        # is negative along (-1, 0); the row is never an implicit equality
        P = load_problem(f"vars x1 x2\nmin -x1^2\nineq {c}*x1\n", from_path=False)
        ctx = PointContext(P, [0.0, 0.0], TOL)
        v = soc.check_ssonc(ctx)
        assert v.status == "FAILS"
        assert v.witness["value"] == pytest.approx(-2.0, abs=1e-9)
        np.testing.assert_allclose(v.witness["direction"], [-1.0, 0.0], atol=1e-9)
        pcrsc = cq.check_pcrsc(ctx)
        assert [(r["I_g_minus"], r["crosscheck"]["agree"])
                for r in pcrsc.evidence["bipartitions"]] == [([], True)]

    def test_a_positive_multiplier_makes_the_critical_cone_a_subspace(self):
        # lambda = 1: grad f . d <= 0 and -d1 <= 0 pin d1 = 0, which the
        # implicit-equality test finds on the cut form of the cone
        P = load_problem("vars x1 x2\nmin x1 - x2^2\nineq -x1\n", from_path=False)
        v = soc.check_ssonc(PointContext(P, [0.0, 0.0], TOL))
        assert (v.status, v.mode, v.evidence["method"]) == ("FAILS", "exact", "subspace_eig")
        assert v.witness["value"] == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v.witness["direction"]), [0.0, 1.0], atol=1e-12)

    def test_a_subspace_beyond_the_enumeration_caps_stays_exact(self):
        # 13 variables exceed the generator caps, so only the LP test can
        # tell that the critical cone {d1 = d2 = 0} is a subspace
        names = [f"x{i}" for i in range(1, 14)]
        P = load_problem(f"vars {' '.join(names)}\nmin -x1 - x2 + "
                         + " + ".join(f"{v}^2" for v in names) + "\nineq x1\nineq x2\n",
                         from_path=False)
        ctx = PointContext(P, [0.0] * 13, TOL)
        with pytest.raises(SizeCapError):
            ctx.critical.pieces[0].generators(TOL)
        v = soc.check_ssonc(ctx)
        assert (v.status, v.mode) == ("HOLDS", "exact")
        assert [s["method"] for s in v.evidence["sweeps"]] == ["subspace_eig"]

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
        from conftest import CORPUS_POINTS, cq_table
        from mpsckit.stationarity import check_s_stationary
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            if not check_s_stationary(ctx).holds():
                continue
            if not self._sampled_local_min(P, x, tol):
                continue
            table = cq_table(ctx, with_psoqn=False)
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

    def test_origin_cones_hold_without_enumerating_s_multipliers(self, corpus, monkeypatch):
        # diagonal2d's critical cone and critical subspace are the origin, so
        # d = 0 proves both conditions and no S-multiplier is enumerated
        from mpsckit import stationarity as st
        calls, enumerate_generators = [], st.enumerate_generators

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_generators(*args, **kwargs)

        monkeypatch.setattr(st, "enumerate_generators", counting)
        ctx = PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL)
        verdicts = [soc.check_wsonc(ctx), soc.check_ssonc(ctx)]
        assert calls == []
        for v in verdicts:
            assert (v.status, v.mode, v.evidence["note"]) == ("HOLDS", "exact",
                                                              "the cone is the origin")

    def test_crossplanes3d_enumerates_s_multipliers_once(self, corpus, monkeypatch):
        # the critical subspace is a line here, so both gates sweep the multipliers
        assert self._count(monkeypatch, corpus["crossplanes3d"], [0.0, 0.0, 0.0]) == (1, 1)
