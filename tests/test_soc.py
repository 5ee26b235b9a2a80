import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import in_cone_union, random_cut_piece

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
        assert qf.method == "subspace_eig"
        assert qf.value == pytest.approx(-2.0, abs=1e-12)
        assert abs(qf.direction[0]) == pytest.approx(1.0)

    def test_identity_nonnegative_everywhere(self):
        # a half-plane is no subspace, so the copositivity test decides it
        piece = ConePiece(A_eq=np.zeros((0, 2)), A_le=np.array([[-1.0, 0.0]]))
        qf = soc.quadform_min_over_cone(np.eye(2), piece, TOL)
        assert (qf.method, qf.value, qf.direction) == ("copositivity", None, None)
        assert not qf.negative(TOL)

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


def orthant_family(n):
    """The nonnegative orthant of R^n and Q = I - 1.01 w w^T, w = (1, ..., n)/|.|:
    the form is positive on every proper face of the orthant (each proper
    subvector of w has squared norm below 1/1.01) and -0.01 at w, inside it."""
    w = np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))
    return ConePiece(A_eq=np.zeros((0, n)), A_le=-np.eye(n)), np.eye(n) - 1.01 * np.outer(w, w)


def simplex_min(M, rng, starts=40):
    """min y^T M y over the unit simplex by SLSQP from every vertex and from
    `starts` random points: the oracle for copositivity of M."""
    k = len(M)
    simplex = ({"type": "eq", "fun": lambda y: y.sum() - 1.0, "jac": lambda y: np.ones(k)},)
    best = np.inf
    for y0 in np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=starts)]):
        y = minimize(lambda y: y @ M @ y, y0, jac=lambda y: 2.0 * M @ y, method="SLSQP",
                     bounds=[(0.0, None)] * k, constraints=simplex).x.clip(0.0)
        best = min(best, (y @ M @ y) / y.sum() ** 2)
    return best


class TestCopositivity:
    """The exact test on pieces that are not subspaces."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_the_orthant_family_fails_inside_the_piece(self, n):
        # the sampled sweep this test replaced read -0.0015 at n = 4 and
        # +0.0035 at n = 5
        piece, Q = orthant_family(n)
        qf = soc.quadform_min_over_cone(Q, piece, TOL)
        assert qf.method == "copositivity" and qf.negative(TOL)
        d = qf.direction
        assert piece.contains(d, 1e-12)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        assert qf.value == pytest.approx(d @ Q @ d, abs=1e-15)
        assert qf.value <= -0.005

    @pytest.mark.parametrize("n", range(2, 7))
    def test_the_orthant_family_fails_ssonc_exactly(self, n):
        # min 1/2 x^T Q x over x >= 0: the critical cone at 0 is the orthant
        _, Q = orthant_family(n)
        names = [f"x{i + 1}" for i in range(n)]
        f = " + ".join(f"{float(0.5 * Q[i, j])!r}*{names[i]}*{names[j]}"
                       for i in range(n) for j in range(n)).replace("+ -", "- ")
        P = load_problem(f"vars {' '.join(names)}\nmin {f}\n"
                         + "".join(f"ineq -{v}\n" for v in names), from_path=False)
        v = soc.check_ssonc(PointContext(P, [0.0] * n, TOL))
        assert (v.status, v.mode, v.evidence["method"]) == ("FAILS", "exact", "copositivity")
        assert np.all(np.asarray(v.witness["direction"]) >= 0.0)
        assert v.witness["value"] <= -0.005

    def test_random_pieces_agree_with_an_optimizer_over_the_simplex(self):
        # d^T Q d >= 0 on cone(G) exactly when y^T G^T Q G y >= 0 on the simplex;
        # the oracle decides the sign wherever its minimum clears 10 tau_psd
        rng = np.random.default_rng(5)
        seen = set()
        for trial in range(150):
            piece, _ = random_cut_piece(rng, trial)
            n = piece.dim
            B = rng.normal(size=(n, n))
            Q = 0.5 * (B + B.T) + rng.uniform(0.0, 3.0) * np.eye(n)
            if piece.is_subspace(TOL):
                continue
            G = np.array(piece.generators(TOL).all_rays()).T
            if G.shape[1] > soc.COPOSITIVE_COLUMN_CAP:
                with pytest.raises(SizeCapError):
                    soc.quadform_min_over_cone(Q, piece, TOL)
                seen.add("capped")
                continue
            qf = soc.quadform_min_over_cone(Q, piece, TOL)
            if qf.negative(TOL):
                assert piece.contains(qf.direction, 1e-9)
                assert qf.direction @ Q @ qf.direction == pytest.approx(qf.value, abs=1e-12)
            oracle = simplex_min(G.T @ Q @ G, rng)
            if abs(oracle) > 10.0 * TOL.tau_psd:
                assert qf.negative(TOL) == (oracle < 0.0), (trial, qf, oracle)
                seen.add("FAILS" if oracle < 0.0 else "HOLDS")
        assert seen == {"FAILS", "HOLDS", "capped"}

    def test_a_piece_past_the_cap_is_unknown_and_named(self):
        # six rays and six lineality directions: 18 columns
        names = [f"x{i}" for i in range(1, 13)]
        P = load_problem(f"vars {' '.join(names)}\nmin "
                         + " + ".join(f"{v}^2" for v in names) + "\n"
                         + "".join(f"ineq -{v}\n" for v in names[:6]), from_path=False)
        ctx = PointContext(P, [0.0] * 12, TOL)
        assert len(ctx.critical.pieces[0].generators(TOL).all_rays()) == 18
        v = soc.check_ssonc(ctx)
        assert (v.status, v.witness) == ("UNKNOWN", None)
        assert v.evidence == {"capped_pieces": [0], "note": "18 cone generators exceed "
                              f"the copositivity cap of {soc.COPOSITIVE_COLUMN_CAP}"}
        # the critical subspace {x1 = ... = x6 = 0} is decided exactly
        assert soc.check_wsonc(ctx).status == "HOLDS"

    @pytest.mark.parametrize("f, status, evidence", [
        # piece 0 (lineality e1) is capped and fails nowhere else: UNKNOWN
        ("-x1^2", "UNKNOWN", {"capped_pieces": [0],
                              "note": "3 cone generators exceed the copositivity cap of 2"}),
        # piece 1 fails along e2, so the capped piece 0 hides nothing
        ("-x2^2", "FAILS", {"piece": 1, "method": "copositivity"}),
    ])
    def test_a_capped_piece_hides_no_failing_piece(self, monkeypatch, f, status, evidence):
        monkeypatch.setattr(soc, "COPOSITIVE_COLUMN_CAP", 2)
        P = load_problem(f"vars x1 x2 x3\nmin {f}\nineq -x2\nineq -x3\nswitch x1 | x2\n",
                         from_path=False)
        v = soc.check_ssonc(PointContext(P, [0.0] * 3, TOL))
        assert (v.status, v.evidence) == (status, evidence)


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
                              "sweeps": [{"piece": 0, "generator": gi, "method": "subspace_eig"}
                                         for gi in range(generators)],
                              "multiplier_argument": soc.MULTIPLIER_ARGUMENT,
                              "subspace_dim": dim}

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
        assert (v.status, v.mode, v.evidence["method"]) == ("FAILS", "exact", "copositivity")
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
