from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from mpsckit import cli, cones, numeric
from mpsckit.cones import PointContext
from mpsckit.errors import SizeCapError
from mpsckit.numeric import Polyhedron, Tolerances
from mpsckit.problem import load_problem

TOL = Tolerances()


def scipy_linprog(c, P):
    """The reference LP solve of min c.x over P, free variables."""
    return linprog(c, A_ub=P.A_le if P.A_le.size else None,
                   b_ub=P.b_le if P.A_le.size else None,
                   A_eq=P.A_eq if P.A_eq.size else None,
                   b_eq=P.b_eq if P.A_eq.size else None,
                   bounds=(None, None), method="highs")


class TestRank:
    def test_rank_one(self):
        assert numeric.rank_tol([[1, 0], [2, 0]], TOL) == 1

    def test_identity(self):
        assert numeric.rank_tol(np.eye(3), TOL) == 3

    def test_near_singular(self):
        # sigma2/sigma1 < 1e-8, confirmed against the raw SVD
        M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] / s[0] < 1e-8
        assert numeric.rank_tol(M, TOL) == 1

    def test_zero_and_empty(self):
        assert numeric.rank_tol(np.zeros((2, 2)), TOL) == 0
        assert numeric.rank_tol(np.zeros((0, 3)), TOL) == 0

    def test_rank_equals_rank_of_transpose(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m, n = rng.integers(1, 6, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
            assert numeric.rank_tol(M, TOL) == numeric.rank_tol(M.T, TOL) == r


class TestNullspace:
    def test_identity_has_empty_basis(self):
        assert numeric.nullspace(np.eye(2), TOL).shape == (2, 0)

    def test_zero_row_spans_plane(self):
        B = numeric.nullspace(np.zeros((1, 2)), TOL)
        assert B.shape == (2, 2)
        assert np.allclose(B.T @ B, np.eye(2))

    def test_stacked_gradients_full_rank(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        assert numeric.nullspace(M, TOL).shape == (2, 0)

    def test_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m, n = rng.integers(1, 6, size=2)
            M = rng.normal(size=(m, n))
            M[rng.integers(0, m)] = 0.0
            B = numeric.nullspace(M, TOL)
            assert B.shape[1] == n - numeric.rank_tol(M, TOL)
            if B.size:
                assert np.max(np.abs(M @ B)) <= 1e-10
                assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12)


class TestEig:
    def test_negative_diag(self):
        w, _ = numeric.eig_sym(np.diag([-2.0, -2.0]))
        assert np.allclose(w, [-2.0, -2.0])

    def test_zero(self):
        w, _ = numeric.eig_sym(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))

    def test_swap_matrix(self):
        w, V = numeric.eig_sym([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(w, [-1.0, 1.0])
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        for k in range(2):
            assert np.linalg.norm(M @ V[:, k] - w[k] * V[:, k]) <= 1e-10

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            numeric.eig_sym([[0.0, 1.0], [0.0, 0.0]])


class TestLpSolve:
    def test_single_multiplier_feasible(self):
        # lambda >= 0 with -lambda + 1 = 0
        P = Polyhedron.make(1, A_eq=[[-1.0]], b_eq=[-1.0], A_le=[[-1.0]], b_le=[0.0])
        res = numeric.lp_solve(None, P, sense="feasibility")
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0])

    def test_inconsistent_system_infeasible(self):
        # lambda >= 0 with 1 - lambda = 0 and -3 + lambda = 0
        P = Polyhedron.make(1, A_eq=[[-1.0], [1.0]], b_eq=[-1.0, 3.0],
                            A_le=[[-1.0]], b_le=[0.0])
        assert numeric.lp_solve(None, P, sense="feasibility").status == "infeasible"

    def test_min_on_simplex(self):
        P = Polyhedron.make(2, A_eq=[[1.0, 1.0]], b_eq=[1.0],
                            A_le=[[-1.0, 0.0], [0.0, -1.0]], b_le=[0.0, 0.0])
        res = numeric.lp_solve([1.0, 0.0], P, sense="min")
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)

    def test_unbounded(self):
        P = Polyhedron.make(1, A_le=[[-1.0]], b_le=[0.0])
        assert numeric.lp_solve([-1.0], P, sense="min").status == "unbounded"

    def test_max_sense(self):
        P = Polyhedron.make(1, A_le=[[1.0], [-1.0]], b_le=[2.0, 0.0])
        res = numeric.lp_solve([1.0], P, sense="max")
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def _random_polyhedron(self, rng, n):
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        q = int(rng.integers(0, 2))
        Aeq = rng.normal(size=(q, n))
        beq = rng.normal(size=q)
        return Polyhedron.make(n, A_eq=Aeq if q else None, b_eq=beq if q else None,
                               A_le=A, b_le=b)

    def test_feasibility_vs_rejection_sampling(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            P = self._random_polyhedron(rng, n)
            res = numeric.lp_solve(None, P, sense="feasibility")
            X = rng.uniform(-5, 5, size=(100_000, n))
            ok = np.ones(len(X), dtype=bool)
            if P.A_le.size:
                ok &= np.all(X @ P.A_le.T <= P.b_le + 1e-9, axis=1)
            if P.A_eq.size:
                ok &= np.all(np.abs(X @ P.A_eq.T - P.b_eq) <= 1e-9, axis=1)
            if res.status == "infeasible":
                assert not np.any(ok)

    def test_against_scipy_linprog(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            P = self._random_polyhedron(rng, n)
            c = rng.normal(size=n)
            mine = numeric.lp_solve(c, P, sense="min")
            ref = scipy_linprog(c, P)
            if ref.status == 2:
                assert mine.status == "infeasible"
            elif ref.status == 3:
                assert mine.status == "unbounded"
            else:
                assert mine.status == "optimal"
                assert mine.value == pytest.approx(ref.fun, abs=1e-6)

    def test_phase1_stop_on_feasible_cone_pieces(self, capsys):
        # every piece has a zero right-hand side, so the origin is feasible;
        # phase 1 of one linearization piece stops "unbounded" at objective 0
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8)]) == 0
        capsys.readouterr()
        ctx = PointContext(load_problem(str(path)), np.zeros(8), TOL)
        for cone in (cones.linearization_cone(ctx), cones.critical_cone(ctx)):
            for piece in cone.pieces:
                poly = piece.polyhedron()
                mine = numeric.lp_solve(None, poly, sense="feasibility")
                ref = scipy_linprog(np.zeros(poly.dim), poly)
                assert (mine.status == "infeasible") == (ref.status == 2)


class TestCombinationLp:
    """combination_lp against scipy on an independent formulation.

    The reference bounds |z_c| by an extra variable t_c (or |B z - rhs| by
    slacks) instead of splitting the free columns, so it shares no
    construction with the helper.
    """

    def _instance(self, rng):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        B = rng.normal(size=(n, k))
        nonneg = rng.uniform(size=k) < 0.5
        if rng.uniform() < 0.5:
            z0 = rng.normal(size=k)
            z0[nonneg] = np.abs(z0[nonneg])
            rhs = B @ z0
        else:
            rhs = rng.normal(size=n)
        return B, nonneg, rhs

    def _l1_reference(self, B, nonneg, rhs):
        n, k = B.shape
        I, Z = np.eye(k), np.zeros((k, k))
        A_le = np.vstack([np.hstack([I, -I]), np.hstack([-I, -I]),
                          np.hstack([-I, Z])[nonneg]])
        P = Polyhedron.make(2 * k, A_eq=np.hstack([B, np.zeros((n, k))]), b_eq=rhs,
                            A_le=A_le, b_le=np.zeros(A_le.shape[0]))
        return scipy_linprog(np.concatenate([np.zeros(k), np.ones(k)]), P)

    def _residual_reference(self, B, nonneg, rhs):
        n, k = B.shape
        A_le = np.vstack([np.hstack([B, -np.eye(n)]), np.hstack([-B, -np.eye(n)]),
                          np.hstack([-np.eye(k), np.zeros((k, n))])[nonneg]])
        b_le = np.concatenate([rhs, -rhs, np.zeros(int(nonneg.sum()))])
        P = Polyhedron.make(k + n, A_le=A_le, b_le=b_le)
        return scipy_linprog(np.concatenate([np.zeros(k), np.ones(n)]), P)

    def test_against_scipy_linprog(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(80):
            B, nonneg, rhs = self._instance(rng)
            ref = self._l1_reference(B, nonneg, rhs)
            feasible = numeric.combination_lp(B, nonneg, rhs, "feasible")
            z = numeric.combination_lp(B, nonneg, rhs, "l1")
            assert feasible == (ref.status == 0) == (z is not None)
            seen.add(feasible)
            if z is not None:
                assert np.all(z[nonneg] >= -1e-12)
                assert np.allclose(B @ z, rhs, atol=1e-7)
                assert np.abs(z).sum() == pytest.approx(ref.fun, abs=1e-7)
            res = numeric.combination_lp(B, nonneg, rhs, "residual")
            assert res == pytest.approx(self._residual_reference(B, nonneg, rhs).fun,
                                        abs=1e-7)
        assert seen == {True, False}

    def test_no_columns(self):
        B = np.zeros((2, 0))
        assert numeric.combination_lp(B, [], np.zeros(2), "feasible")
        assert not numeric.combination_lp(B, [], np.ones(2), "feasible")
        assert numeric.combination_lp(B, [], np.ones(2), "l1") is None
        assert numeric.combination_lp(B, [], np.zeros(2), "rays", TOL) == []


class TestEnumerateGenerators:
    def test_standard_simplex(self):
        P = Polyhedron.make(2, A_eq=[[1.0, 1.0]], b_eq=[1.0],
                            A_le=[[-1.0, 0.0], [0.0, -1.0]], b_le=[0.0, 0.0])
        gen = numeric.enumerate_generators(P, TOL)
        vs = sorted(tuple(np.round(v, 9)) for v in gen.vertices)
        assert vs == [(0.0, 1.0), (1.0, 0.0)]
        assert gen.rays == [] and gen.lineality == []

    def test_nonnegative_orthant(self):
        P = Polyhedron.make(2, A_le=[[-1.0, 0.0], [0.0, -1.0]], b_le=[0.0, 0.0])
        gen = numeric.enumerate_generators(P, TOL)
        assert len(gen.vertices) == 1 and np.allclose(gen.vertices[0], 0.0)
        rays = sorted(tuple(np.round(r, 9)) for r in gen.rays)
        assert rays == [(0.0, 1.0), (1.0, 0.0)]

    def test_halfline_on_diagonal(self):
        P = Polyhedron.make(2, A_eq=[[1.0, -1.0]], b_eq=[0.0],
                            A_le=[[-1.0, 0.0]], b_le=[0.0])
        gen = numeric.enumerate_generators(P, TOL)
        assert len(gen.vertices) == 1 and np.allclose(gen.vertices[0], 0.0, atol=1e-9)
        assert len(gen.rays) == 1
        assert np.allclose(gen.rays[0], np.array([1.0, 1.0]) / np.sqrt(2))

    def test_lineality_subspace(self):
        # {d : d2 = 0} in R^2 has a one-dimensional lineality space
        P = Polyhedron.make(2, A_eq=[[0.0, 1.0]], b_eq=[0.0])
        gen = numeric.enumerate_generators(P, TOL)
        assert len(gen.lineality) == 1
        assert abs(gen.lineality[0][0]) == pytest.approx(1.0)
        assert gen.lineality[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_reported_infeasible(self):
        P = Polyhedron.make(1, A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0])
        with pytest.raises(ValueError, match="infeasible"):
            numeric.enumerate_generators(P, TOL)

    def test_size_cap(self):
        P = Polyhedron.make(13)
        with pytest.raises(SizeCapError):
            numeric.enumerate_generators(P, TOL)

    def test_vertex_validity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 6))
            A = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)  # contains the origin
            P = Polyhedron.make(n, A_le=A, b_le=b)
            gen = numeric.enumerate_generators(P, TOL)
            for v in gen.vertices:
                assert P.contains(v, TOL.tau_feas)
                act = [A[i] for i in range(m) if abs(A[i] @ v - b[i]) <= 1e-7]
                assert numeric.rank_tol(np.array(act), TOL) >= n


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert (t.tau_rank, t.tau_act, t.tau_feas, t.tau_psd) == (1e-8,) * 4
        assert (t.angular_tol, t.seed, t.n_samples, t.eps_ball) == (0.05, 42, 512, 1e-2)

    def test_positive_validation(self):
        with pytest.raises(ValueError):
            Tolerances(tau_rank=0.0)

    def test_rng_streams_deterministic(self):
        t = Tolerances()
        a = t.rng("wcr", 0).uniform(size=4)
        b = t.rng("wcr", 0).uniform(size=4)
        c = t.rng("wcr", 1).uniform(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
