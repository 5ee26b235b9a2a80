import ast
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import basiswalk

from mpsckit import cli, cones, numeric
from mpsckit.cones import PointContext
from mpsckit.errors import NumericBreakdownError, SizeCapError
from mpsckit.numeric import Polyhedron, Tolerances, sanitize
from mpsckit.problem import load_problem

TOL = Tolerances()


def scipy_linprog(c, P):
    """The reference LP solve of min c.x over P, free variables."""
    return linprog(c, A_ub=P.A_le if P.A_le.size else None,
                   b_ub=P.b_le if P.A_le.size else None,
                   A_eq=P.A_eq if P.A_eq.size else None,
                   b_eq=P.b_eq if P.A_eq.size else None,
                   bounds=(None, None), method="highs")


def rank(M, tol=TOL):
    """The rank of one matrix, from rank_tol_batch on a stack of one."""
    return int(numeric.rank_tol_batch(np.atleast_2d(np.asarray(M, float))[None], tol)[0][0])


def rank_margin_reference(M, tol=TOL):
    """The rank and margin of one matrix from its own SVD, the cutoff and the
    margin written out in Python."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0, math.inf
    cut = tol.tau_rank * s[0]
    return int(np.sum(s > cut)), min(max(x / cut, cut / x) for x in s if x > 0.0)


class TestRank:
    def test_rank_one(self):
        assert rank([[1, 0], [2, 0]]) == 1

    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_near_singular(self):
        # sigma2/sigma1 < 1e-8, confirmed against the raw SVD
        M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        s = np.linalg.svd(M, compute_uv=False)
        assert s[1] / s[0] < 1e-8
        assert rank(M) == 1

    def test_zero_and_empty(self):
        assert rank(np.zeros((2, 2))) == 0
        assert rank(np.zeros((0, 3))) == 0

    def test_rank_equals_rank_of_transpose(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            m, n = rng.integers(1, 6, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            M = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
            assert rank(M) == rank(M.T) == r

    def test_stack_equals_svd_slice_by_slice(self):
        # each matrix's own SVD, cut and measured in Python, is the oracle,
        # the margins compared as bytes
        rng = np.random.default_rng(30)
        kinds = Counter()
        for trial in range(600):
            N, q, n = int(rng.integers(1, 6)), int(rng.integers(0, 6)), int(rng.integers(1, 6))
            Ms = 10.0 ** rng.uniform(-8.0, 3.0) * rng.normal(size=(N, q, n))
            kind = ("random", "zero", "deficient", "near cutoff")[trial % 4]
            if kind == "zero":
                Ms[rng.integers(N)] = 0.0
            elif kind == "deficient" and q > 1:
                Ms[:, -1] = 2.0 * Ms[:, 0]
            elif kind == "near cutoff" and min(q, n) > 1:
                # a singular value within a factor 1 + 1e-6 of tau_rank * sigma_max
                U, _, Vt = np.linalg.svd(Ms)
                s = np.zeros((N, min(q, n)))
                s[:, 0] = 1.0
                s[:, -1] = TOL.tau_rank * (1.0 + 1e-6 * rng.choice([-1.0, 1.0], size=N))
                Ms = np.einsum("nik,nk,nkj->nij", U[:, :, :s.shape[1]], s, Vt[:, :s.shape[1]])
            ranks, margins = numeric.rank_tol_batch(Ms, TOL)
            assert ranks.shape == margins.shape == (N,)
            for k in range(N):
                r, margin = rank_margin_reference(Ms[k])
                assert ranks[k] == r, (kind, N, q, n, k)
                assert margins[k].tobytes() == np.float64(margin).tobytes(), (kind, N, q, n, k)
                kinds["empty" if q == 0 else "zero" if r == 0 else
                      "thin" if margin < 1.01 else kind] += 1
        assert min(kinds.values()) >= 50, kinds


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
            assert B.shape[1] == n - rank(M)
            if B.size:
                assert np.max(np.abs(M @ B)) <= 1e-10
                assert np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12)


class TestLstsqStack:
    def test_equals_lstsq_slice_by_slice(self):
        # np.linalg.lstsq on each matrix is the oracle, compared as bytes
        rng = np.random.default_rng(12)
        shapes = Counter()
        for _ in range(2000):
            N, m, n = (int(v) for v in rng.integers(1, 6, size=3))
            scale = 10.0 ** rng.uniform(-8.0, 3.0)
            A = scale * rng.normal(size=(N, m, n))
            duplicated = m > 1 and rng.random() < 0.3
            if duplicated:  # rank-deficient
                A[:, -1] = A[:, 0]
            b = scale * rng.normal(size=(N, m))
            got = numeric.lstsq_stack(A, b)
            assert got.shape == (N, n)
            for k in range(N):
                want = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
                assert got[k].tobytes() == want.tobytes(), (N, m, n, scale, k)
            shapes[(np.sign(m - n), duplicated)] += 1
        assert len(shapes) == 6 and min(shapes.values()) >= 50

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_before_lapack(self, where, bad, capfd):
        A, b = np.ones((3, 2, 2)), np.ones((3, 2))
        (A if where == "A" else b)[1, 0] = bad
        with pytest.raises(NumericBreakdownError, match="not finite"):
            numeric.lstsq_stack(A, b)
        assert capfd.readouterr() == ("", "")  # LAPACK printed nothing

    def test_lapack_failure_raises(self, monkeypatch):
        # the gufunc reports an SVD that did not converge by raising the
        # invalid floating-point flag, the signal np.linalg.lstsq turns
        # into LinAlgError; a stand-in gufunc raises that flag
        class Diverging:
            @staticmethod
            def lstsq(A, b, rcond, signature):
                x = np.sqrt(np.full(A.shape[:-2] + A.shape[-1:] + (1,), -1.0))
                return x, np.zeros(A.shape[:-2] + (1,)), 0, np.zeros(A.shape[:-1])

        monkeypatch.setattr(numeric, "_umath_linalg", Diverging)
        with pytest.raises(NumericBreakdownError, match="did not converge"):
            numeric.lstsq_stack(np.eye(2)[None], np.ones((1, 2)))


class TestEighStack:
    def test_equals_eigh_slice_by_slice(self):
        # np.linalg.eigh on each matrix is the oracle, compared as bytes; both
        # read the lower triangle only, so an asymmetric stack agrees too
        rng = np.random.default_rng(13)
        kinds = Counter()
        for _ in range(600):
            N, n = (int(v) for v in rng.integers(1, 6, size=2))
            A = 10.0 ** rng.uniform(-8.0, 3.0) * rng.normal(size=(N, n, n))
            kind = ("symmetric", "singular", "asymmetric")[int(rng.integers(3))]
            if kind == "symmetric":
                A = A + A.transpose(0, 2, 1)
            elif kind == "singular":  # rank one: repeated zero eigenvalues
                A = A[:, :, :1] @ A[:, :, :1].transpose(0, 2, 1)
            lam, Q = numeric.eigh_stack(A)
            assert lam.shape == (N, n) and Q.shape == (N, n, n)
            for k in range(N):
                w, V = np.linalg.eigh(A[k])
                assert lam[k].tobytes() == w.tobytes(), (kind, N, n, k)
                assert Q[k].tobytes() == V.tobytes(), (kind, N, n, k)
            kinds[kind] += 1
        assert min(kinds.values()) >= 150

    def test_lapack_failure_raises(self, monkeypatch):
        # the gufunc reports an iteration that did not converge by raising
        # the invalid floating-point flag, the signal np.linalg.eigh turns
        # into LinAlgError; a stand-in gufunc raises that flag
        class Diverging:
            @staticmethod
            def eigh_lo(H, signature):
                return np.sqrt(np.full(H.shape[:-1], -1.0)), np.full(H.shape, np.nan)

        monkeypatch.setattr(numeric, "_umath_linalg", Diverging)
        with pytest.raises(NumericBreakdownError, match="did not converge") as err:
            numeric.eigh_stack(np.eye(2)[None])
        assert not isinstance(err.value, np.linalg.LinAlgError)


class TestEig:
    def test_negative_diag(self):
        w, _ = numeric.eigh_stack(np.diag([-2.0, -2.0])[None])
        assert np.allclose(w[0], [-2.0, -2.0])

    def test_zero(self):
        w, _ = numeric.eigh_stack(np.zeros((1, 3, 3)))
        assert np.array_equal(w[0], np.zeros(3))

    def test_swap_matrix(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, V = (a[0] for a in numeric.eigh_stack(M[None]))
        assert np.allclose(w, [-1.0, 1.0])
        for k in range(2):
            assert np.linalg.norm(M @ V[:, k] - w[k] * V[:, k]) <= 1e-10


class TestRowNorms:
    def test_rows_whose_squares_leave_the_float_range(self):
        # 3e200 and 3e-170 square to inf and to 0; a RuntimeWarning fails the test
        A = np.array([[3e200, 4e200], [3e-170, -4e-170], [0.0, 0.0], [np.inf, 1.0]])
        np.testing.assert_allclose(numeric.row_norms(A), [5e200, 5e-170, 0.0, np.inf],
                                   rtol=1e-15)
        np.testing.assert_allclose(numeric.unit_rows(A[:3]), [[0.6, 0.8], [0.6, -0.8], [0, 0]],
                                   rtol=1e-15)

    def test_a_stack_is_each_matrix_row_by_row(self):
        # the rescaling reaches a row inside a stack (..., rows, n) too
        A = np.array([[3e200, 4e200], [3e-170, -4e-170], [0.0, 0.0], [1.0, 2.0]])
        S = np.stack([A, A[::-1]])
        assert np.array_equal(numeric.row_norms(S),
                              [numeric.row_norms(A), numeric.row_norms(A[::-1])])
        assert np.array_equal(numeric.unit_rows(S[None])[0, 1], numeric.unit_rows(A[::-1]))

    def test_other_rows_keep_the_plain_norm_bit_for_bit(self):
        A = np.random.default_rng(4).normal(size=(50, 5)) * 10.0 ** np.arange(-100, 100, 4)[:, None]
        assert np.array_equal(numeric.row_norms(A), np.linalg.norm(A, axis=1))


class TestLpSolve:
    """lp_solve's standard form: min c.z subject to A z = b, z >= 0."""

    def test_single_multiplier_feasible(self):
        # lambda >= 0 with -lambda + 1 = 0
        res = numeric.lp_solve(None, [[-1.0]], [-1.0])
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0])

    def test_inconsistent_system_infeasible(self):
        # lambda >= 0 with 1 - lambda = 0 and -3 + lambda = 0
        assert numeric.lp_solve(None, [[-1.0], [1.0]], [-1.0, 3.0]).status == "infeasible"

    def test_min_on_simplex(self):
        res = numeric.lp_solve([1.0, 0.0], [[1.0, 1.0]], [1.0])
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)

    def test_unbounded(self):
        # z1 = z2 leaves the ray (1, 1) along which -z1 decreases
        assert numeric.lp_solve([-1.0, 0.0], [[1.0, -1.0]], [0.0]).status == "unbounded"

    def test_against_scipy_linprog(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(60):
            m, nt = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            A, b, c = rng.normal(size=(m, nt)), rng.normal(size=m), rng.normal(size=nt)
            mine = numeric.lp_solve(c, A, b)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            seen.add(mine.status)
            if ref.status == 2:
                assert mine.status == "infeasible"
            elif ref.status == 3:
                assert mine.status == "unbounded"
            else:
                assert mine.status == "optimal"
                assert mine.value == pytest.approx(ref.fun, abs=1e-6)
                assert np.all(mine.x >= 0.0) and np.allclose(A @ mine.x, b, atol=1e-7)
        assert seen == {"optimal", "infeasible", "unbounded"}

    def test_phase1_stop_on_feasible_cone_pieces(self, capsys):
        # every piece has a zero right-hand side, so the origin is feasible;
        # phase 1 on one linearization piece's split form [A, -A] (plus a
        # slack per inequality row) stops "unbounded" at objective 0
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8)]) == 0
        capsys.readouterr()
        ctx = PointContext(load_problem(str(path)), np.zeros(8), TOL)
        for cone in (cones.linearization_cone(ctx), cones.critical_cone(ctx)):
            for piece in cone:
                rows, m_le = np.vstack([piece.A_eq, piece.A_le]), piece.A_le.shape[0]
                slack = np.vstack([np.zeros((piece.A_eq.shape[0], m_le)), np.eye(m_le)])
                A = np.hstack([rows, -rows, slack])
                mine = numeric.lp_solve(None, A, np.zeros(A.shape[0]))
                ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=np.zeros(A.shape[0]),
                              bounds=(0, None), method="highs")
                assert (mine.status == "infeasible") == (ref.status == 2)

    def test_combination_lp_is_the_only_caller(self):
        # the multiplier systems reach the simplex through combination_lp alone
        src = Path(numeric.__file__).parent
        callers = sorted(
            f"{path.stem}.{fn.name}"
            for path in src.glob("*.py")
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) == "lp_solve"
                         or getattr(node.func, "attr", None) == "lp_solve")
                    for node in ast.walk(fn)))
        assert callers == ["numeric.combination_lp"]

    def test_one_generator_search(self):
        # every polyhedron is enumerated by the one ray search over candidate
        # bases, and no vertex search solves its bases one by one: no module
        # calls np.linalg.lstsq (stacked solves go through lstsq_stack)
        src = Path(numeric.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
        callers = sorted(
            f"{stem}.{fn.name}" for stem, tree in trees.items()
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call) and "_bases" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None))
                    for node in ast.walk(fn)))
        assert callers == ["numeric._extreme_rays"]
        lstsq = sorted(stem for stem, tree in trees.items() for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "lstsq"
                       and ast.unparse(node.value) in ("np.linalg", "numpy.linalg", "linalg")
                       or isinstance(node, ast.alias) and node.name == "lstsq")
        assert lstsq == []


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

    def test_rays_keep_the_signs_exactly(self):
        # the split parts of a ray are >= -1e-9 by construction and clipped
        # at 0, so z_c >= 0 holds exactly, not to rounding, where nonneg[c];
        # every ray, its parts of unit norm, solves B z = 0
        rng = np.random.default_rng(17)
        count = 0
        for _ in range(300):
            n, k = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            B = rng.normal(size=(n, k))
            nonneg = rng.uniform(size=k) < 0.6
            for z in numeric.combination_lp(B, nonneg, None, "rays", TOL):
                assert np.all(z[nonneg] >= 0.0), (B, nonneg, z)
                assert np.abs(z).sum() > 1e-9, (B, nonneg)
                assert np.linalg.norm(B @ z) <= 1e-9 * np.abs(B).sum()
                count += 1
        assert count > 100

    def test_no_zero_rays(self):
        # splitting a free column c makes e_c + e_c' an extreme ray of the
        # split cone, which signs to z = 0: one per free column, dropped here;
        # {B z = 0, z_0 >= 0} is a half-plane, whose lineality comes back as
        # a pair of opposite rays, and its edge directions
        B = np.array([[1.0, 2.0, 0.5]])
        rays = numeric.combination_lp(B, [True, False, False], None, "rays", TOL)
        assert len(rays) == 4
        for z in rays:
            assert np.abs(z).sum() > 1e-9 and z[0] >= 0.0
            assert abs(B[0] @ z) <= 1e-12
        line = np.array([0.0, -1.0, 4.0]) / np.sqrt(17.0)  # B . line = 0, z_0 = 0
        assert sum(min(np.linalg.norm(z - line), np.linalg.norm(z + line)) <= 1e-12
                   for z in rays) == 2

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

    def test_dimension_zero_keeps_its_rows(self):
        # a zero-width equality row still carries its right-hand side
        P = Polyhedron.make(0, A_eq=np.zeros((1, 0)), b_eq=[1.0])
        assert P.A_eq.shape == (1, 0) and not basiswalk.contains(P, np.zeros(0), TOL.tau_feas)
        with pytest.raises(ValueError, match="infeasible"):
            numeric.enumerate_generators(P, TOL)
        P = Polyhedron.make(0, A_eq=np.zeros((2, 0)), b_eq=[0.0, 0.0],
                            A_le=np.zeros((1, 0)), b_le=[1.0])
        assert (P.A_eq.shape, P.A_le.shape) == ((2, 0), (1, 0))
        gen = numeric.enumerate_generators(P, TOL)
        assert [v.shape for v in gen.vertices] == [(0,)]
        assert Polyhedron.make(2, A_eq=[], A_le=np.zeros((0, 5))).A_le.shape == (0, 2)

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
        # emptiness comes from the ray search: a polyhedron is reported
        # empty only when no sample of the box is feasible
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            P = self._random_polyhedron(rng, n)
            try:
                numeric.enumerate_generators(P, TOL)
                empty = False
            except ValueError:
                empty = True
            X = rng.uniform(-5, 5, size=(100_000, n))
            ok = np.ones(len(X), dtype=bool)
            if P.A_le.size:
                ok &= np.all(X @ P.A_le.T <= P.b_le + 1e-9, axis=1)
            if P.A_eq.size:
                ok &= np.all(np.abs(X @ P.A_eq.T - P.b_eq) <= 1e-9, axis=1)
            if empty:
                assert not np.any(ok)

    def test_emptiness_against_scipy(self):
        # cones (never empty), polyhedra with lineality and polyhedra with
        # conflicting rows, in the pointed, quotient and full-lineality cases
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(300):
            n = int(rng.integers(1, 5))
            kind = trial % 3
            r = int(rng.integers(0, n)) if kind == 1 else n  # row rank
            q, m = int(rng.integers(0, 3)), int(rng.integers(0, 6))
            A_eq = rng.normal(size=(q, r)) @ rng.normal(size=(r, n))
            A_le = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            if kind == 0:
                b_eq, b_le = np.zeros(q), np.zeros(m)
            else:
                x0 = rng.normal(size=n)
                b_eq = A_eq @ x0 + (rng.normal(size=q) if rng.uniform() < 0.3 else 0.0)
                b_le = A_le @ x0 + rng.normal(size=m)
            P = Polyhedron.make(n, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le)
            ref = scipy_linprog(np.zeros(n), P)
            try:
                gen = numeric.enumerate_generators(P, TOL)
            except ValueError:
                assert ref.status == 2
                seen.add("empty")
                continue
            assert ref.status == 0 and gen.vertices
            assert all(basiswalk.contains(P, v, 1e-6) for v in gen.vertices)
            seen.add("nonempty")
        assert seen == {"empty", "nonempty"}

    def test_cones_make_no_lp_call(self, capsys, monkeypatch):
        # cone pieces are decided by the ray search alone
        calls = []
        lp_solve = numeric.lp_solve
        monkeypatch.setattr(numeric, "lp_solve",
                            lambda *args: calls.append(args) or lp_solve(*args))
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8)]) == 0
        capsys.readouterr()
        assert calls == []

    def test_cones_work_counts(self, capsys, monkeypatch):
        # cones_wide_1005_5's 64 linearization pieces (8 inequality rows each)
        # are searched by one enumerate_generators call stacked over the union,
        # and each SVD of that search is one batched call over its one rank
        # group: the two nullspace calls of the lineality split, the
        # equality-rank test and the block of all 64 x 8 candidate bases in
        # _kernel_lines.  The 64 critical pieces (9 rows) make no search:
        # their lineality bases are one stacked nullspace, and each is cut
        # from its parent's generators; the critical subspace is one nullspace
        # more.  No vertex search runs (no lstsq); SVDs are counted by caller
        searched, cuts, svds, others = [], [], Counter(), []

        def enumerate_generators(Ps, tol):
            searched.append([P.A_le.shape[0] for P in Ps])
            return numeric.enumerate_generators(Ps, tol)

        svd, lstsq = np.linalg.svd, np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.update(
            [sys._getframe(1).f_code.co_name]) or svd(*a, **kw))
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **kw: others.append("lstsq") or lstsq(*a, **kw))
        monkeypatch.setattr(cones, "enumerate_generators", enumerate_generators)
        monkeypatch.setattr(cones, "cut_generators",
                            lambda *args: cuts.append(1) or numeric.cut_generators(*args))
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8)]) == 0
        capsys.readouterr()
        assert searched == [[8] * 64] and len(cuts) == 64 and others == []
        assert svds == Counter({"nullspace": 4, "rank_tol_batch": 1, "_kernel_lines": 1})

    @pytest.mark.parametrize("cap, value, lin_error", [
        ("MAX_GEN_CONSTRAINTS", 14, None),
        ("MAX_GEN_DIM", 7, "polyhedron too large for enumeration (14 constraints, dim 8)")],
        ids=["constraints", "dim"])
    def test_a_cut_piece_over_the_caps_reports_its_own_size(self, cap, value, lin_error,
                                                            tmp_path, capsys, monkeypatch):
        # cones_wide_1005_5's linearization pieces have 14 rows and its
        # critical pieces 15: a cut piece checks its own caps before its
        # parent's search, so its error names its own size
        monkeypatch.setattr(numeric, cap, value)
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        out = tmp_path / "cones.json"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8),
                         "--json", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert {p.get("error") for p in doc["linearization"]["pieces"]} == {lin_error}
        assert {p.get("error") for p in doc["critical"]["pieces"]} \
            == {"polyhedron too large for enumeration (15 constraints, dim 8)"}

    def test_generators_do_not_depend_on_row_scales(self):
        # rows scaled by 10^U(-9, 9): at its own scale a basis can fall short
        # of full rank although the cone is pointed, and the searches then
        # called the cone empty or lost its rays; the same cone with unscaled
        # rows has the same generators, and its only vertex is the origin
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            q, m = int(rng.integers(0, 3)), int(rng.integers(0, 7))
            A_eq, A_le = rng.normal(size=(q, n)), rng.normal(size=(m, n))
            ref = numeric.enumerate_generators(Polyhedron.make(n, A_eq=A_eq, A_le=A_le), TOL)
            A_eq = A_eq * 10.0 ** rng.uniform(-9, 9, size=(q, 1))
            A_le = A_le * 10.0 ** rng.uniform(-9, 9, size=(m, 1))
            gen = numeric.enumerate_generators(Polyhedron.make(n, A_eq=A_eq, A_le=A_le), TOL)
            assert len(gen.vertices) == 1 and np.array_equal(gen.vertices[0], np.zeros(n))
            for part, want in zip((gen.rays, gen.lineality), (ref.rays, ref.lineality)):
                assert len(part) == len(want)
                assert all(np.allclose(d, e, atol=1e-9) for d, e in zip(part, want))

    def test_thin_equality_row_keeps_the_rays(self):
        # every ray basis [e; a_i] is rank 1 at its own scale (ratio 1e-9),
        # yet the cone {x1 = x2, x >= 0} has two rays
        P = Polyhedron.make(3, A_eq=[[1e-4, -1e-4, 0.0]], A_le=-1e5 * np.eye(3))
        gen = numeric.enumerate_generators(P, TOL)
        assert [v.tolist() for v in gen.vertices] == [[0.0, 0.0, 0.0]]
        assert np.allclose(gen.rays, [[0.0, 0.0, 1.0], [2 ** -0.5, 2 ** -0.5, 0.0]])
        assert gen.lineality == []

    def test_thin_rows_nonempty_polyhedron(self):
        # the rows of the thin-cone problem with b_le > 0: a segment of the
        # equality's line, each end on one inequality row
        A_le, A_eq = [[222200.0, -99099.0], [-305484.0, -132105.0]], [[-7.927e-7, 2.2538e-6]]
        P = Polyhedron.make(2, A_eq=A_eq, A_le=A_le, b_le=[1.0, 1.0])
        gen = numeric.enumerate_generators(P, TOL)
        assert len(gen.vertices) == 2 and gen.rays == [] and gen.lineality == []
        assert all(basiswalk.contains(P, v, TOL.tau_feas) for v in gen.vertices)
        active = np.isclose(np.asarray(A_le) @ np.transpose(gen.vertices), 1.0)
        assert active.sum(axis=0).tolist() == [1, 1] and active.any(axis=1).all()

    def test_thin_rows_small_polyhedron_keeps_both_ends(self):
        # the same segment scaled by 1e-3: its ends are 2.9e-9 and 5.7e-9 from
        # the origin, so an absolute merge or containment rule loses one
        A_le, A_eq = [[222200.0, -99099.0], [-305484.0, -132105.0]], [[-7.927e-7, 2.2538e-6]]
        big, small = (numeric.enumerate_generators(
            Polyhedron.make(2, A_eq=A_eq, A_le=A_le, b_le=[c, c]), TOL).vertices
            for c in (1.0, 1e-3))
        assert len(small) == len(big) == 2
        for v, w in zip(small, big):
            assert np.linalg.norm(v - 1e-3 * w) <= 1e-9 * 1e-3 * np.linalg.norm(w)

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1e3])
    def test_scaled_polytope_scales_its_vertices(self, c):
        # {A x <= c b}: the search decides at the polyhedron's own
        # scale, so the vertices are c times those of {A x <= b}
        rng = np.random.default_rng(3)
        for _ in range(300):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            A = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
            b = np.concatenate([rng.uniform(0.1, 2.0, size=m), rng.uniform(0.5, 2.0, size=2 * n)])
            ref, got = (numeric.enumerate_generators(Polyhedron.make(n, A_le=A, b_le=k * b),
                                                     TOL).vertices for k in (1.0, c))
            assert len(got) == len(ref)
            for v, w in zip(got, ref):
                assert np.linalg.norm(v - c * w) <= 1e-9 * c * np.linalg.norm(w)

    def test_far_vertex_precision(self):
        # a vertex read off the cone over P as s x / t, with t about s / |v|,
        # carries a relative error of about eps |v| / s: the two rows meeting
        # at v = R (far, 0) * c are 1 / far apart in slope
        rng, eps = np.random.default_rng(19), np.finfo(float).eps
        for far in (1e2, 1e4, 1e6, 1e7):
            for _ in range(20):
                th, c = rng.uniform(0.0, 2.0 * np.pi), 10.0 ** rng.uniform(-3, 3)
                R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
                A = np.array([[0.0, -1.0], [1.0 / far, 1.0], [-1.0, 0.0]]) @ R.T
                P = Polyhedron.make(2, A_le=A, b_le=[0.0, c, 0.0])
                s = c / np.linalg.norm(A[1])
                want = c * far * R[:, 0]
                got = numeric.enumerate_generators(P, TOL).vertices
                assert len(got) == 3
                err = min(np.linalg.norm(v - want) for v in got)
                assert err <= 16.0 * eps * np.linalg.norm(want) ** 2 / s

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
                assert basiswalk.contains(P, v, TOL.tau_feas)
                act = [A[i] for i in range(m) if abs(A[i] @ v - b[i]) <= 1e-7]
                assert rank(np.array(act)) >= n


def _generators_bytes(P):
    """enumerate_generators' result as exact bytes, or its error."""
    def exact(part):
        return [(v.shape, v.tobytes()) for v in part]

    try:
        gen = numeric.enumerate_generators(P, TOL)
    except (ValueError, SizeCapError) as e:
        return type(e).__name__, str(e)
    return [exact(gen.vertices), exact(gen.rays), exact(gen.lineality)]


def _unit_scaled_b(P):
    """P's right-hand sides over its rows' norms (zero rows kept as they are)."""
    nrm = np.linalg.norm(np.vstack([P.A_eq, P.A_le]), axis=1)
    return np.concatenate([P.b_eq, P.b_le]) / np.where(nrm > 0.0, nrm, 1.0)


class TestBatchedSearches:
    """The ray search _extreme_rays against the ray walk in tests/basiswalk.py:
    the same generators in the same order, bit for bit (signed zeros
    included), or the same error; and the vertices read off the cone over P
    against the walk of P's own vertex bases, as sets."""

    def assert_same(self, P, monkeypatch):
        fast = _generators_bytes(P)
        with monkeypatch.context() as m:
            m.setattr(numeric, "_extreme_rays", basiswalk.extreme_rays)
            walk = _generators_bytes(P)
        assert fast == walk
        try:
            got = numeric.enumerate_generators(P, TOL).vertices
        except ValueError:
            got = []
        want = basiswalk.vertices(P, TOL)
        s = float(np.max(np.abs(_unit_scaled_b(P)), initial=0.0))
        assert len(got) == len(want), (P, got, want)
        assert all(min(np.linalg.norm(w - v) for w in want) <= 1e-9 * (s + np.linalg.norm(v))
                   for v in got), (P, got, want)
        return fast

    @pytest.mark.parametrize("block", [numeric._BASES_PER_BATCH, 3])
    def test_random_cones_and_polyhedra(self, monkeypatch, block):
        # block 3 splits the searches into many batches of candidate bases
        monkeypatch.setattr(numeric, "_BASES_PER_BATCH", block)
        rng = np.random.default_rng(11)
        seen = set()
        for trial in range(400):
            n = int(rng.integers(1, 6))
            r = int(rng.integers(1, n + 1)) if trial % 4 == 3 else n  # row rank
            q, m = int(rng.integers(0, 3)), int(rng.integers(0, 8))
            A_eq = rng.normal(size=(q, r)) @ rng.normal(size=(r, n))
            A_le = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            cone = trial % 2 == 0
            b_eq = np.zeros(q) if cone else A_eq @ rng.normal(size=n)
            b_le = np.zeros(m) if cone else rng.normal(size=m)
            P = Polyhedron.make(n, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le)
            out = self.assert_same(P, monkeypatch)
            if isinstance(out, tuple):
                seen.add("empty")
            else:
                seen.add(("cone" if cone else "polyhedron", "quotient" if out[2] else "pointed"))
        assert seen == {"empty", ("cone", "pointed"), ("cone", "quotient"),
                        ("polyhedron", "pointed"), ("polyhedron", "quotient")}

    def test_one_variable_without_equality_rows(self, monkeypatch):
        # the ray search's basis has no rows: its kernel is the whole line
        assert [d.tolist() for d in numeric._kernel_lines(np.zeros((1, 0, 1)), TOL)] == [[1.0]]
        for A_le, b_le in (([[1.0]], [0.0]), ([[-2.0]], [1.0]),
                           ([[1.0], [-1.0]], [1.0, 0.0])):
            P = Polyhedron.make(1, A_le=np.reshape(A_le, (-1, 1)), b_le=b_le)
            self.assert_same(P, monkeypatch)
        # with no row at all the line is the lineality space, not two rays
        vertices, rays, lineality = self.assert_same(Polyhedron.make(1), monkeypatch)
        assert (vertices, rays, len(lineality)) == ([((1,), np.zeros(1).tobytes())], [], 1)

    def test_size_zero_combinations(self, monkeypatch):
        # points and lines: the ray search of the cone over each runs on bases
        # with no inequality row; the lines are searched in the quotient of
        # their lineality
        for P in (Polyhedron.make(2, A_eq=np.eye(2), b_eq=[1.0, -0.0]),
                  Polyhedron.make(2, A_eq=np.eye(2), b_eq=[1.0, 2.0],
                                  A_le=[[1.0, 1.0]], b_le=[5.0]),
                  Polyhedron.make(2, A_eq=[[1.0, -1.0]], b_eq=[0.0]),
                  Polyhedron.make(3, A_eq=[[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]],
                                  b_eq=[0.0, 3.0])):
            self.assert_same(P, monkeypatch)

    def test_edge_cases(self, monkeypatch):
        # dimension 0, zero rows with b > 0 and b < 0, a half-line, a strip
        # with lineality, an empty polyhedron and a single point
        e = np.eye(2)
        cases = [
            (Polyhedron.make(0, A_le=np.zeros((1, 0)), b_le=[1.0]), [np.zeros(0)], [], 0),
            (Polyhedron.make(0, A_le=np.zeros((1, 0)), b_le=[-1.0]), None, None, None),
            (Polyhedron.make(2, A_le=[[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], b_le=[2.0, 0.0, 0.0]),
             [np.zeros(2)], [e[0], e[1]], 0),
            (Polyhedron.make(2, A_le=[[0.0, 0.0], [-1.0, 0.0]], b_le=[-2.0, 0.0]),
             None, None, None),
            (Polyhedron.make(1, A_le=[[-3.0]], b_le=[-6.0]), [[2.0]], [[1.0]], 0),
            (Polyhedron.make(2, A_le=[[1.0, 0.0], [-1.0, 0.0]], b_le=[1.0, 0.0]),
             [e[0], np.zeros(2)], [], 1),
            (Polyhedron.make(1, A_le=[[1.0], [-1.0]], b_le=[-1.0, -1.0]), None, None, None),
            (Polyhedron.make(2, A_eq=2.0 * e, b_eq=[4.0, -6.0]), [[2.0, -3.0]], [], 0),
        ]
        for P, vertices, rays, lin in cases:
            out = self.assert_same(P, monkeypatch)
            if vertices is None:
                assert out == ("ValueError", "infeasible polyhedron")
                continue
            gen = numeric.enumerate_generators(P, TOL)
            for part, want in ((gen.vertices, vertices), (gen.rays, rays)):
                assert sorted(np.round(part, 12).tolist()) == sorted(np.asarray(want).tolist())
            assert len(gen.lineality) == lin

    def test_lineality_quotient(self, monkeypatch):
        # x3 is free in both: the searches run in the quotient of the line
        for b_le in ([0.0, 0.0], [1.0, -0.5]):
            P = Polyhedron.make(3, A_le=[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], b_le=b_le)
            vertices, rays, lineality = self.assert_same(P, monkeypatch)
            assert len(vertices) == 1 and len(rays) == 2 and len(lineality) == 1

    def test_cones_wide_pieces(self, monkeypatch):
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        ctx = PointContext(load_problem(str(path)), np.zeros(8), TOL)
        pieces = cones.linearization_cone(ctx) + cones.critical_cone(ctx)
        assert len(pieces) == 128
        for piece in pieces:
            self.assert_same(piece.polyhedron(), monkeypatch)


class TestStackedSearch:
    """enumerate_generators over a stack of same-shape polyhedra against each
    one searched alone: the same generators bit for bit, or the same error,
    piece by piece."""

    @staticmethod
    def assert_stack_matches_lone(Ps):
        def exact(out):
            if isinstance(out, Exception):
                return type(out).__name__, str(out)
            return [[(v.shape, v.tobytes()) for v in part]
                    for part in (out.vertices, out.rays, out.lineality)]

        got = [exact(out) for out in numeric.enumerate_generators(Ps, TOL)]
        want = [_generators_bytes(P) for P in Ps]
        assert got == want
        return want

    @staticmethod
    def random_stack(rng, n, q, m, size, cone):
        """size polyhedra of one shape whose equality and lineality ranks differ:
        some zero or duplicated equality rows, some low-rank rows."""
        Ps = []
        for k in range(size):
            r = int(rng.integers(1, n + 1)) if k % 3 == 2 else n
            A_eq = rng.normal(size=(q, r)) @ rng.normal(size=(r, n))
            A_le = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            if q and k % 4 == 1:
                A_eq[int(rng.integers(q))] = 0.0
            if q > 1 and k % 4 == 3:
                A_eq[1] = A_eq[0]
            b_eq = np.zeros(q) if cone else A_eq @ rng.normal(size=n)
            b_le = np.zeros(m) if cone else rng.normal(size=m)
            Ps.append(Polyhedron.make(n, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le))
        return Ps

    @pytest.mark.parametrize("block", [numeric._BASES_PER_BATCH, 3])
    def test_random_stacks(self, monkeypatch, block):
        # block 3 makes batches that end inside a piece and span pieces
        monkeypatch.setattr(numeric, "_BASES_PER_BATCH", block)
        rng = np.random.default_rng(29)
        seen = set()
        for trial in range(120):
            n, q, m = int(rng.integers(1, 6)), int(rng.integers(0, 4)), int(rng.integers(0, 8))
            Ps = self.random_stack(rng, n, q, m, int(rng.integers(1, 9)), trial % 2 == 0)
            if trial % 5 == 4:  # cones and polyhedra in one stack
                Ps += self.random_stack(rng, n, q, m, 3, trial % 2 == 1)
            self.assert_stack_matches_lone(Ps)
            eq = [rank(P.A_eq) if q else 0 for P in Ps]
            seen.add("ranks differ" if len(set(eq)) > 1 else "one rank")
        assert seen == {"ranks differ", "one rank"}

    def test_edge_cases(self):
        # no equality row, no inequality row, one variable, and no row at all
        rng = np.random.default_rng(31)
        for n, q, m in ((3, 0, 5), (3, 2, 0), (1, 1, 3), (1, 0, 2), (1, 0, 0), (2, 0, 0)):
            for cone in (True, False):
                self.assert_stack_matches_lone(self.random_stack(rng, n, q, m, 6, cone))

    def test_only_one_rank_group_passes_the_basis_cap(self, monkeypatch):
        # n = 4, six inequality rows: a piece of equality rank 0 has C(6, 3) = 20
        # candidate bases, of rank 1 C(6, 2) = 15, so a cap of 15 fails the first
        # group alone, and each piece keeps its own result
        monkeypatch.setattr(numeric, "_MAX_BASES", 15)
        rng = np.random.default_rng(37)
        Ps = [Polyhedron.make(4, A_eq=rng.normal(size=(1, 4)) * (k % 2),
                              A_le=rng.normal(size=(6, 4))) for k in range(6)]
        want = self.assert_stack_matches_lone(Ps)
        assert [w == ("SizeCapError", "too many candidate active sets") for w in want] \
            == [True, False] * 3


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


class TestSanitize:
    def test_non_finite_floats_become_null(self):
        @dataclass
        class Inner:
            label: str
            weight: float

        @dataclass
        class Outer:
            values: np.ndarray
            scale: np.float64
            bound: float
            inner: Inner

        nested = Outer(np.array([1.0, -0.5]), np.float64(2.5), float("inf"),
                       Inner("a", np.float64(0.125)))
        got = sanitize({"a": float("nan"), "b": [np.float64(np.inf), -np.inf],
                        "c": np.array([1.5, np.nan]), "d": 2, "e": np.float64(0.25),
                        "f": nested})
        assert got == {"a": None, "b": [None, None], "c": [1.5, None], "d": 2, "e": 0.25,
                       "f": {"values": [1.0, -0.5], "scale": 2.5, "bound": None,
                             "inner": {"label": "a", "weight": 0.125}}}
        # a dataclass becomes a plain dict of its fields in field order
        assert type(got["f"]) is dict and type(got["f"]["scale"]) is float
        assert json.dumps(got["f"], allow_nan=False) == (
            '{"values": [1.0, -0.5], "scale": 2.5, "bound": null, '
            '"inner": {"label": "a", "weight": 0.125}}')
        json.dumps(got, allow_nan=False)

    def test_only_multipliers_define_to_json(self):
        # every other result class is coerced by sanitize from its fields;
        # Multipliers writes its field lam under the JSON key "lambda"
        src = Path(numeric.__file__).parent
        owners = sorted(
            f"{path.stem}.{node.name}"
            for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == "to_json"
                    for item in node.body))
        assert owners == ["stationarity.Multipliers"]
