import ast
import json
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
            for piece in cone.pieces:
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

    def test_dimension_zero_keeps_its_rows(self):
        # a zero-width equality row still carries its right-hand side
        P = Polyhedron.make(0, A_eq=np.zeros((1, 0)), b_eq=[1.0])
        assert P.A_eq.shape == (1, 0) and not P.contains(np.zeros(0), TOL.tau_feas)
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
        # emptiness comes from the vertex search: a polyhedron is reported
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
            assert all(P.contains(v, 1e-6) for v in gen.vertices)
            seen.add("nonempty")
        assert seen == {"empty", "nonempty"}

    def test_cones_make_no_lp_call(self, capsys, monkeypatch):
        # cone pieces are decided by the vertex search alone
        calls = []
        lp_solve = numeric.lp_solve
        monkeypatch.setattr(numeric, "lp_solve",
                            lambda *args: calls.append(args) or lp_solve(*args))
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8)]) == 0
        capsys.readouterr()
        assert calls == []

    def test_cones_work_counts(self, capsys, monkeypatch):
        # the searches on cones_wide_1005_5's 64 linearization pieces (8
        # inequality rows each): per enumerate_generators call one rank_tol
        # (the equality rows) and the two nullspace calls of the lineality
        # split; a cone's vertex is the origin with no search (no
        # rank_tol_batch, no lstsq), and the ray search cuts its bases in
        # _kernel_lines' own SVD (no rank_tol_batch, no nullspace); counted
        # by (callee, caller).  The 64 critical pieces (9 rows) make no
        # search: each is cut from its parent's generators
        per_call, active, lstsq_calls, searched, cuts = [], [], [], [], []

        def counted(name, f):
            def wrapped(*args, **kw):
                if active:
                    active[-1][name, sys._getframe(1).f_code.co_name] += 1
                return f(*args, **kw)
            return wrapped

        def enumerate_generators(P, tol):
            searched.append(P.A_le.shape[0])
            per_call.append(Counter())
            active.append(per_call[-1])
            try:
                return numeric.enumerate_generators(P, tol)
            finally:
                active.pop()

        for name in ("rank_tol", "rank_tol_batch", "nullspace"):
            monkeypatch.setattr(numeric, name, counted(name, getattr(numeric, name)))
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", counted(
            "lstsq", lambda *a, **kw: lstsq_calls.append(1) or lstsq(*a, **kw)))
        monkeypatch.setattr(cones, "enumerate_generators", enumerate_generators)
        monkeypatch.setattr(cones, "cut_generators",
                            lambda *args: cuts.append(1) or numeric.cut_generators(*args))
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        assert cli.main(["cones", str(path), "--point", ",".join(["0"] * 8)]) == 0
        capsys.readouterr()
        assert searched == [8] * 64 and len(cuts) == 64 and lstsq_calls == []
        assert all(c == per_call[0] for c in per_call)
        assert per_call[0] == Counter({("rank_tol", "_enumerate_pointed"): 1,
                                       ("nullspace", "enumerate_generators"): 2})

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
        assert all(P.contains(v, TOL.tau_feas) for v in gen.vertices)
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
        # {A x <= c b}: the vertex search decides at the polyhedron's own
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


def _generators_bytes(P):
    """enumerate_generators' result as exact bytes, or its error; a cone's
    vertex, the origin, as values, since the walk's lstsq can return -0.0."""
    def exact(part):
        return [(v.shape, v.tobytes()) for v in part]

    try:
        gen = numeric.enumerate_generators(P, TOL)
    except (ValueError, SizeCapError) as e:
        return type(e).__name__, str(e)
    cone = not (P.b_eq.any() or P.b_le.any())
    vertices = [v.tolist() for v in gen.vertices] if cone else exact(gen.vertices)
    return [vertices, exact(gen.rays), exact(gen.lineality)]


class TestBatchedSearches:
    """The searches of _enumerate_pointed against the basis walk in
    tests/basiswalk.py: the same generators in the same order, bit for bit
    (signed zeros included) but for a cone's vertex, which is compared by
    value, or the same error."""

    def assert_same(self, P, monkeypatch):
        fast = _generators_bytes(P)
        with monkeypatch.context() as m:
            m.setattr(numeric, "_enumerate_pointed", basiswalk.enumerate_pointed)
            walk = _generators_bytes(P)
        assert fast == walk
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
        assert (vertices, rays, len(lineality)) == ([[0.0]], [], 1)

    def test_size_zero_combinations(self, monkeypatch):
        # k = n - rank_eq = 0 in the vertex search, no inequality rows in both;
        # the last two are lines, searched in the quotient of their lineality
        for P in (Polyhedron.make(2, A_eq=np.eye(2), b_eq=[1.0, -0.0]),
                  Polyhedron.make(2, A_eq=np.eye(2), b_eq=[1.0, 2.0],
                                  A_le=[[1.0, 1.0]], b_le=[5.0]),
                  Polyhedron.make(2, A_eq=[[1.0, -1.0]], b_eq=[0.0]),
                  Polyhedron.make(3, A_eq=[[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]],
                                  b_eq=[0.0, 3.0])):
            self.assert_same(P, monkeypatch)

    def test_lineality_quotient(self, monkeypatch):
        # x3 is free in both: the searches run in the quotient of the line
        for b_le in ([0.0, 0.0], [1.0, -0.5]):
            P = Polyhedron.make(3, A_le=[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], b_le=b_le)
            vertices, rays, lineality = self.assert_same(P, monkeypatch)
            assert len(vertices) == 1 and len(rays) == 2 and len(lineality) == 1

    def test_cones_wide_pieces(self, monkeypatch):
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        ctx = PointContext(load_problem(str(path)), np.zeros(8), TOL)
        pieces = cones.linearization_cone(ctx).pieces + cones.critical_cone(ctx).pieces
        assert len(pieces) == 128
        for piece in pieces:
            self.assert_same(piece.polyhedron(), monkeypatch)


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
