from pathlib import Path

import numpy as np
import pytest

import basiswalk
import rowwalk
from conftest import CORPUS_POINTS, in_cone_union, random_cut_piece

from mpsckit import cones, cq, numeric, report
from mpsckit.cones import AXIS_A, AXIS_B, CROSS, ORIGIN, ConePiece, PointContext
from mpsckit.errors import InfeasiblePointError, SizeCapError
from mpsckit.numeric import Tolerances, enumerate_generators
from mpsckit.problem import load_problem

TOL = Tolerances()


class TestCrossCones:
    def test_a_zero_b_nonzero(self):
        k = cones.cross_cones(0.0, 5.0, TOL)
        assert k.case == "a_zero_b_nonzero"
        assert (k.tangent, k.frechet_normal, k.limiting_normal) == (AXIS_B, AXIS_A, AXIS_A)

    def test_both_zero(self):
        k = cones.cross_cones(0.0, 0.0, TOL)
        assert k.case == "both_zero"
        assert (k.tangent, k.frechet_normal, k.limiting_normal) == (CROSS, ORIGIN, CROSS)

    def test_a_nonzero_b_zero(self):
        k = cones.cross_cones(3.0, 0.0, TOL)
        assert k.tangent == AXIS_A

    def test_off_set_rejected(self):
        with pytest.raises(InfeasiblePointError):
            cones.cross_cones(1.0, 1.0, TOL)


class TestLinearizationCone:
    def test_parabola_sheet_union_is_halfspace(self, corpus):
        L = cones.linearization_cone(PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert len(L.pieces) == 2
        rng = np.random.default_rng(0)
        for d in rng.normal(size=(200, 3)):
            assert in_cone_union(L, d, TOL) == (d[0] >= -1e-12)

    def test_diagonal2d_pieces_are_origin(self, corpus):
        L = cones.linearization_cone(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        for piece in L.pieces:
            assert piece.lineality_basis(TOL).shape[1] == 0
            assert piece.is_subspace(TOL)
        assert not in_cone_union(L, [1.0, 0.0], TOL)
        assert in_cone_union(L, [0.0, 0.0], TOL)

    def test_no_constraints_full_space(self):
        P = load_problem("vars x1 x2\nmin x1\n", from_path=False)
        L = cones.linearization_cone(PointContext(P, [0.3, -0.4], TOL))
        assert len(L.pieces) == 1
        assert in_cone_union(L, [17.0, -5.0], TOL)


class TestIsOrigin:
    def test_agrees_with_the_generators_on_random_pieces(self):
        # read off a fresh enumeration: a row is an implicit equality when it
        # vanishes on every generator, a piece is a subspace when it has no
        # extreme ray and the origin when it has no lineality either; the
        # pieces span pointed cones, subspaces, inequality rows that only
        # restate equalities and opposite row pairs, each row scaled by 1e-9
        # to 1e6, and no decision may depend on the scales
        rng = np.random.default_rng(19)
        seen = set()
        for n in (1, 2, 3, 4):
            for _ in range(40):
                A_eq = rng.normal(size=(rng.integers(0, n + 1), n))
                kind = rng.uniform()
                if A_eq.shape[0] and kind < 0.3:
                    A_le = rng.normal(size=(2, A_eq.shape[0])) @ A_eq
                elif kind < 0.6:
                    r = rng.normal(size=(1, n))
                    A_le = np.vstack([r, -r, rng.normal(size=(rng.integers(0, n + 1), n))])
                else:
                    A_le = rng.normal(size=(rng.integers(0, 2 * n + 2), n))
                A_eq *= 10.0 ** rng.uniform(-9, 6, size=(len(A_eq), 1))
                A_le *= 10.0 ** rng.uniform(-9, 6, size=(len(A_le), 1))
                piece = ConePiece(A_eq=A_eq, A_le=A_le)
                gens = enumerate_generators(piece.polyhedron(), TOL)
                G = np.reshape(gens.all_rays(), (-1, n))
                unit = A_le / np.linalg.norm(A_le, axis=1, keepdims=True)
                vanish = tuple(i for i in range(len(A_le)) if np.all(np.abs(G @ unit[i]) <= 1e-8))
                assert piece.implicit_equalities(TOL) == vanish, (A_eq, A_le)
                assert piece.is_subspace(TOL) == (not gens.rays), (A_eq, A_le)
                expected = not gens.lineality and not gens.rays
                assert piece.is_origin(TOL) == expected, (A_eq, A_le)
                seen.add((piece.is_subspace(TOL), bool(vanish), expected))
        assert {s[:2] for s in seen} == {(True, True), (True, False), (False, True), (False, False)}
        assert {s[2] for s in seen} == {True, False}

    def test_a_thin_row_bounds_a_half_line(self):
        # 1e-11 * x <= 0 is the half-line d <= 0, not the origin
        P = load_problem("vars x\nmin -x^2\nineq 1e-11*x\n", from_path=False)
        piece = PointContext(P, [0.0], TOL).linearization.pieces[0]
        assert piece.implicit_equalities(TOL) == ()
        assert not piece.is_subspace(TOL) and not piece.is_origin(TOL)


class TestCriticalCone:
    def test_pinch2d_is_horizontal_axis(self, corpus):
        C = cones.critical_cone(PointContext(corpus["pinch2d"], [0.0, 0.0], TOL))
        assert in_cone_union(C, [1.0, 0.0], TOL)
        assert in_cone_union(C, [-1.0, 0.0], TOL)
        assert not in_cone_union(C, [0.0, 1.0], TOL)
        assert not in_cone_union(C, [1.0, 0.5], TOL)

    def test_diagonal2d_is_origin(self, corpus):
        C = cones.critical_cone(PointContext(corpus["diagonal2d"], [0.0, 0.0], TOL))
        assert not in_cone_union(C, [1.0, 0.0], TOL)
        assert not in_cone_union(C, [1.0, 1.0], TOL)
        assert in_cone_union(C, [0.0, 0.0], TOL)

    def test_unconstrained_stationary_full_space(self):
        P = load_problem("vars x1 x2\nmin x1^2 + x2^2\n", from_path=False)
        C = cones.critical_cone(PointContext(P, [0.0, 0.0], TOL))
        assert in_cone_union(C, [3.0, -4.0], TOL)


class TestCutGenerators:
    """A cut piece's generators, cut from its parent's by one
    double-description step, against the enumeration of the cut piece
    itself, batched and by the ray walk of tests/basiswalk.py: the same
    rays as sets, the same lineality and the origin as the one vertex."""

    @staticmethod
    def assert_matches_enumeration(piece, monkeypatch):
        got = piece.generators(TOL)
        n = piece.dim
        for walk in (False, True):
            with monkeypatch.context() as m:
                if walk:
                    m.setattr(numeric, "_extreme_rays", basiswalk.extreme_rays)
                ref = enumerate_generators(piece.polyhedron(), TOL)
            G, R = np.reshape(got.rays, (-1, n)), np.reshape(ref.rays, (-1, n))
            assert len(G) == len(R), (piece, G, R)
            assert all(np.min(np.linalg.norm(R - g, axis=1)) <= 1e-7 for g in G), (piece, G, R)
            assert np.array_equal(got.lineality, ref.lineality)
            assert [v.tolist() for v in got.vertices] == [[0.0] * n]
        return got

    def test_random_pieces(self, monkeypatch):
        rng = np.random.default_rng(23)
        seen = set()
        for trial in range(400):
            piece, kind = random_cut_piece(rng, trial)
            got = self.assert_matches_enumeration(piece, monkeypatch)
            parent = piece.parent.generators(TOL)
            n, a = piece.dim, piece.A_le[-1]
            R = np.reshape(parent.rays, (-1, n))
            s = R @ cones.unit_rows(a[None, :])[0]
            k = n - len(parent.lineality)
            if len(got.lineality) < len(parent.lineality):
                seen.add("split" if len(R) else "split, no ray")
            elif k >= 3 and (s > 1e-9).any() and (s < -1e-9).any():
                pairs = (s > 1e-9).sum() * (s < -1e-9).sum()
                seen.add("adjacency test" if pairs <= len(got.rays) - (s <= 1e-9).sum()
                         else "adjacency test rejects a pair")
            if len(R) and (s > 1e-9).all():
                seen.add("every ray cut")
            seen.add(kind)
        assert seen == {"random", "zero", "parallel", "opposite", "all cut", "split",
                        "split, no ray", "adjacency test", "adjacency test rejects a pair",
                        "every ray cut"}

    def test_cones_wide_critical_pieces(self, monkeypatch):
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        pieces = PointContext(load_problem(str(path)), np.zeros(8), TOL).critical.pieces
        assert len(pieces) == 64
        for piece in pieces:
            assert piece.parent is not None
            self.assert_matches_enumeration(piece, monkeypatch)


class TestStackedPieces:
    """A union's pieces are filled by one search stacked over them: each piece's
    generators and lineality basis against the piece alone, bit for bit."""

    @staticmethod
    def contexts(corpus):
        for name, P in corpus.items():
            yield PointContext(P, CORPUS_POINTS[name], TOL)
        path = Path(__file__).resolve().parent / "data" / "cones_wide_1005_5.mpsc"
        yield PointContext(load_problem(str(path)), np.zeros(8), TOL)

    def test_each_piece_gets_its_own_search_bit_for_bit(self, corpus, monkeypatch):
        def exact(gen):
            return [[v.tobytes() for v in part] for part in (gen.vertices, gen.rays, gen.lineality)]

        searches = []
        monkeypatch.setattr(cones, "enumerate_generators", lambda Ps, tol: searches.append(
            len(Ps)) or enumerate_generators(Ps, tol))
        for ctx in self.contexts(corpus):
            searches.clear()
            lin, crit = ctx.linearization.pieces, ctx.critical.pieces
            crit[-1].generators(TOL)  # searches every uncut piece, and cuts one
            assert searches == [len(lin)]
            assert all(("gen", TOL) in p._cache for p in lin)
            assert all(("lin", TOL) in p._cache for p in crit)
            for piece in lin + crit:
                rows = cones.unit_rows(np.vstack([piece.A_eq, piece.A_le]))
                want = numeric.nullspace(rows, TOL)
                assert piece.lineality_basis(TOL).tobytes() == want.tobytes()
            for piece, cut in zip(lin, crit):
                alone = enumerate_generators(piece.polyhedron(), TOL)
                assert exact(piece.generators(TOL)) == exact(alone)
                rows = cones.unit_rows(np.vstack([cut.A_eq, cut.A_le]))
                want = numeric.cut_generators(alone, rows[:-1], rows[-1],
                                              numeric.nullspace(rows, TOL))
                assert exact(cut.generators(TOL)) == exact(want)

    def test_a_failed_search_stays_with_its_piece(self, monkeypatch):
        # pieces of equality rank 0 have C(6, 3) = 20 candidate bases and those
        # of rank 1 C(6, 2) = 15: under a cap of 15 only the first fail, each on
        # every access, and the others keep their generators
        monkeypatch.setattr(numeric, "_MAX_BASES", 15)
        rng = np.random.default_rng(41)
        union = cones.ConeUnion([ConePiece(A_eq=np.array([[1.0, -1.0, 0.0, 0.0]]) * (k % 2),
                                           A_le=-np.abs(rng.normal(size=(6, 4))))
                                 for k in range(4)])
        assert union.pieces[1].generators(TOL).rays
        for k, piece in enumerate(union.pieces):
            for _ in range(2):
                if k % 2:
                    assert np.array_equal(piece.generators(TOL).rays,
                                          enumerate_generators(piece.polyhedron(), TOL).rays)
                else:
                    with pytest.raises(SizeCapError, match="too many candidate active sets"):
                        piece.generators(TOL)


class TestCriticalSubspace:
    def test_parabola_sheet_spans_e3(self, corpus):
        ctx = PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL)
        B = ctx.critical_subspace.lineality_basis(TOL)
        assert B.shape == (3, 1)
        assert np.allclose(np.abs(B[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_pinch2d_trivial(self, corpus):
        B = PointContext(corpus["pinch2d"], [0.0, 0.0], TOL).critical_subspace.lineality_basis(TOL)
        assert B.shape == (2, 0)

    def test_no_active_constraints_full(self):
        P = load_problem("vars x1 x2\nmin x1\nineq x1 - 1\n", from_path=False)
        B = PointContext(P, [0.0, 0.0], TOL).critical_subspace.lineality_basis(TOL)
        assert B.shape == (2, 2)

    def test_subspace_inside_every_linearization_piece(self, corpus, tol):
        # the unconditional inclusion is into the linearization cone; the
        # critical cone only contains the subspace at S-stationary points
        from conftest import CORPUS_POINTS
        for name, P in corpus.items():
            x = np.array(CORPUS_POINTS[name])
            ctx = PointContext(P, x, tol)
            B = ctx.critical_subspace.lineality_basis(tol)
            L = cones.linearization_cone(ctx)
            for j in range(B.shape[1]):
                for piece in L.pieces:
                    slack = tol.tau_feas * 2.0
                    assert piece.contains(B[:, j], slack), name
                    assert piece.contains(-B[:, j], slack), name


class TestExplicitMembership:
    def test_negative_axis_outside_halfspace_union(self, corpus):
        L = cones.linearization_cone(PointContext(corpus["parabola_sheet3d"], [0.0, 0.0, 0.0], TOL))
        assert not in_cone_union(L, [-1.0, 0.0, 0.0], TOL)
        assert in_cone_union(L, [0.0, 0.0, 0.0], TOL)


class TestStackedMembership:
    """The stacked violation against the row walk (tests/rowwalk.py)."""

    @staticmethod
    def random_pieces(rng, n):
        # every shape pairing of empty and nonempty A_eq / A_le, with zero rows
        for m_eq, m_le in ((0, 0), (0, 3), (2, 0), (1, 2), (3, 4)):
            A_eq, A_le = rng.normal(size=(m_eq, n)), rng.normal(size=(m_le, n))
            A_eq[:1] = 0.0
            A_le[-1:] = 0.0
            yield ConePiece(A_eq=A_eq, A_le=A_le)

    def test_violation_matches_the_row_walk_on_random_stacks(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            for piece in self.random_pieces(rng, n):
                D = rng.normal(size=(64, n))
                D[0] = 0.0
                ref = np.array([rowwalk.violation(piece, d) for d in D])
                v = piece.violation(D)
                assert v.shape == (64,) and v[0] == 0.0
                assert np.allclose(v, ref, rtol=1e-12, atol=1e-15)
                assert piece.violation(D[1]) == pytest.approx(ref[1], rel=1e-12, abs=1e-15)
                assert np.array_equal(piece.contains(D, 0.5), ref <= 0.5)

    def test_decisions_match_the_row_walk_on_corpus_pieces(self, corpus):
        rng = np.random.default_rng(7)
        slack = 2.0 * TOL.tau_feas
        for name, P in corpus.items():
            ctx = PointContext(P, CORPUS_POINTS[name], TOL)
            acq = [cq.acq_directions(p, k, TOL) for k, p in enumerate(ctx.linearization.pieces)]
            for cone in (ctx.linearization, ctx.critical):
                gens = [r for p in cone.pieces for r in p.generators(TOL).all_rays()]
                D = np.vstack([np.zeros((1, P.n)), *acq,
                               rng.normal(size=(256, P.n)), np.reshape(gens, (-1, P.n))])
                for piece in cone.pieces:
                    assert piece.contains(D, slack).tolist() \
                        == [rowwalk.violation(piece, d) <= slack for d in D], name


class TestPointContext:
    def test_rows_match_the_kernel(self, corpus):
        P = corpus["wedge3d"]
        ctx = PointContext(P, [0.1, -0.2, 0.3], TOL)
        items = [("H", 0), ("g", 2), ("f", 0), ("g", 2)]
        assert np.array_equal(ctx.rows(items), P.jacobian([0.1, -0.2, 0.3], items))
        assert np.array_equal(ctx.grad("g", 2), P.jacobian([0.1, -0.2, 0.3], [("g", 2)])[0])
        assert ctx.rows([]).shape == (0, 3)

    def test_undefined_gradient_of_an_unused_item_is_not_evaluated(self):
        # sqrt(x1) - 5 is inactive at the origin and its gradient is undefined
        # there: only two CQ checkers fail, PSOQN, which uses every inequality
        # gradient, and ACQ, which steps along L's lineality -e1 to x1 < 0
        P = load_problem("vars x1 x2\nmin x1 + x2\nineq -x2\nineq sqrt(x1) - 5\n"
                         "switch x1 | x2\n", from_path=False)
        rep = report.analyze(P, [0.0, 0.0], TOL)
        assert [e["component"] for e in rep["errors"]] == ["cq.ACQ", "cq.PSOQN"]
        assert set(rep["verdicts"]["stationarity"]) == {"W", "M", "S", "normal_cone_oracle"}

    def test_one_context_per_analysis(self, corpus, monkeypatch):
        # every component of an analysis reads the index sets of one context
        calls = []
        index_sets = cones.index_sets

        def counting(values, tol):
            calls.append(1)
            return index_sets(values, tol)

        monkeypatch.setattr(cones, "index_sets", counting)
        for name, P in corpus.items():
            calls.clear()
            report.analyze(P, CORPUS_POINTS[name], TOL, with_penalty=True)
            assert len(calls) == 1, name
