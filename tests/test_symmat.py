import numpy as np
import pytest

from domcone.errors import DimensionMismatchError, InvalidMatrixError
from domcone.sampling import goe_matrix, make_rng, random_nsd, random_psd
from domcone.symmat import (
    InvertibleMap,
    SymMatrix,
    congruence,
    eigh_sym,
    eigvals_sym,
    inf_norm,
    inner,
)


class TestConstruction:
    def test_symmetrizes(self):
        x = SymMatrix([[0.0, 5.0], [0.0, 0.0]])
        assert np.allclose(x.a, [[0.0, 2.5], [2.5, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrixError):
            SymMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize("n", [1, 17])
    def test_rejects_dimension(self, n):
        with pytest.raises(InvalidMatrixError):
            SymMatrix(np.eye(n))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_entries_read_only(self):
        x = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            x.entries[0, 0] = 5.0

    def test_wire_round_trip(self):
        x = SymMatrix([[1.0, 0.25], [0.25, -3.0]])
        assert np.array_equal(SymMatrix.from_dict(x.to_dict()).a, x.a)

    def test_wire_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrixError, match="asymmetric"):
            SymMatrix.from_dict({"n": 2, "entries": [[0.0, 1.0], [0.0, 0.0]]})

    def test_wire_rejects_shape_mismatch(self):
        with pytest.raises(InvalidMatrixError):
            SymMatrix.from_dict({"n": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]})


class TestEigvals:
    def test_diagonal(self):
        assert np.allclose(eigvals_sym(SymMatrix.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])

    def test_offdiagonal_pair(self):
        assert np.allclose(eigvals_sym(SymMatrix([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])

    def test_2x2_against_quadratic_formula(self):
        # independent oracle: roots of t^2 - tr t + det
        rng = make_rng(101)
        for _ in range(200):
            x = goe_matrix(rng, 2, radius=float(rng.uniform(0.1, 5.0)))
            tr = np.trace(x.a)
            det = np.linalg.det(x.a)
            disc = np.sqrt(max(0.0, tr * tr - 4.0 * det))
            expected = np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])
            assert np.allclose(eigvals_sym(x), expected, atol=1e-10)

    def test_trace_and_det_identities(self):
        rng = make_rng(102)
        for i in range(1000):
            n = 2 + i % 5
            x = goe_matrix(rng, n, radius=float(rng.uniform(0.2, 3.0)))
            ev = eigvals_sym(x)
            assert abs(ev.sum() - np.trace(x.a)) <= 1e-10 * (1.0 + inf_norm(x))
            if n <= 4:
                det = np.linalg.det(x.a)
                assert np.prod(ev) == pytest.approx(det, rel=1e-8, abs=1e-12)

    def test_ascending_order(self):
        rng = make_rng(103)
        for _ in range(50):
            ev = eigvals_sym(goe_matrix(rng, 6))
            assert np.all(np.diff(ev) >= -1e-12)

    def test_full_decomposition_reconstructs(self):
        rng = make_rng(104)
        for _ in range(100):
            x = goe_matrix(rng, 5, radius=2.0)
            vals, vecs = eigh_sym(x)
            resid = np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - x.a))
            assert resid <= 1e-9 * (1.0 + inf_norm(x))

    def test_weyl_monotonicity(self):
        rng = make_rng(105)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            x = goe_matrix(rng, n)
            neg = random_nsd(rng, n, scale=0.5)
            assert np.all(eigvals_sym(x + neg) <= eigvals_sym(x) + 1e-10)


class TestInner:
    def test_identity_gives_trace(self):
        assert inner(SymMatrix.identity(3), SymMatrix.diag([1.0, 2.0, 3.0])) == pytest.approx(6.0)

    def test_zero(self):
        rng = make_rng(106)
        assert inner(goe_matrix(rng, 4), SymMatrix.zeros(4)) == 0.0

    def test_rank_one_projector_picks_entry(self):
        rng = make_rng(107)
        x = goe_matrix(rng, 3)
        e11 = SymMatrix.diag([1.0, 0.0, 0.0])
        assert inner(e11, x) == pytest.approx(x.a[0, 0])

    def test_symmetric_bilinear(self):
        rng = make_rng(108)
        for _ in range(100):
            a, x, y = (goe_matrix(rng, 3) for _ in range(3))
            assert inner(a, x) == pytest.approx(inner(x, a), rel=1e-12)
            c = float(rng.normal())
            lhs = inner(a, SymMatrix(x.a * c + y.a))
            assert lhs == pytest.approx(c * inner(a, x) + inner(a, y), rel=1e-10, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(SymMatrix.identity(2), SymMatrix.identity(3))


def _power_iteration_abs_max(a, iters=2000):
    # independent oracle for the spectral norm: power iteration on A^2
    v = np.ones(a.shape[0]) / np.sqrt(a.shape[0])
    for _ in range(iters):
        w = a @ (a @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return float(np.sqrt(v @ (a @ (a @ v))))


class TestNorms:
    def test_inf_norm_examples(self):
        assert inf_norm(SymMatrix.diag([-3.0, 1.0])) == pytest.approx(3.0)
        assert inf_norm(SymMatrix.identity(4)) == pytest.approx(1.0)

    def test_inf_norm_against_power_iteration(self):
        rng = make_rng(109)
        for _ in range(25):
            x = goe_matrix(rng, 4, radius=float(rng.uniform(0.5, 4.0)))
            assert inf_norm(x) == pytest.approx(_power_iteration_abs_max(x.a), rel=1e-6)

    def test_norm_axioms(self):
        rng = make_rng(112)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            x = goe_matrix(rng, n, radius=float(rng.uniform(0.1, 3.0)))
            y = goe_matrix(rng, n, radius=float(rng.uniform(0.1, 3.0)))
            assert inf_norm(x + y) <= inf_norm(x) + inf_norm(y) + 1e-10
            c = float(rng.normal())
            assert inf_norm(x * c) == pytest.approx(abs(c) * inf_norm(x), rel=1e-10, abs=1e-14)

    def test_inf_norm_zero_iff_zero(self):
        assert inf_norm(SymMatrix.zeros(3)) == 0.0


class TestCongruence:
    def test_identity(self):
        rng = make_rng(114)
        x = goe_matrix(rng, 3)
        assert np.allclose(congruence(x, InvertibleMap.identity(3)).a, x.a)

    def test_of_identity_is_btb(self):
        rng = make_rng(115)
        b = InvertibleMap(rng.normal(size=(3, 3)) + 3 * np.eye(3))
        got = congruence(SymMatrix.identity(3), b)
        assert np.allclose(got.a, b.B.T @ b.B)

    def test_signature_preserved(self):
        # Sylvester oracle: count eigenvalue signs on both sides
        rng = make_rng(116)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 6))
            x = goe_matrix(rng, n)
            ev = eigvals_sym(x)
            if np.min(np.abs(ev)) < 1e-6:
                continue
            b = InvertibleMap(rng.normal(size=(n, n)) + 2 * np.eye(n))
            ev2 = eigvals_sym(congruence(x, b))
            assert np.sum(ev > 0) == np.sum(ev2 > 0)
            assert np.sum(ev < 0) == np.sum(ev2 < 0)
            done += 1

    def test_preserves_loewner_order(self):
        rng = make_rng(117)
        for _ in range(100):
            x = goe_matrix(rng, 3)
            y = SymMatrix(x.a + random_psd(rng, 3).a)
            b = InvertibleMap(rng.normal(size=(3, 3)) + 2 * np.eye(3))
            # X <= Y in the Loewner order iff lambda_1(Y - X) >= 0
            assert eigvals_sym(congruence(y, b) - congruence(x, b))[0] >= -1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            congruence(SymMatrix.identity(2), InvertibleMap.identity(3))


class TestInvertibleMap:
    def test_rejects_singular(self):
        with pytest.raises(InvalidMatrixError, match="singular"):
            InvertibleMap([[1.0, 1.0], [1.0, 1.0]])

    def test_inverse_round_trip(self):
        rng = make_rng(118)
        b = InvertibleMap(rng.normal(size=(4, 4)) + 3 * np.eye(4))
        assert np.allclose(b.B @ b.B_inv, np.eye(4), atol=1e-12)

    def test_wire_round_trip_not_symmetric(self):
        b = InvertibleMap([[0.0, 1.0], [2.0, 0.0]])
        b2 = InvertibleMap.from_dict(b.to_dict())
        assert np.array_equal(b.B, b2.B)
