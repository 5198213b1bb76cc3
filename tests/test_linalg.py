import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, qr, svd

from ccakit.baselines import pca_cca
from ccakit.linalg import (
    DataMatrix,
    apply_q,
    cross_covariance,
    gram,
    gram_diagonal,
    householder_qr,
    induced_norm,
    randomized_svd,
    singular_floor,
    sym_inv_sqrt,
    thin_q,
)
from ccakit.reference import qr_cca


def gram_loop(X, lam):
    """Direct O(n p^2) double-loop oracle for X'X/n + lam I."""
    n, p = X.shape
    S = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            S[a, b] = sum(X[i, a] * X[i, b] for i in range(n)) / n
    return S + lam * np.eye(p)


class TestGram:
    def test_identity(self):
        assert np.allclose(gram(np.eye(3), 0.0), np.eye(3) / 3, atol=1e-15)

    def test_ones_column_with_ridge(self):
        X = np.ones((4, 1))
        assert np.allclose(gram(X, 0.1), [[1.1]], atol=1e-15)

    def test_matches_double_loop(self):
        X = np.add.outer(np.arange(5), np.arange(3)).astype(float)
        assert np.abs(gram(X, 0.0) - gram_loop(X, 0.0)).max() < 1e-12

    def test_rejects_non_finite(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gram(X)

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            gram(np.eye(2), -1e-3)

    def test_sparse_dense_agree(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 6))
        X[rng.random((20, 6)) < 0.5] = 0.0
        Xs = sp.csr_matrix(X)
        assert np.abs(gram(X, 0.2) - gram(Xs, 0.2)).max() < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_psd_property(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rng.integers(1, 12), rng.integers(1, 6)))
        w = eigh(gram(X, 0.0), eigvals_only=True)
        assert w[0] >= -1e-10


class TestGramDiagonal:
    def test_matches_the_gram_diagonal(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((300, 8)) * np.logspace(-3, 3, 8)
        X[rng.random(X.shape) < 0.6] = 0.0
        for A in (X, sp.csr_matrix(X)):
            for lam in (0.0, 0.1):
                want = np.diag(gram(A, lam))
                assert np.all(np.abs(gram_diagonal(A, lam) - want) <= 1e-12 * want)

    def test_rejects_bad_input(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError):
            gram_diagonal(X, -1e-3)
        X[1, 1] = np.inf
        for A in (X, sp.csr_matrix(X)):
            with pytest.raises(ValueError, match="finite"):
                gram_diagonal(A)


class TestCrossCovariance:
    def test_identity(self):
        assert np.allclose(cross_covariance(np.eye(2), np.eye(2)), np.eye(2) / 2)

    def test_orthogonal_column_spaces(self):
        rng = np.random.default_rng(1)
        Q = qr(rng.standard_normal((10, 5)), mode="economic")[0]
        X, Y = Q[:, :2], Q[:, 2:]
        assert np.abs(cross_covariance(X, Y)).max() < 1e-12

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 2))
        Y = rng.standard_normal((6, 3))
        S = np.array([[X[:, a] @ Y[:, b] / 6 for b in range(3)] for a in range(2)])
        assert np.abs(cross_covariance(X, Y) - S).max() < 1e-12

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cross_covariance(np.ones((3, 2)), np.ones((4, 2)))

    def test_sparse_dense_agree(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((15, 4))
        Y = rng.standard_normal((15, 3))
        assert np.abs(
            cross_covariance(sp.csr_matrix(X), sp.csr_matrix(Y))
            - cross_covariance(X, Y)
        ).max() < 1e-12


class TestInducedNorm:
    def test_euclidean_case(self):
        assert induced_norm(np.eye(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert induced_norm(np.eye(3), np.zeros(3)) == 0.0

    def test_matches_data_norm(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 3))
        u = rng.standard_normal(3)
        expect = np.linalg.norm(X @ u) / np.sqrt(8)
        assert induced_norm(gram(X), u) == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            induced_norm(np.eye(2), np.ones(3))

    def test_sum_identity(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 4))
        Y = rng.standard_normal((10, 3))
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        lhs = induced_norm(gram(X), u) ** 2 + induced_norm(gram(Y), v) ** 2
        rhs = (np.linalg.norm(X @ u) ** 2 + np.linalg.norm(Y @ v) ** 2) / 10
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSingularFloor:
    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e10])
    def test_scales_with_the_gram(self, scale):
        w = scale * np.array([1e-13, 1e-11, 1.0])  # ascending eigenvalues
        assert singular_floor(w) == 1e-12 * w[-1]
        assert w[0] < singular_floor(w) < w[1]

    def test_a_zero_gram_is_singular(self):
        w = np.zeros(3)
        assert 0.0 < singular_floor(w) and w[0] < singular_floor(w)


class TestSymInvSqrt:
    def test_scaled_identity(self):
        assert np.allclose(sym_inv_sqrt(4.0 * np.eye(2)), 0.5 * np.eye(2))

    def test_floor_engages(self):
        R = sym_inv_sqrt(np.diag([1.0, 1e-20]), floor=1e-8)
        assert np.allclose(R, np.diag([1.0, 1e4]))

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 5))
        M = A.T @ A
        R = sym_inv_sqrt(M)
        assert np.abs(R @ M @ R - np.eye(5)).max() < 1e-8

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            sym_inv_sqrt(M)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sym_inv_sqrt(np.array([[1.0, bad], [bad, 1.0]]))

    def test_symmetric_and_commutes(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 4))
        M = A.T @ A
        R = sym_inv_sqrt(M)
        assert np.abs(R - R.T).max() < 1e-10
        assert np.abs(R @ M - M @ R).max() < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 5, 13])
    def test_a_stack_equals_its_members_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            members = []
            for _ in range(3):
                A = rng.standard_normal((4 * k, k)) * rng.uniform(1e-3, 1e3, size=k)
                members.append(A.T @ A / (4 * k))
            floors = rng.uniform(1e-14, 1e-6, size=3)
            stacked = sym_inv_sqrt(np.array(members), floor=floors)
            assert stacked.shape == (3, k, k)
            for M, floor, R in zip(members, floors, stacked):
                assert np.array_equal(R, sym_inv_sqrt(M, floor=floor))
            shared = sym_inv_sqrt(np.array(members), floor=1e-9)  # one floor for every member
            assert all(np.array_equal(R, sym_inv_sqrt(M, floor=1e-9))
                       for M, R in zip(members, shared))

    def test_a_bad_member_raises_as_the_2d_call(self):
        good, asym = np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])
        for bad, match in ((np.array([[1.0, np.inf], [np.inf, 1.0]]), "finite"),
                           (np.array([[np.nan, 0.0], [0.0, 1.0]]), "finite"),
                           (asym, "symmetric")):
            with pytest.raises(ValueError) as two_d:
                sym_inv_sqrt(bad)
            for stack in ([good, bad], [bad, good]):
                with pytest.raises(ValueError, match=match) as stacked:
                    sym_inv_sqrt(np.array(stack))
                assert str(stacked.value) == str(two_d.value)
        for floor in (0.0, -1.0, [1e-12, 0.0]):
            with pytest.raises(ValueError, match="floor must be positive"):
                sym_inv_sqrt(np.array([good, good]), floor=floor)
        with pytest.raises(ValueError, match="floor must be positive"):
            sym_inv_sqrt(good, floor=0.0)

    def test_a_non_finite_floor_raises(self):
        good = np.eye(2)
        for floor in (np.nan, np.inf):
            with pytest.raises(ValueError, match="floor must be positive and finite"):
                sym_inv_sqrt(good, floor=floor)
            with pytest.raises(ValueError, match="floor must be positive and finite"):
                sym_inv_sqrt(np.array([good, good]), floor=[1e-12, floor])

    def test_symmetry_is_judged_against_each_members_own_scale(self):
        """A member's asymmetry is measured against its own largest entry, as a 2-d call would,
        not against a larger member's."""
        small = np.array([[1.0, 1e-9], [0.0, 1.0]])  # asymmetric at scale 1
        big = 1e6 * np.eye(2)
        with pytest.raises(ValueError, match="symmetric"):
            sym_inv_sqrt(small)
        with pytest.raises(ValueError, match="symmetric"):
            sym_inv_sqrt(np.array([big, small]))


def qr_inputs(m, p):
    """An m x p matrix in each layout and dtype the QR home accepts, by name."""
    rng = np.random.default_rng(m * 1000 + p)
    A = rng.standard_normal((m, p))
    wide = np.asfortranarray(rng.standard_normal((m, p + 3)))  # one buffer, a column slice of it
    wide[:, 1:p + 1] = A
    return {"c-order": A, "fortran": np.asfortranarray(A), "column-slice": wide[:, 1:p + 1],
            "integer": rng.integers(-9, 10, size=(m, p)), "float32": A.astype(np.float32)}


class TestHouseholderQr:
    @pytest.mark.parametrize("layout", ["c-order", "fortran", "column-slice", "integer", "float32"])
    @pytest.mark.parametrize("shape", [(30, 30), (50, 1), (400, 200), (200, 9)])
    def test_factors_every_layout(self, layout, shape):
        A = qr_inputs(*shape)[layout]
        before = A.copy()
        H, T = householder_qr(A)
        p = shape[1]
        Q, R = thin_q(H, T), np.triu(H[:p])  # R is the upper triangle of H's top p rows alone
        A64 = before.astype(float)
        assert np.linalg.norm(Q @ R - A64) <= 1e-13 * np.linalg.norm(A64)
        assert np.abs(Q.T @ Q - np.eye(p)).max() <= 1e-13
        R_scipy = qr(A64, mode="economic")[1]
        signs = np.sign(np.diag(R)) * np.sign(np.diag(R_scipy))
        assert np.abs(signs[:, None] * R - R_scipy).max() <= 1e-13 * np.abs(R_scipy).max()

    def test_applies_q_and_its_transpose(self):
        A = qr_inputs(400, 200)["fortran"]
        H, T = householder_qr(A)
        Q = thin_q(H, T)
        C = np.asfortranarray(np.random.default_rng(1).standard_normal((400, 7)))
        QtC = apply_q(H, T, C.copy(order="F"), trans=True)
        assert np.abs(QtC[:200] - Q.T @ C).max() <= 1e-13 * np.abs(C).max()
        assert np.abs(apply_q(H, T, QtC) - C).max() <= 1e-13 * np.abs(C).max()

    @pytest.mark.parametrize("layout", ["c-order", "fortran", "column-slice", "integer", "float32"])
    def test_consumes_a_float64_fortran_array_and_copies_any_other(self, layout):
        A = qr_inputs(60, 5)[layout]
        before = A.copy()
        H, _ = householder_qr(A)
        in_place = A.dtype == np.float64 and A.flags.f_contiguous  # a Fortran column slice too
        assert np.shares_memory(H, A) is in_place
        assert np.array_equal(A, before) is not in_place

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_anywhere_raises(self, bad):
        base = np.random.default_rng(2).standard_normal((12, 3))
        base[:, 0] = np.eye(12)[0]  # an identity first reflector leaves later columns untouched
        for i, j in np.ndindex(*base.shape):
            A = base.copy()
            A[i, j] = bad
            with pytest.raises(ValueError, match="non-finite"):
                householder_qr(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_view_raises_from_its_callers(self, bad):
        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((80, 4)), rng.standard_normal((80, 3))
        X[17, 2] = bad
        for lam in (0.0, 0.1):
            with pytest.raises(ValueError, match="non-finite"):
                qr_cca(X, Y, 2, lam=lam)
            with pytest.raises(ValueError, match="non-finite"):
                qr_cca(Y, X, 2, lam=lam)
        for A in (X, X.T):
            with pytest.raises(ValueError, match="non-finite"):
                randomized_svd(A, 2)
        for lam in (0.0, 0.1):
            with pytest.raises(ValueError, match="non-finite"):
                pca_cca(X, Y, 2, m=3, lam=lam)


class TestRandomizedSvd:
    def test_known_spectrum(self):
        A = np.diag([3.0, 2.0, 1.0])
        U, s, V = randomized_svd(A, 2, seed=0)
        assert np.allclose(s, [3.0, 2.0], atol=1e-10)
        err = np.linalg.norm(A - U @ np.diag(s) @ V.T) / np.linalg.norm(A)
        assert err == pytest.approx(1.0 / np.sqrt(14.0), abs=1e-10)

    def test_exact_low_rank(self):
        rng = np.random.default_rng(8)
        A = np.outer(rng.standard_normal(12), rng.standard_normal(9))
        A += np.outer(rng.standard_normal(12), rng.standard_normal(9))
        U, s, V = randomized_svd(A, 2, power_iters=2, seed=1)
        err = np.linalg.norm(A - U @ np.diag(s) @ V.T) / np.linalg.norm(A)
        assert err <= 1e-8

    def test_against_dense_svd(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((50, 40))
        _, s, _ = randomized_svd(A, 5, oversample=30, power_iters=3, seed=2)
        s_true = svd(A, compute_uv=False)[:5]
        assert np.abs(s - s_true).max() < 1e-6

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((20, 15))
        U, s, V = randomized_svd(A, 4, seed=3)
        assert np.abs(U.T @ U - np.eye(4)).max() < 1e-8
        assert np.abs(V.T @ V - np.eye(4)).max() < 1e-8
        assert np.all(np.diff(s) <= 1e-12)

    @pytest.mark.parametrize("m", [3, 10, 40])
    def test_right_factor_is_orthonormal_past_the_rank(self, m):
        # a rank-3 view: its right factor V is the SVD's, orthonormal at any m
        rng = np.random.default_rng(13)
        A = rng.standard_normal((500, 3)) @ rng.standard_normal((3, 40))
        _, _, V = randomized_svd(A, m, seed=5)
        assert np.abs(V.T @ V - np.eye(m)).max() <= 1e-13

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            randomized_svd(np.eye(3), 4)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((12, 10))
        out1 = randomized_svd(A, 3, seed=42)
        out2 = randomized_svd(A, 3, seed=42)
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)

    def test_sparse_input(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((30, 20))
        A[np.abs(A) < 1.0] = 0.0
        _, s, _ = randomized_svd(sp.csr_matrix(A), 3, oversample=15, power_iters=3, seed=4)
        s_true = svd(A, compute_uv=False)[:3]
        assert np.abs(s - s_true).max() < 1e-6


class TestDataMatrix:
    def test_validates_shape_and_values(self):
        with pytest.raises(ValueError):
            DataMatrix(np.ones(3))
        with pytest.raises(ValueError):
            DataMatrix(np.array([[np.inf, 1.0]]))

    def test_sparse_dense_products_agree(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((9, 5))
        A[rng.random((9, 5)) < 0.4] = 0.0
        dm_d = DataMatrix(A)
        dm_s = DataMatrix(sp.coo_matrix(A))
        v = rng.standard_normal(5)
        assert np.abs(dm_d @ v - dm_s @ v).max() < 1e-12
