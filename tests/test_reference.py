import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import qr, solve_triangular, svd

from ccakit import reference
from ccakit.linalg import (SingularMatrixError, apply_q, cross_covariance, gram, householder_qr,
                           induced_norm, thin_q)
from ccakit.harness import SolverConfig, run_experiment
from ccakit.metrics import principal_angles
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import als_cca, fix_signs, naive_gradient_step, qr_cca, spectral_cca
from conftest import peak_bytes


def orthogonal_views(n=30, p1=3, p2=4, seed=0):
    """X and Y with exactly orthogonal column spaces."""
    Q = qr(np.random.default_rng(seed).standard_normal((n, p1 + p2)), mode="economic")[0]
    return Q[:, :p1], Q[:, p1:]


class TestSpectralCca:
    def test_self_correlation(self):
        X = np.random.default_rng(0).standard_normal((20, 4))
        m = spectral_cca(X, X, 4)
        assert np.abs(m.lam - 1.0).max() < 1e-8
        for j in range(4):
            col_x, col_y = X @ m.phi[:, j], X @ m.psi[:, j]
            assert min(np.abs(col_x - col_y).max(), np.abs(col_x + col_y).max()) < 1e-6

    def test_orthogonal_views(self):
        X, Y = orthogonal_views()
        m = spectral_cca(X, Y, 3)
        assert np.abs(m.lam).max() <= 1e-8

    def test_planted_recovery_with_noise(self):
        params = PlantedParams(n=800, p1=10, p2=10, correlations=(0.9, 0.5), noise=0.02)
        inst = generate_planted(params, seed=3)
        m = spectral_cca(inst.x, inst.y, 2)
        assert np.abs(m.lam - np.array([0.9, 0.5])).max() < 1e-2

    def test_model_invariants(self, small_instance):
        inst = small_instance
        m = spectral_cca(inst.x, inst.y, 3)
        Sx, Sy = gram(inst.x), gram(inst.y)
        Sxy = cross_covariance(inst.x, inst.y)
        assert np.abs(m.phi.T @ Sx @ m.phi - np.eye(3)).max() < 1e-8
        assert np.abs(m.psi.T @ Sy @ m.psi - np.eye(3)).max() < 1e-8
        C = m.phi.T @ Sxy @ m.psi
        assert np.abs(C - np.diag(m.lam)).max() < 1e-8
        assert np.all(np.diff(m.lam) <= 1e-12)

    def test_singular_requires_ridge(self):
        X = np.ones((10, 3))  # rank 1
        Y = np.random.default_rng(1).standard_normal((10, 2))
        with pytest.raises(SingularMatrixError, match="lam"):
            spectral_cca(X, Y, 1)
        spectral_cca(X, Y, 1, lam=1e-3)  # regularized path succeeds

    def test_rejects_a_rank_out_of_range_and_a_negative_ridge(self):
        X, Y = orthogonal_views()
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"rank k={k} out of range"):
                spectral_cca(X, Y, k)
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_cca(X, Y, 1, lam=-0.1)


class TestQrCca:
    def test_self_correlation(self):
        X = np.random.default_rng(2).standard_normal((25, 5))
        m = qr_cca(X, X, 5)
        assert np.abs(m.lam - 1.0).max() < 1e-8

    def test_agrees_with_spectral(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 5))
        Y = rng.standard_normal((100, 7))
        a = spectral_cca(X, Y, 3)
        b = qr_cca(X, Y, 3)
        assert np.abs(a.lam - b.lam).max() < 1e-8
        assert principal_angles(a.phi, b.phi).min() > 1.0 - 1e-6
        assert principal_angles(a.psi, b.psi).min() > 1.0 - 1e-6

    def test_agrees_with_ridge(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 4))
        Y = rng.standard_normal((40, 4))
        a = spectral_cca(X, Y, 2, lam=0.05)
        b = qr_cca(X, Y, 2, lam=0.05)
        assert np.abs(a.lam - b.lam).max() < 1e-10

    def test_rank_deficient_errors(self):
        X = np.ones((10, 3))
        Y = np.random.default_rng(5).standard_normal((10, 2))
        with pytest.raises(SingularMatrixError):
            qr_cca(X, Y, 1)

    def test_a_view_wider_than_it_is_tall_is_rank_deficient_before_any_factorization(
            self, monkeypatch):
        rng = np.random.default_rng(9)
        X, Y = rng.standard_normal((10, 20)), rng.standard_normal((10, 3))
        monkeypatch.setattr(reference, "householder_qr", None)  # any factorization would fail
        for x, y, side in ((X, Y, "x"), (Y, X, "y")):
            with pytest.raises(SingularMatrixError, match=f"view {side} is numerically rank-def"):
                qr_cca(x, y, 1)
            with pytest.raises(ValueError, match="regularization must be nonnegative"):
                qr_cca(x, y, 1, lam=-0.1)
        with pytest.raises(SingularMatrixError, match="view x is numerically rank-deficient"):
            run_experiment(SolverConfig(solver="qr", k=1), x=X, y=Y)
        monkeypatch.undo()
        got, want = qr_cca(X, Y, 1, lam=0.1), spectral_cca(X, Y, 1, lam=0.1)
        assert 0 < got.lam[0] < 1 and np.abs(got.lam - want.lam).max() <= 1e-10

    def test_rejects_mismatched_rows_and_a_rank_out_of_range(self):
        X, Y = orthogonal_views()
        with pytest.raises(ValueError, match="same number of rows"):
            qr_cca(X, Y[:-1], 1)
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"rank k={k} out of range"):
                qr_cca(X, Y, k)

    def test_rejects_sparse(self):
        X = sp.eye(5, format="csr")
        with pytest.raises(ValueError, match="dense"):
            qr_cca(X, np.eye(5), 1)

    def test_matches_plain_qr_and_leaves_fortran_views_untouched(self):
        A = np.asfortranarray(np.random.default_rng(6).standard_normal((200, 9)))
        X, Y = A[:, :4], A[:, 4:]  # Fortran-ordered views sharing one buffer
        before = A.copy()
        got = qr_cca(X, Y, 3)
        assert np.array_equal(A, before)

        def pairs(Rx, Ry, C):
            U, s, Vt = svd(C, full_matrices=False)
            return (*fix_signs(np.sqrt(200) * solve_triangular(Rx, U[:, :3]),
                               np.sqrt(200) * solve_triangular(Ry, Vt[:3].T)), s[:3])

        (Hx, Tx), (Hy, Ty) = householder_qr(before[:, :4]), householder_qr(before[:, 4:])
        home = pairs(np.triu(Hx[:4]), np.triu(Hy[:5]),
                     apply_q(Hx, Tx, thin_q(Hy, Ty), trans=True)[:4])
        (Qx, Rx), (Qy, Ry) = (qr(V, mode="economic") for V in (before[:, :4], before[:, 4:]))
        plain = pairs(Rx, Ry, Qx.T @ Qy)
        for a, b, c in zip((got.phi, got.psi, got.lam), home, plain, strict=True):
            assert np.array_equal(a, b)
            assert np.abs(a - c).max() <= 1e-12 * np.abs(c).max()

    def test_peak_memory_is_one_copy_per_view(self):
        X, Y = np.random.default_rng(7).standard_normal((2, 4000, 20))
        _, peak = peak_bytes(lambda: qr_cca(X, Y, 2))
        assert peak <= 2.5 * X.nbytes, f"peak {peak / X.nbytes:.2f}x one view"

    def test_regularized_peak_is_one_augmented_copy_per_view(self):
        X, Y = np.random.default_rng(7).standard_normal((2, 4000, 20))
        _, peak = peak_bytes(lambda: qr_cca(X, Y, 2, lam=0.1))
        assert peak <= 2.5 * X.nbytes, f"peak {peak / X.nbytes:.2f}x one view"

    def test_regularized_views_are_factored_as_stacked(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, Y = rng.standard_normal((60, 4)), rng.standard_normal((60, 3))
        factored = []

        def spy(A):
            factored.append(A.copy(order="K"))
            return householder_qr(A)

        monkeypatch.setattr(reference, "householder_qr", spy)
        qr_cca(X, Y, 2, lam=0.1)
        r = np.sqrt(60 * 0.1)
        stacked = (np.vstack([Y, np.zeros((4, 3)), r * np.eye(3)]),  # Y is factored first
                   np.vstack([X, r * np.eye(4), np.zeros((3, 4))]))
        for got, want in zip(factored, stacked, strict=True):
            assert got.flags.f_contiguous and np.array_equal(got, want)


class TestAlsCca:
    def test_oracle_init_is_fixed(self, rank1_instance):
        inst = rank1_instance
        truth = spectral_cca(inst.x, inst.y, 1)
        m = als_cca(inst.x, inst.y, (truth.phi[:, 0], truth.psi[:, 0]), max_iters=1)
        assert m.converged
        assert np.abs(m.lam[0] - truth.lam[0]) < 1e-8

    def test_converges_to_leading_pair(self, rank1_instance):
        inst = rank1_instance
        truth = spectral_cca(inst.x, inst.y, 1)
        rng = np.random.default_rng(6)
        phi0 = rng.standard_normal(inst.x.shape[1])
        psi0 = rng.standard_normal(inst.y.shape[1])
        Sx, Sy = gram(inst.x), gram(inst.y)
        phi0 /= induced_norm(Sx, phi0)
        psi0 /= induced_norm(Sy, psi0)
        m = als_cca(inst.x, inst.y, (phi0, psi0), max_iters=200, tol=1e-6)
        align = abs(float(m.phi[:, 0] @ Sx @ truth.phi[:, 0]))
        assert align > 1.0 - 1e-4
        assert np.abs(m.lam[0] - truth.lam[0]) < 1e-6

    def test_orthogonal_views_capture_nothing(self):
        X, Y = orthogonal_views(seed=7)
        phi0 = np.ones(X.shape[1])
        psi0 = np.ones(Y.shape[1])
        phi0 /= induced_norm(gram(X), phi0)
        psi0 /= induced_norm(gram(Y), psi0)
        m = als_cca(X, Y, (phi0, psi0))
        assert abs(m.lam[0]) <= 1e-8

    def test_rejects_a_singular_view_at_no_ridge_and_a_negative_ridge(self):
        X, Y = np.ones((10, 3)), np.random.default_rng(8).standard_normal((10, 2))
        init = (np.ones(3), np.ones(2))
        with pytest.raises(SingularMatrixError, match="lam > 0"):
            als_cca(X, Y, init)
        with pytest.raises(ValueError, match="nonnegative"):
            als_cca(X, Y, init, lam=-0.1)
        assert als_cca(X, Y, init, lam=1e-3).k == 1  # the ridge makes it solvable


class TestNaiveGradientStep:
    def test_truth_is_not_fixed(self):
        # lam1 != 1 and phi1 not an eigenvector of S_x (verified below);
        # conditioning > 1 keeps S_x away from a multiple of the identity
        params = PlantedParams(n=500, p1=8, p2=8, correlations=(0.9, 0.3),
                               cond_x=3.0, cond_y=2.0, latent_rotate=True)
        inst = generate_planted(params, seed=11)
        truth = spectral_cca(inst.x, inst.y, 1)
        Sx = gram(inst.x)
        phi1 = truth.phi[:, 0]
        v = Sx @ phi1
        residual = np.linalg.norm(v - (phi1 @ v) * phi1 / (phi1 @ phi1))
        assert truth.lam[0] < 1.0 - 1e-3 and residual > 1e-6
        phi2, psi2 = naive_gradient_step(
            phi1, truth.psi[:, 0], 0.5, 0.5, inst.x, inst.y
        )
        moved = induced_norm(Sx, phi2 - phi1)
        assert moved > 1e-6

    def test_degenerate_case_is_fixed(self):
        # X = Y with orthogonal columns: lam1 = 1 and phi1 is an eigenvector
        rng = np.random.default_rng(8)
        Q = qr(rng.standard_normal((30, 4)), mode="economic")[0]
        X = Q * np.array([2.0, 1.5, 1.0, 0.5])
        truth = spectral_cca(X, X, 1)
        phi2, psi2 = naive_gradient_step(
            truth.phi[:, 0], truth.psi[:, 0], 0.3, 0.3, X, X
        )
        assert np.abs(phi2 - truth.phi[:, 0]).max() < 1e-10

    def test_zero_step_is_identity(self, rank1_instance):
        inst = rank1_instance
        truth = spectral_cca(inst.x, inst.y, 1)
        phi2, psi2 = naive_gradient_step(
            truth.phi[:, 0], truth.psi[:, 0], 0.0, 0.0, inst.x, inst.y
        )
        assert np.abs(phi2 - truth.phi[:, 0]).max() < 1e-12
        assert np.abs(psi2 - truth.psi[:, 0]).max() < 1e-12


class TestStructuralIdentities:
    def test_cross_covariance_decomposition(self, small_instance):
        # S_xy reconstructs from the full-rank model: S_xy = S_x Phi Lam Psi' S_y
        inst = small_instance
        p = min(inst.x.shape[1], inst.y.shape[1])
        m = spectral_cca(inst.x, inst.y, p)
        Sx, Sy = gram(inst.x), gram(inst.y)
        Sxy = cross_covariance(inst.x, inst.y)
        recon = Sx @ m.phi @ np.diag(m.lam) @ m.psi.T @ Sy
        assert np.linalg.norm(Sxy - recon) / np.linalg.norm(Sxy) <= 1e-8

    def test_least_squares_identity(self, rank1_instance):
        # argmin ||X phi - Y psi1||^2 / 2n equals lam1 * phi1
        inst = rank1_instance
        truth = spectral_cca(inst.x, inst.y, 1)
        target = inst.y @ truth.psi[:, 0]
        phi_star, *_ = np.linalg.lstsq(inst.x, target, rcond=None)
        assert np.abs(phi_star - truth.lam[0] * truth.phi[:, 0]).max() < 1e-8

    def test_oracle_minimizes_coupled_objective(self, rank1_instance):
        inst = rank1_instance
        X, Y = inst.x, inst.y
        n = X.shape[0]
        Sx, Sy = gram(X), gram(Y)
        truth = spectral_cca(X, Y, 1)

        def objective(phi, psi):
            return np.linalg.norm(X @ phi - Y @ psi) ** 2 / (2 * n)

        best = objective(truth.phi[:, 0], truth.psi[:, 0])
        rng = np.random.default_rng(9)
        for _ in range(1000):
            phi = rng.standard_normal(X.shape[1])
            psi = rng.standard_normal(Y.shape[1])
            phi /= induced_norm(Sx, phi)
            psi /= induced_norm(Sy, psi)
            assert objective(phi, psi) >= best - 1e-10


class TestUnits:
    """A Gram is judged singular against its own scale, so the data's units change no result."""

    @pytest.fixture(scope="class")
    def instance(self):
        params = PlantedParams(n=2000, p1=20, p2=20, correlations=(0.9, 0.6, 0.3), noise=0.3)
        return generate_planted(params, seed=0)

    @pytest.mark.parametrize("scale", [1e-9, 1e-7, 1e-3, 1e3, 1e6])
    def test_solvers_and_oracle_ignore_the_units(self, instance, scale):
        X, Y = instance.x, instance.y
        for solve in (spectral_cca, qr_cca):
            want = solve(X, Y, 3).lam
            assert np.abs(solve(scale * X, scale * Y, 3).lam / want - 1.0).max() <= 1e-9
        for name in ("dw", "nw", "appgrad"):
            cfg = SolverConfig(solver=name, k=2, seed=1, max_iters=200)
            got, want = (run_experiment(cfg, x=c * X, y=c * Y) for c in (scale, 1.0))
            assert np.isfinite(got.pcc_train)  # the oracle exists at every scale
            assert got.pcc_train == pytest.approx(want.pcc_train, rel=1e-9)
            assert got.model.converged == want.model.converged
            if name == "appgrad":  # its stopping test reads the whitened projections
                assert got.report.final_state.t == want.report.final_state.t

    @pytest.mark.parametrize("solve", [spectral_cca, qr_cca])
    def test_a_zero_view_is_still_singular(self, solve):
        Y = np.random.default_rng(0).standard_normal((50, 2))
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((50, 3)), Y, 1)
