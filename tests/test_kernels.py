"""Tests for kernel Gram construction and the dual-space solver."""

import numpy as np
import pytest

from ccakit.appgrad import run_appgrad
from ccakit.kernels import KernelGram, KernelSpec, check_psd, kernel_cca, kernel_gram, kernel_ridge
from ccakit.metrics import projected_correlations
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import spectral_cca


class TestKernelGram:
    def test_linear_on_identity(self):
        K = kernel_gram(np.eye(3), KernelSpec("linear"))
        assert np.allclose(K.values, np.eye(3))

    def test_rbf_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 4))
        for sigma in (0.1, 1.0, 7.3):
            K = kernel_gram(X, KernelSpec("rbf", sigma=sigma))
            assert np.allclose(np.diag(K.values), 1.0)
            assert np.all(K.values <= 1.0 + 1e-12)

    def test_polynomial_matches_per_pair_evaluation(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 2))
        spec = KernelSpec("polynomial", degree=2, offset=1.0)
        K = kernel_gram(X, spec)
        for i in range(4):
            for j in range(4):
                want = (X[i] @ X[j] + 1.0) ** 2
                assert abs(K.values[i, j] - want) < 1e-12

    def test_rbf_matches_per_pair_evaluation(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 3))
        sigma = 1.7
        K = kernel_gram(X, KernelSpec("rbf", sigma=sigma))
        for i in range(5):
            for j in range(5):
                d2 = np.sum((X[i] - X[j]) ** 2)
                assert abs(K.values[i, j] - np.exp(-d2 / (2 * sigma**2))) < 1e-12

    def test_centering_zeroes_row_sums(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 3))
        K = kernel_gram(X, KernelSpec("linear"), center=True)
        assert np.allclose(K.values.sum(axis=0), 0.0, atol=1e-10)

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", sigma=2.0),
                                      KernelSpec("polynomial", degree=3, offset=0.5)])
    def test_centering_is_h_k_h(self, spec):
        """Centring subtracts row, column and grand means, as H K H with H = I - 11'/n does,
        and leaves the uncentred Gram untouched."""
        X = np.random.default_rng(4).standard_normal((120, 6)) + 3.0
        K = kernel_gram(X, spec).values
        dots = X @ X.T
        raw = {"linear": dots, "polynomial": (dots + 0.5) ** 3,
               "rbf": np.exp(-np.maximum((X * X).sum(axis=1)[:, None]
                                         + (X * X).sum(axis=1)[None, :] - 2.0 * dots, 0.0) / 8.0)}
        assert np.array_equal(K, 0.5 * (raw[spec.kind] + raw[spec.kind].T))
        H = np.eye(120) - np.ones((120, 120)) / 120
        want = H @ K @ H
        got = kernel_gram(X, spec, center=True).values
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(K).max()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")
        with pytest.raises(ValueError):
            KernelSpec("rbf", sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=2, offset=-1.0)

    @pytest.mark.parametrize("text, spec", [
        ("linear", KernelSpec("linear")),
        ("rbf", KernelSpec("rbf")),
        ("rbf:2.5", KernelSpec("rbf", sigma=2.5)),
        ("polynomial", KernelSpec("polynomial")),
        ("polynomial:3", KernelSpec("polynomial", degree=3)),
        ("polynomial:3:0.5", KernelSpec("polynomial", degree=3, offset=0.5)),
    ])
    def test_parse_reads_every_kind_and_str_gives_it_back(self, text, spec):
        assert KernelSpec.parse(text) == spec  # a missing parameter takes its default
        assert KernelSpec.parse(str(spec)) == spec  # report headers are re-read this way

    def test_parse_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kernel 'sigmoid:1'"):
            KernelSpec.parse("sigmoid:1")

    def test_constructed_grams_are_psd(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 5))
        for spec in (
            KernelSpec("linear"),
            KernelSpec("rbf", sigma=0.8),
            KernelSpec("polynomial", degree=3, offset=0.5),
        ):
            check_psd(kernel_gram(X, spec))

    def test_check_psd_rejects_indefinite(self):
        K = KernelGram(np.array([[1.0, 2.0], [2.0, 1.0]]), KernelSpec("linear"))
        with pytest.raises(ValueError, match="PSD"):
            check_psd(K)


class TestKernelCca:
    def test_linear_kernel_matches_linear_cca(self):
        # dual directions through the linear Gram span the same projections
        # as the primal solver, so the captured correlations agree
        for seed in range(3):
            params = PlantedParams(n=120, p1=6, p2=6, correlations=(0.85, 0.55))
            inst = generate_planted(params, seed=seed)
            Kx = kernel_gram(inst.x, KernelSpec("linear"))
            Ky = kernel_gram(inst.y, KernelSpec("linear"))
            Wx, Wy, lam_hat = kernel_cca(Kx, Ky, 2, seed=seed)
            sums = projected_correlations(Kx.values @ Wx, Ky.values @ Wy).sum()
            oracle = spectral_cca(inst.x, inst.y, 2)
            assert abs(sums - oracle.lam.sum()) < 1e-4
            assert np.allclose(lam_hat, oracle.lam, atol=1e-4)

    def test_dual_constraint_satisfied(self):
        params = PlantedParams(n=100, p1=5, p2=5, correlations=(0.8, 0.4))
        inst = generate_planted(params, seed=7)
        Kx = kernel_gram(inst.x, KernelSpec("linear"))
        Ky = kernel_gram(inst.y, KernelSpec("linear"))
        Wx, Wy, _ = kernel_cca(Kx, Ky, 2, seed=1)
        U = Kx.values @ Wx
        G = U.T @ U / Kx.n
        assert np.allclose(G, np.eye(2), atol=1e-6)

    def test_identical_grams_have_unit_correlations(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4))
        K = kernel_gram(X, KernelSpec("rbf", sigma=2.0))
        _, _, lam_hat = kernel_cca(K, K, 2, seed=0)
        # the default ridge keeps the estimate slightly below 1
        assert np.all(lam_hat > 0.99)

    def test_rbf_beats_linear_on_nonlinear_link(self):
        # y depends on sin(x): invisible to a linear kernel, visible to rbf
        rng = np.random.default_rng(11)
        x = rng.uniform(-np.pi, np.pi, size=(300, 1))
        y = np.sin(3.0 * x) + 0.05 * rng.standard_normal((300, 1))
        lin_x = kernel_gram(x, KernelSpec("linear"))
        lin_y = kernel_gram(y, KernelSpec("linear"))
        rbf_x = kernel_gram(x, KernelSpec("rbf", sigma=0.5))
        rbf_y = kernel_gram(y, KernelSpec("rbf", sigma=0.5))

        def total(Kx, Ky):
            Wx, Wy, _ = kernel_cca(Kx, Ky, 1, seed=3)
            return projected_correlations(Kx.values @ Wx, Ky.values @ Wy).sum()

        assert total(rbf_x, rbf_y) > total(lin_x, lin_y) + 0.1

    @pytest.mark.parametrize("lam", [None, 0.01])
    def test_is_run_appgrad_on_the_grams_at_one_ridge(self, lam):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 3))
        Kx = kernel_gram(X, KernelSpec("rbf", sigma=2.0))
        Ky = kernel_gram(3.0 * X + rng.standard_normal((60, 3)), KernelSpec("linear"))
        # one ridge on both views: the larger view's, here the linear Gram's
        assert kernel_ridge(Kx.values, Ky.values) == 1e-6 * np.trace(Ky.values) / 60 > 1e-6
        ridge = kernel_ridge(Kx.values, Ky.values) if lam is None else lam
        got = kernel_cca(Kx, Ky, 2, lam=lam, eta=0.05, max_iters=7, tol=1e-3, seed=3)
        model, _ = run_appgrad(Kx.values, Ky.values, 2, eta=0.05, lam=ridge, max_iters=7,
                               tol=1e-3, seed=3)
        for a, b in zip(got, (model.phi, model.psi, model.lam)):
            assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        Ka = kernel_gram(rng.standard_normal((10, 2)), KernelSpec("linear"))
        Kb = kernel_gram(rng.standard_normal((12, 2)), KernelSpec("linear"))
        with pytest.raises(ValueError):
            kernel_cca(Ka, Kb, 1)
