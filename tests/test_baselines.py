"""Tests for the approximate-whitening baselines: no whitening, diagonal
whitening, and principal-subspace whitening."""

import numpy as np
import pytest

from ccakit import linalg
from ccakit.appgrad import run_appgrad
from ccakit.baselines import OVERSAMPLE, POWER_ITERS, dw_cca, nw_cca, pca_cca
from ccakit.harness import SolverConfig, run_experiment
from ccakit.metrics import moments, pcc, principal_angles, tcc
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import fix_signs, spectral_cca
from conftest import peak_bytes


class TestNwCca:
    def test_agrees_with_exact_on_prewhitened_data(self):
        # cond = 1 makes both view Grams exactly the identity, so skipping
        # the whitening step costs nothing
        params = PlantedParams(n=300, p1=10, p2=12, correlations=(0.9, 0.6, 0.3))
        inst = generate_planted(params, seed=5)
        oracle = inst.empirical
        est = nw_cca(inst.x, inst.y, 3)
        assert not est.whitened
        assert np.min(principal_angles(est.phi, oracle.phi)) >= 1 - 1e-6
        assert np.min(principal_angles(est.psi, oracle.psi)) >= 1 - 1e-6

    def test_suffers_on_skewed_scales(self):
        # feature variances span ~1e3 and the mixing is generic on both
        # sides, so the raw cross-covariance's singular directions are far
        # from the canonical ones
        params = PlantedParams(
            n=800, p1=15, p2=15, correlations=(0.9, 0.7, 0.5),
            cond_x=31.6, cond_y=31.6, latent_rotate=True,
        )
        inst = generate_planted(params, seed=2)
        oracle = inst.empirical
        ora = (oracle.phi, oracle.psi)
        est = nw_cca(inst.x, inst.y, 3)
        model, _ = run_appgrad(inst.x, inst.y, 3, seed=0)
        assert pcc(inst.x, inst.y, (est.phi, est.psi), ora) < pcc(
            inst.x, inst.y, (model.phi, model.psi), ora
        )

    def test_full_rank_tcc_below_oracle(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        k = min(X.shape[1], Y.shape[1])
        est = nw_cca(X, Y, k)
        oracle = spectral_cca(X, Y, k)
        assert tcc(X, Y, est.phi, est.psi) <= tcc(X, Y, oracle.phi, oracle.psi) + 1e-8

    def test_rank_out_of_range(self, small_instance):
        with pytest.raises(ValueError):
            nw_cca(small_instance.x, small_instance.y, 13)


class TestDwCca:
    def test_exact_when_grams_diagonal(self):
        params = PlantedParams(
            n=400, p1=10, p2=10, correlations=(0.8, 0.5),
            cond_x=50.0, cond_y=50.0, rotate=False,
        )
        inst = generate_planted(params, seed=4)
        oracle = inst.empirical
        est = dw_cca(inst.x, inst.y, 2)
        assert np.min(principal_angles(est.phi, oracle.phi)) >= 1 - 1e-6
        assert np.min(principal_angles(est.psi, oracle.psi)) >= 1 - 1e-6

    def test_pcc_at_most_one_in_sample(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        oracle = small_instance.empirical
        est = dw_cca(X, Y, 3)
        score = pcc(X, Y, (est.phi, est.psi), (oracle.phi, oracle.psi))
        assert 0.0 <= score <= 1.0 + 1e-8

    def test_zero_variance_column_errors(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        X[:, 2] = 0.0
        Y = rng.standard_normal((50, 4))
        with pytest.raises(ValueError, match="lam"):
            dw_cca(X, Y, 2)
        # regularized diagonals make it well defined again
        est = dw_cca(X, Y, 2, lam=0.1)
        assert np.all(np.isfinite(est.phi))

    def test_peak_memory_makes_no_scaled_copy(self):
        X, Y = np.random.default_rng(4).standard_normal((2, 4000, 20))
        _, peak = peak_bytes(lambda: dw_cca(X, Y, 2))
        assert peak <= 0.5 * X.nbytes, f"peak {peak / X.nbytes:.2f}x one view"

    def test_scans_a_view_only_when_it_is_not_finite(self, monkeypatch):
        X, Y = np.random.default_rng(5).standard_normal((2, 300, 6))
        scanned, check = [], linalg._check_finite
        monkeypatch.setattr(linalg, "_check_finite", lambda *A: scanned.append(A) or check(*A))
        dw_cca(X, Y, 2)
        assert scanned == []  # finite views give finite products, so no view is scanned
        for bad in (np.nan, np.inf):
            X[7, 3] = bad
            with pytest.raises(ValueError, match="non-finite entries"):
                dw_cca(X, Y, 2)


class TestPcaCca:
    def test_full_dimension_reduces_to_exact(self, rank1_instance):
        # equal view widths so m = p keeps every principal direction
        X, Y = rank1_instance.x, rank1_instance.y
        est = pca_cca(X, Y, 2, m=X.shape[1])
        oracle = spectral_cca(X, Y, 2)
        assert np.allclose(est.lam, oracle.lam, atol=1e-8)

    def test_aligned_principal_subspace_succeeds(self):
        # canonical latents sit on the largest feature scales, so the top-k
        # principal directions already contain the canonical subspace
        params = PlantedParams(
            n=500, p1=20, p2=20, correlations=(0.9, 0.7, 0.5),
            cond_x=100.0, cond_y=100.0, canonical_scale="high",
        )
        inst = generate_planted(params, seed=9)
        oracle = inst.empirical
        est = pca_cca(inst.x, inst.y, 3, m=3)
        score = pcc(inst.x, inst.y, (est.phi, est.psi), (oracle.phi, oracle.psi))
        assert score >= 0.99

    def test_misaligned_principal_subspace_fails(self):
        # canonical latents on the smallest scales: the top-k principal
        # directions are pure filler and the projection discards the signal
        params = PlantedParams(
            n=500, p1=20, p2=20, correlations=(0.9, 0.7, 0.5),
            cond_x=100.0, cond_y=100.0, canonical_scale="low",
        )
        inst = generate_planted(params, seed=9)
        oracle = inst.empirical
        est = pca_cca(inst.x, inst.y, 3, m=3)
        score = pcc(inst.x, inst.y, (est.phi, est.psi), (oracle.phi, oracle.psi))
        assert score <= 0.5

    def test_endpoint_monotonicity(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        p = min(X.shape[1], Y.shape[1])
        low = pca_cca(X, Y, 3, m=3)
        high = pca_cca(X, Y, 3, m=p)
        assert tcc(X, Y, high.phi, high.psi) >= tcc(X, Y, low.phi, low.psi) - 1e-10

    def test_drops_the_directions_a_view_does_not_span(self, rank3_pair):
        X, Y = rank3_pair
        Sx, Sy, Sxy = moments(X, Y)
        for model in (pca_cca(X, Y, 2, m=8),
                      run_experiment(SolverConfig(solver="pca-cca", k=2), x=X, y=Y).model):
            for G, target in ((model.phi.T @ Sx @ model.phi, np.eye(2)),
                              (model.psi.T @ Sy @ model.psi, np.eye(2)),
                              (model.phi.T @ Sxy @ model.psi, np.diag(model.lam))):
                assert np.abs(G - target).max() <= 1e-10
        for run in (lambda: pca_cca(X, Y, 4, m=16),
                    lambda: run_experiment(SolverConfig(solver="pca-cca", k=4), x=X, y=Y)):
            with pytest.raises(linalg.SingularMatrixError, match="view x spans 3 .*k=4"):
                run()
        assert pca_cca(X, Y, 4, m=16, lam=0.1).k == 4  # a ridge drops nothing

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_a_full_rank_view_keeps_all_m_directions_bit_for_bit(self, small_instance, lam):
        X, Y = small_instance.x, small_instance.y
        Vx, Vy = (linalg.randomized_svd(A, 8, oversample=OVERSAMPLE, power_iters=POWER_ITERS,
                                        seed=seed)[2] for A, seed in ((X, 0), (Y, 1)))
        inner = spectral_cca(X @ Vx, Y @ Vy, 3, lam=lam)
        est = pca_cca(X, Y, 3, m=8, lam=lam)
        for got, want in zip((est.phi, est.psi), fix_signs(Vx @ inner.phi, Vy @ inner.psi)):
            assert np.array_equal(got, want)

    def test_m_out_of_range(self, small_instance):
        with pytest.raises(ValueError):
            pca_cca(small_instance.x, small_instance.y, 3, m=2)
        with pytest.raises(ValueError):
            pca_cca(small_instance.x, small_instance.y, 3, m=13)


class TestCommonProperties:
    def test_all_baselines_bounded_by_oracle(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        oracle = small_instance.empirical
        best = tcc(X, Y, oracle.phi, oracle.psi)
        for est in (nw_cca(X, Y, 3), dw_cca(X, Y, 3), pca_cca(X, Y, 3, m=6)):
            assert tcc(X, Y, est.phi, est.psi) <= best + 1e-8

    def test_deterministic_under_fixed_seed(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        for fn in (
            lambda: nw_cca(X, Y, 3, seed=7),
            lambda: dw_cca(X, Y, 3, seed=7),
            lambda: pca_cca(X, Y, 3, m=6, seed=7),
        ):
            a, b = fn(), fn()
            assert np.array_equal(a.phi, b.phi)
            assert np.array_equal(a.psi, b.psi)
            assert np.array_equal(a.lam, b.lam)
