"""Tests for the batch first-order solver: fixed points, gradient correctness,
step-size formulas, error tracking, and the end-to-end runner."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from ccakit import appgrad, linalg, metrics, stochastic
from ccakit.appgrad import (
    AppGradState,
    StepSizes,
    appgrad_step,
    appgrad_step_rank1,
    default_step,
    error_metric,
    extract_model,
    moment_pair,
    normalize_columns,
    procrustes_distance,
    random_init,
    run_appgrad,
    theoretical_step_size,
)
from ccakit.harness import SolverConfig, run_experiment
from ccakit.linalg import DegenerateIterateError, SingularMatrixError, as_matrix, gram, induced_norm
from ccakit.planted import PlantedParams, generate_planted
from ccakit.metrics import moment_pair_flops, moments, projected_correlations, step_flops, tcc
from ccakit.reference import CcaModel, spectral_cca
from ccakit.stochastic import (MinibatchPlan, StepSchedule, cross_validate_step, run_stochastic,
                               stochastic_appgrad_step)

from conftest import CountingArray, peak_bytes, random_orthogonal


def rank1_state(phi, psi, lam):
    """Scaled fixed-point quadruple for a single canonical pair."""
    p = phi.reshape(-1, 1)
    q = psi.reshape(-1, 1)
    return AppGradState(p, q, lam * p, lam * q)


class TestFixedPoints:
    def test_rank1_fixed_for_every_pair(self):
        # every canonical pair with a nonzero correlation is a fixed point
        params = PlantedParams(
            n=300, p1=6, p2=6, correlations=(0.9, 0.7, 0.5, 0.3, 0.2, 0.1)
        )
        inst = generate_planted(params, seed=3)
        truth = spectral_cca(inst.x, inst.y, 6)
        eta = default_step(inst.x, inst.y)
        for i in range(6):
            state = rank1_state(truth.phi[:, i], truth.psi[:, i], truth.lam[i])
            new = appgrad_step_rank1(state, eta, inst.x, inst.y)
            moved = max(
                np.linalg.norm(new.phi - state.phi),
                np.linalg.norm(new.psi - state.psi),
                np.linalg.norm(new.phi_tilde - state.phi_tilde),
                np.linalg.norm(new.psi_tilde - state.psi_tilde),
            )
            assert moved < 1e-8, f"pair {i} moved by {moved:.3e}"

    def test_rank_k_fixed_up_to_rotation(self, small_instance):
        truth = small_instance.empirical
        L = np.diag(truth.lam)
        eta = default_step(small_instance.x, small_instance.y)
        rng = np.random.default_rng(21)
        for _ in range(20):
            Q = random_orthogonal(3, rng)
            state = AppGradState(
                truth.phi @ Q, truth.psi @ Q, truth.phi @ L @ Q, truth.psi @ L @ Q
            )
            new = appgrad_step(state, eta, small_instance.x, small_instance.y)
            moved = max(
                np.linalg.norm(new.phi - state.phi),
                np.linalg.norm(new.psi - state.psi),
                np.linalg.norm(new.phi_tilde - state.phi_tilde),
                np.linalg.norm(new.psi_tilde - state.psi_tilde),
            )
            assert moved < 1e-8

    def test_runner_stops_fast_at_fixed_point(self, small_instance):
        truth = small_instance.empirical
        L = np.diag(truth.lam)
        init = AppGradState(truth.phi, truth.psi, truth.phi @ L, truth.psi @ L)
        model, report = run_appgrad(
            small_instance.x, small_instance.y, 3, init=init, seed=0
        )
        assert model.converged
        assert report.final_state.t <= 2


class TestStepMechanics:
    def test_zero_step_only_renormalizes(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        state = random_init(X, Y, 3, seed=5)
        # make the tilde parts differ from the normalized parts
        state = AppGradState(
            state.phi, state.psi, 2.5 * state.phi_tilde, 0.3 * state.psi_tilde
        )
        new = appgrad_step(state, StepSizes.constant(0.0), X, Y)
        assert np.allclose(new.phi_tilde, state.phi_tilde)
        assert np.allclose(new.psi_tilde, state.psi_tilde)
        Gx = new.phi.T @ gram(X) @ new.phi
        Gy = new.psi.T @ gram(Y) @ new.psi
        assert np.allclose(Gx, np.eye(3), atol=1e-8)
        assert np.allclose(Gy, np.eye(3), atol=1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 6))
        Y = rng.standard_normal((40, 5))
        n = 40
        Pt = rng.standard_normal((6, 2))
        Psi = rng.standard_normal((5, 2))

        def objective(W):
            return 0.5 * np.linalg.norm(X @ W - Y @ Psi) ** 2 / n

        grad = X.T @ (X @ Pt - Y @ Psi) / n
        h = 1e-6
        fd = np.empty_like(grad)
        for i in range(6):
            for j in range(2):
                E = np.zeros((6, 2))
                E[i, j] = h
                fd[i, j] = (objective(Pt + E) - objective(Pt - E)) / (2 * h)
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-5

    def test_small_step_decreases_objective(self):
        params = PlantedParams(n=200, p1=10, p2=10, correlations=(0.8, 0.5))
        inst = generate_planted(params, seed=2)
        X, Y = inst.x, inst.y
        state = random_init(X, Y, 2, seed=9)
        before = np.linalg.norm(X @ state.phi_tilde - Y @ state.psi) ** 2
        new = appgrad_step(state, StepSizes.constant(1e-3), X, Y)
        after = np.linalg.norm(X @ new.phi_tilde - Y @ state.psi) ** 2
        assert after <= before + 1e-12

    def test_normalization_is_idempotent(self, small_instance):
        X = small_instance.x
        rng = np.random.default_rng(4)
        W = rng.standard_normal((X.shape[1], 3))
        once = normalize_columns(X, W)
        twice = normalize_columns(X, once)
        assert np.linalg.norm(twice - once) < 1e-10

    def test_rank_deficient_iterate_raises(self, small_instance):
        X = small_instance.x
        w = np.random.default_rng(0).standard_normal(X.shape[1])
        W = np.column_stack([w, w])  # identical columns: singular 2x2 Gram
        with pytest.raises(DegenerateIterateError):
            normalize_columns(X, W)

    def test_a_draw_the_view_cannot_whiten_is_a_typed_error(self, rank3_pair):
        """At k = 4 and lam = 0 a rank-3 view cannot whiten any Gaussian draw, so no restart can
        help: the run raises SingularMatrixError naming the view, the run's rank and lam."""
        X, Y = rank3_pair
        for solver in ("appgrad", "stochastic-appgrad"):
            with pytest.raises(SingularMatrixError, match=r"view x .*rank-4 .*lam=0\.0"):
                run_experiment(SolverConfig(solver=solver, k=4, max_iters=5), x=X, y=Y)
            run_experiment(SolverConfig(solver=solver, k=4, lam=0.1, max_iters=5), x=X, y=Y)
        with pytest.raises(SingularMatrixError, match="rank-4"):  # the run's rank: k + oversample
            run_experiment(SolverConfig(solver="appgrad", k=2, oversample=2, max_iters=5),
                           x=X, y=Y)
        with pytest.raises(SingularMatrixError, match="rank-4"):
            cross_validate_step(X, Y, 4, [0.01, 0.1])

    def test_a_zero_view_at_rank_1_is_named_and_advised_a_positive_lam(self):
        """At k = 1 only a zero view cannot whiten the draw, so no lower rank can help."""
        Y = np.random.default_rng(4).standard_normal((200, 4))
        for solver in ("als", "appgrad", "stochastic-appgrad"):
            with pytest.raises(SingularMatrixError, match=r"view x .*rank-1 .*lam=0\.0: it is "
                                                          r"numerically zero; set a positive lam$"):
                run_experiment(SolverConfig(solver=solver, k=1, max_iters=5),
                               x=np.zeros((200, 5)), y=Y)

    def test_rank1_step_rejects_wide_state(self, small_instance):
        state = random_init(small_instance.x, small_instance.y, 2, seed=1)
        with pytest.raises(ValueError):
            appgrad_step_rank1(
                state, StepSizes.constant(0.1), small_instance.x, small_instance.y
            )

    def test_rank1_step_rejects_a_collapsed_iterate(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        s = random_init(X, Y, 1, seed=1)
        for scale, collapsed in ((1e-13, False), (1e-15, True)):
            state = AppGradState(s.phi, s.psi, scale * s.phi, s.psi)  # ||phi_tilde||_S = scale
            if collapsed:
                with pytest.raises(DegenerateIterateError, match="1e-14 induced norm"):
                    appgrad_step_rank1(state, StepSizes(0.0, 0.0), X, Y)
            else:
                appgrad_step_rank1(state, StepSizes(0.0, 0.0), X, Y)

    def test_one_collapse_bound_holds_at_rank_1(self):
        """Views with no cross-correlation shrink a rank-1 tilde iterate geometrically: the rank-1
        step, the rank-k step at k = 1 and a run raise the one collapse error at the same t."""
        rng = np.random.default_rng(0)
        X, Y = rng.standard_normal((400, 5)), rng.standard_normal((400, 5))
        Y -= X @ np.linalg.lstsq(X, Y, rcond=None)[0]  # so X'Y is about 5e-14
        eta, collapsed_at = default_step(X, Y), []
        for step in (appgrad_step_rank1, appgrad_step):
            state = random_init(X, Y, 1, seed=0)
            with pytest.raises(DegenerateIterateError, match="1e-14 induced norm"):
                for _ in range(1000):
                    state = step(state, eta, X, Y)
            collapsed_at.append(state.t + 1)
        t = collapsed_at[0]
        assert collapsed_at == [t, t] and 10 < t < 1000
        run_appgrad(X, Y, 1, tol=0.0, record_every=0, max_iters=t - 1)
        with pytest.raises(DegenerateIterateError, match="1e-14 induced norm"):
            run_appgrad(X, Y, 1, tol=0.0, record_every=0, max_iters=t)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            StepSizes(-0.1, 0.1)


class TestTheoreticalStepSize:
    def test_extreme_case(self):
        eta, delta, rate = theoretical_step_size(1.0, 0.0, 1.0, 1e-300)
        assert abs(delta - 1.0) < 1e-12
        assert abs(eta - 1.0 / 6.0) < 1e-12
        assert rate is None

    def test_independent_rederivation(self):
        lam1, lam2, L1, L2, e0 = 0.9, 0.5, 2.0, 3.0, 0.1
        eta, delta, rate = theoretical_step_size(lam1, lam2, L1, e0, L2)
        gap = lam1**2 - lam2**2
        want_delta = 1.0 - np.sqrt(1.0 - (2.0 * gap - L1 * e0) / (2.0 * lam1**2))
        assert abs(delta - want_delta) < 1e-12
        assert abs(eta - want_delta / (6.0 * L1)) < 1e-12
        assert abs(rate - (1.0 - want_delta**2 / (6.0 * L1 * L2))) < 1e-12

    def test_boundary_is_excluded(self):
        lam1, lam2, L1 = 0.9, 0.3, 1.5
        bound = 2.0 * (lam1**2 - lam2**2) / L1
        with pytest.raises(ValueError, match="region"):
            theoretical_step_size(lam1, lam2, L1, bound)

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(ValueError):
            theoretical_step_size(0.5, 0.9, 1.0, 0.01)
        with pytest.raises(ValueError):
            theoretical_step_size(0.9, 0.5, 0.5, 0.01)


class TestDefaultStep:
    @staticmethod
    def view(n, p, seed):
        # the top two Gram eigenvalues differ by 1%, which slows power iteration
        rng = np.random.default_rng(seed)
        s = np.concatenate([[3.0, 2.97], np.linspace(2.0, 0.5, p - 2)])
        U = np.linalg.qr(rng.standard_normal((n, p)))[0] * np.sqrt(n)
        return U * s @ np.linalg.qr(rng.standard_normal((p, p)))[0]

    @pytest.mark.parametrize("p", [12, 200])
    def test_exact_up_to_200_columns(self, p):
        X, Y = self.view(400, p, seed=1), self.view(400, p // 2, seed=2)
        lam = 0.05
        top = max(eigh(gram(X), eigvals_only=True)[-1], eigh(gram(Y), eigvals_only=True)[-1])
        eta = default_step(X, Y, lam)
        want = 1.0 / (2.0 * (top + lam))
        assert abs(eta.eta1 - want) <= 1e-12 * want and eta.eta1 == eta.eta2

    def test_wider_views_keep_the_power_iteration(self, monkeypatch):
        X = self.view(300, 250, seed=3)

        def power_iteration(X, iters=50, seed=0):
            v = np.random.default_rng(seed).standard_normal(X.shape[1])
            v /= np.linalg.norm(v)
            for _ in range(iters):
                w = (X.T @ (X @ v)) / X.shape[0]
                ev = float(v @ w)
                v = w / np.linalg.norm(w)
            return ev

        def no_gram(*_):
            raise AssertionError("a 250-column Gram was formed")

        monkeypatch.setattr(metrics, "gram", no_gram)  # the Grams are formed in metrics.Views
        eta = default_step(X, X, seed=4)
        assert eta.eta1 == 1.0 / (2.0 * power_iteration(X, seed=4))

    @pytest.mark.parametrize("X, Y", [
        (np.zeros((400, 12)), np.zeros((400, 15))),  # narrow: the exact norms
        (sp.csr_matrix((400, 12)), sp.csr_matrix((400, 15))),  # sparse: power estimates
        (np.zeros((400, 12)), np.zeros((400, 201))),  # wide: one exact norm, one estimate
    ], ids=["narrow", "csr", "wide"])
    def test_two_zero_views_need_a_ridge(self, X, Y):
        with pytest.raises(SingularMatrixError, match="lam"):
            default_step(X, Y)
        with pytest.raises(SingularMatrixError, match="lam"):
            run_appgrad(X, Y, 2)
        for name in ("appgrad", "stochastic-appgrad"):
            with pytest.raises(SingularMatrixError, match="lam"):
                run_experiment(SolverConfig(solver=name, k=2, max_iters=5), x=X, y=Y)
        assert default_step(X, Y, lam=0.25) == StepSizes.constant(2.0)  # 1 / (2 lam)


class TestErrorMetric:
    def test_zero_at_fixed_point(self, rank1_instance):
        truth = spectral_cca(rank1_instance.x, rank1_instance.y, 1)
        state = rank1_state(truth.phi[:, 0], truth.psi[:, 0], truth.lam[0])
        assert error_metric(state, truth) < 1e-16

    def test_known_perturbation(self, rank1_instance):
        truth = spectral_cca(rank1_instance.x, rank1_instance.y, 1)
        lam1 = truth.lam[0]
        u = np.zeros(truth.phi.shape[0])
        u[0] = 0.1
        state = rank1_state(truth.phi[:, 0], truth.psi[:, 0], lam1)
        state.phi_tilde = (lam1 * truth.phi[:, 0] + u).reshape(-1, 1)
        assert abs(error_metric(state, truth) - 0.01) < 1e-12

    def test_sign_invariance(self, rank1_instance):
        truth = spectral_cca(rank1_instance.x, rank1_instance.y, 1)
        state = rank1_state(truth.phi[:, 0], truth.psi[:, 0], truth.lam[0])
        flipped = rank1_state(-truth.phi[:, 0], -truth.psi[:, 0], truth.lam[0])
        assert abs(error_metric(flipped, truth) - error_metric(state, truth)) < 1e-14

    def test_dimension_mismatch(self, rank1_instance, small_instance):
        truth = spectral_cca(small_instance.x, small_instance.y, 1)
        state = rank1_state(
            rank1_instance.model.phi[:, 0], rank1_instance.model.psi[:, 0], 0.9
        )
        with pytest.raises(ValueError):
            error_metric(state, truth)


def perturbed_rank1_init(X, Y, truth, e0, seed):
    """Rank-1 state at squared distance e0 from the scaled leading pair."""
    rng = np.random.default_rng(seed)
    lam1 = truth.lam[0]
    u = rng.standard_normal(truth.phi.shape[0])
    v = rng.standard_normal(truth.psi.shape[0])
    scale = np.sqrt(e0 / (u @ u + v @ v))
    pt = lam1 * truth.phi[:, 0] + scale * u
    qt = lam1 * truth.psi[:, 0] + scale * v
    phi = pt / induced_norm(gram(X), pt)
    psi = qt / induced_norm(gram(Y), qt)
    return AppGradState(phi.reshape(-1, 1), psi.reshape(-1, 1),
                        pt.reshape(-1, 1), qt.reshape(-1, 1))


class TestConvergence:
    def test_contraction_inside_region(self, rank1_instance):
        X, Y = rank1_instance.x, rank1_instance.y
        truth = spectral_cca(X, Y, 1)
        lam_full = spectral_cca(X, Y, 2).lam
        L1, L2 = rank1_instance.conditioning()
        bound = 2.0 * (lam_full[0] ** 2 - lam_full[1] ** 2) / L1
        e0 = 0.5 * bound
        eta, delta, rate = theoretical_step_size(
            lam_full[0], lam_full[1], L1, e0, L2
        )
        state = perturbed_rank1_init(X, Y, truth, e0, seed=13)
        steps = StepSizes.constant(eta)
        errs = [error_metric(state, truth)]
        for _ in range(150):
            state = appgrad_step_rank1(state, steps, X, Y)
            errs.append(error_metric(state, truth))
        errs = np.asarray(errs)
        # guaranteed geometric envelope, and actual monotone decrease
        envelope = errs[0] * rate ** np.arange(errs.size)
        assert np.all(errs <= envelope + 1e-12)
        assert np.all(np.diff(errs) <= 1e-12)
        assert errs[-1] < 1e-3 * errs[0]

    def test_angle_bound_along_run(self, rank1_instance):
        # normalized movement is controlled by tilde movement at every iterate
        X, Y = rank1_instance.x, rank1_instance.y
        truth = spectral_cca(X, Y, 1)
        lam1 = truth.lam[0]
        Sx = gram(X)
        phi1 = truth.phi[:, 0]
        state = random_init(X, Y, 1, seed=6)
        eta = default_step(X, Y)
        for _ in range(50):
            phi = state.phi[:, 0]
            sign = 1.0 if phi @ Sx @ phi1 >= 0 else -1.0
            cos = phi @ Sx @ (sign * phi1)  # both sides unit in the x-norm
            lhs = induced_norm(Sx, phi - sign * phi1)
            rhs_tilde = induced_norm(Sx, state.phi_tilde[:, 0] - sign * lam1 * phi1)
            rhs = (1.0 / lam1) * np.sqrt(2.0 / (1.0 + cos)) * rhs_tilde
            assert lhs <= rhs + 1e-10
            state = appgrad_step_rank1(state, eta, X, Y)

    def test_runner_recovers_planted_subspace(self, small_instance):
        from ccakit.metrics import pcc

        X, Y = small_instance.x, small_instance.y
        oracle = small_instance.empirical
        model, report = run_appgrad(X, Y, 3, seed=0, oracle=oracle)
        assert model.converged
        score = pcc(X, Y, (model.phi, model.psi), (oracle.phi, oracle.psi))
        assert score >= 0.999
        # correlations come back sorted and close to the planted levels
        assert np.all(np.diff(model.lam) <= 1e-12)
        assert np.allclose(model.lam, (0.9, 0.6, 0.3), atol=1e-6)

    def test_runner_rank_out_of_range(self, small_instance):
        with pytest.raises(ValueError):
            run_appgrad(small_instance.x, small_instance.y, 13)

    @pytest.mark.parametrize("eta", [0.0, StepSizes(0.0, 0.1), StepSizes(0.1, 0.0)])
    def test_runner_rejects_a_step_that_cannot_move(self, small_instance, eta):
        # a zero step leaves the random initialization in place and "converges" at once
        with pytest.raises(ValueError, match="step sizes must be positive"):
            run_appgrad(small_instance.x, small_instance.y, 2, eta=eta)

    def test_extract_model_diagonalizes(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        truth = small_instance.empirical
        rng = np.random.default_rng(12)
        Q = random_orthogonal(3, rng)
        state = AppGradState(truth.phi @ Q, truth.psi @ Q,
                             truth.phi @ Q, truth.psi @ Q)
        model = extract_model(X, Y, state)
        C = model.phi.T @ (X.T @ Y / X.shape[0]) @ model.psi
        off = C - np.diag(np.diag(C))
        assert np.linalg.norm(off) < 1e-8
        assert np.allclose(model.lam, truth.lam, atol=1e-8)

    def test_report_trace_shape(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        model, report = run_appgrad(
            X, Y, 3, seed=0, oracle=small_instance.empirical, record_every=5
        )
        report.validate()
        ts = [r.t for r in report.records]
        assert ts == sorted(ts)
        flops = [r.flops for r in report.records]
        assert all(b >= a for a, b in zip(flops, flops[1:]))
        assert all(np.isfinite(r.pcc_train) for r in report.records)

    def test_record_every_zero_records_nothing(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        _, report = run_appgrad(X, Y, 2, seed=0, record_every=0, max_iters=7, tol=0.0)
        assert report.records == [] and report.final_state.t == 7
        with pytest.raises(ValueError, match="record_every"):
            run_appgrad(X, Y, 2, seed=0, record_every=-1)

    def test_oracle_capturing_nothing_raises(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        oracle = CcaModel(np.zeros((X.shape[1], 2)), np.zeros((Y.shape[1], 2)), np.zeros(2))
        with pytest.raises(ValueError, match="oracle captures no correlation"):
            run_appgrad(X, Y, 2, seed=0, oracle=oracle, max_iters=5)

    def test_last_record_is_the_final_iterate(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        _, report = run_appgrad(X, Y, 3, seed=0, record_every=5, max_iters=7, tol=0.0)
        assert [r.t for r in report.records] == [1, 5, 7]
        final = report.final_state
        assert final.t == 7
        assert report.records[-1].tcc_train == pytest.approx(
            tcc(X, Y, final.phi, final.psi), rel=1e-12)


class TestStoppingRule:
    """The run stops when the whitened projections X phi, Y psi move less than ``tol`` RMS."""

    @pytest.fixture(scope="class")
    def instance(self):
        params = PlantedParams(n=2000, p1=20, p2=20, correlations=(0.9, 0.6, 0.3), noise=0.3)
        return generate_planted(params, seed=0)

    @pytest.fixture(scope="class")
    def unit_run(self, instance):
        return run_experiment(SolverConfig(solver="appgrad", k=2, seed=1, max_iters=200),
                              x=instance.x, y=instance.y)

    @pytest.mark.parametrize("scale", [1e-9, 1e-7, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e7])
    def test_the_stop_ignores_the_data_scale(self, instance, unit_run, scale):
        # phi scales as 1/scale, so a test on phi itself stopped after 200 .. 1 iterations
        cfg = SolverConfig(solver="appgrad", k=2, seed=1, max_iters=200)
        got = run_experiment(cfg, x=scale * instance.x, y=scale * instance.y)
        assert got.report.final_state.t == unit_run.report.final_state.t > 1
        assert got.model.converged is unit_run.model.converged is True
        assert got.pcc_train == pytest.approx(unit_run.pcc_train, rel=1e-9)

    def test_the_first_cached_step_is_the_first_tested(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        model, report = run_appgrad(X, Y, 2, seed=0, tol=1.0, max_iters=30)
        assert (report.final_state.t, model.converged) == (2, True)

    def test_a_step_that_drops_the_cache_never_stops_early(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        model, report = run_appgrad(X, Y, 2, seed=0, tol=1.0, max_iters=30,
                                    step_fn=lambda *a: replace(appgrad_step(*a)))
        assert report.final_state.t == 30
        assert model.converged is False

    def test_procrustes_distance_is_blind_to_an_orthogonal_rotation(self):
        rng = np.random.default_rng(4)
        A, Q = rng.standard_normal((10, 3)), random_orthogonal(3, rng)
        assert procrustes_distance(A, A @ Q) == pytest.approx(0.0, abs=1e-12)
        assert procrustes_distance(A, 2.0 * A @ Q) == pytest.approx(np.linalg.norm(A))


class CountingCSR(sp.csr_matrix):
    """CSR view that counts the n-sized products taken with it, either side."""

    products = 0

    def __matmul__(self, other):
        CountingCSR.products += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        CountingCSR.products += 1
        return super().__rmatmul__(other)


def cached_and_uncached_runs(X, Y, oracle):
    """Runs with and without the projection cache, checked to agree; returns the cached report."""
    def uncached_step(state, eta, X, Y, lam):
        return replace(appgrad_step(state, eta, X, Y, lam))

    runs = [run_appgrad(X, Y, 3, seed=1, max_iters=60, tol=0.0, record_every=3,
                        oracle=oracle, step_fn=step)
            for step in (appgrad_step, uncached_step)]
    (m_c, r_c), (m_u, r_u) = runs
    assert [r.t for r in r_c.records] == [r.t for r in r_u.records]
    for a, b in zip(r_c.records, r_u.records):
        assert abs(a.tcc_train - b.tcc_train) < 1e-10
        assert abs(a.pcc_train - b.pcc_train) < 1e-10
        assert a.flops <= b.flops
    # after the first step, the uncached run is charged its extra products
    assert r_c.records[-1].flops < r_u.records[-1].flops
    for A, B in ((m_c.phi, m_u.phi), (m_c.psi, m_u.psi), (m_c.lam, m_u.lam)):
        assert np.abs(A - B).max() < 1e-10
    return r_c


class TestProjectionCache:
    def test_discarding_the_cache_changes_no_result(self, small_instance):
        cached_and_uncached_runs(small_instance.x, small_instance.y, small_instance.empirical)

    def test_discarding_the_cache_changes_no_result_on_the_rows(self, small_instance):
        # 100 rows < 4 (p1 + p2): the run reads the n rows through the cache on every step
        X, Y = small_instance.x[:100], small_instance.y[:100]
        report = cached_and_uncached_runs(X, Y, spectral_cca(X, Y, 3))
        assert report.records[0].flops == step_flops(100, 12, 15, 3)
        assert report.records[1].flops == (report.records[0].flops
                                           + 2 * step_flops(100, 12, 15, 3, cached=True))

    def test_cache_is_ignored_on_other_rows(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        eta = default_step(X, Y)
        state = appgrad_step(random_init(X, Y, 3, seed=2), eta, X, Y)
        assert state.cached_on(X, Y)
        rng = np.random.default_rng(3)
        others = [(X.copy(), Y.copy()),  # equal values, other objects
                  (rng.standard_normal(X.shape), rng.standard_normal(Y.shape)),
                  (X[:200], Y[:200])]
        uncached = replace(state)  # which drops the whiteners too: restore them
        uncached.whiteners = state.whiteners
        for X2, Y2 in others:
            assert not state.cached_on(X2, Y2)
            got = appgrad_step(state, eta, X2, Y2)
            want = appgrad_step(uncached, eta, X2, Y2)
            for name in ("phi", "psi", "phi_tilde", "psi_tilde"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_cached_projections_match_recomputed(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        eta = default_step(X, Y)
        state = random_init(X, Y, 3, seed=4)
        for _ in range(5):
            state = appgrad_step(state, eta, X, Y)
        cached = state.projections(X, Y)
        fresh = replace(state).projections(X, Y)
        for a, b in zip(cached, fresh):
            assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()

    def test_sparse_step_matches_dense_and_stays_sparse(self):
        Xs = sp.random(300, 20, density=0.3, format="csr", random_state=1)
        Ys = sp.random(300, 15, density=0.3, format="csr", random_state=2)
        Xd, Yd = Xs.toarray(), Ys.toarray()
        eta = StepSizes.constant(0.1)
        dense = sparse = random_init(Xd, Yd, 2, seed=0)
        for _ in range(3):  # the first step misses the cache, the rest hit it
            dense = appgrad_step(dense, eta, Xd, Yd)
            sparse = appgrad_step(sparse, eta, Xs, Ys)
            for name in ("phi", "psi", "phi_tilde", "psi_tilde"):
                assert np.abs(getattr(dense, name) - getattr(sparse, name)).max() < 1e-12
            assert sparse.cache[0] is Xs and sp.issparse(sparse.cache[0])
        _, dense_rep = run_appgrad(Xd, Yd, 2, seed=0, max_iters=3, tol=0.0)
        _, sparse_rep = run_appgrad(Xs, Ys, 2, seed=0, max_iters=3, tol=0.0)
        # sparse views are charged 2*nnz*k per product, not 2*n*p*k
        assert sparse_rep.records[-1].flops < dense_rep.records[-1].flops

    def test_batch_step_issues_two_products_per_view(self, small_instance):
        X = CountingCSR(sp.csr_matrix(small_instance.x))
        Y = CountingCSR(sp.csr_matrix(small_instance.y))
        eta = default_step(small_instance.x, small_instance.y)
        state = random_init(small_instance.x, small_instance.y, 3, seed=0)
        counts = []
        for _ in range(3):
            CountingCSR.products = 0
            state = appgrad_step(state, eta, X, Y)
            counts.append(CountingCSR.products)
        assert counts == [6, 4, 4]  # 3 per view without the cache (from the whiteners), 2 with it

    def test_cache_is_keyed_to_the_callers_views(self, small_instance, monkeypatch):
        # float32 views are converted on every call; the cache must still hit
        X32 = small_instance.x.astype(np.float32)
        Y32 = small_instance.y.astype(np.float32)
        X64, Y64 = X32.astype(float), Y32.astype(float)
        eta = default_step(X64, Y64)
        init = random_init(X64, Y64, 3, seed=0)
        monkeypatch.setattr(appgrad, "as_matrix",
                            lambda A: as_matrix(A).view(CountingArray))
        s32, s64, counts = init, init, []
        for _ in range(3):
            CountingArray.products = 0
            s32 = appgrad_step(s32, eta, X32, Y32)
            counts.append(CountingArray.products)
            assert s32.cached_on(X32, Y32)
            s64 = appgrad_step(s64, eta, X64, Y64)
            for name in ("phi", "psi", "phi_tilde", "psi_tilde"):
                assert np.abs(getattr(s32, name) - getattr(s64, name)).max() < 1e-10
        # uncached: 2 projections, 2 gradient and 2 whitening products; cached: the last 4
        assert counts == [6, 4, 4]

    def test_minibatch_step_on_the_same_rows_reads_the_cache(self, small_instance):
        X = CountingCSR(sp.csr_matrix(small_instance.x[:50]))
        Y = CountingCSR(sp.csr_matrix(small_instance.y[:50]))
        eta = default_step(small_instance.x, small_instance.y)
        state, counts = random_init(small_instance.x, small_instance.y, 3, seed=0), []
        for _ in range(2):
            CountingCSR.products = 0
            state = stochastic_appgrad_step(state, eta, X, Y)
            counts.append(CountingCSR.products)
        assert counts == [6, 4]  # 3 per view, then 2 from the cache
        # the cache holds what the whiteners would give, bit for bit
        uncached = replace(state)
        uncached.whiteners = state.whiteners
        for a, b in zip(state.projections(X, Y), uncached.projections(X, Y)):
            assert np.array_equal(a, b)

    def test_final_state_does_not_pin_the_data(self, small_instance):
        X, Y = small_instance.x.copy(), small_instance.y.copy()
        refs = weakref.ref(X), weakref.ref(Y)
        model, report = run_appgrad(X, Y, 3, seed=0, max_iters=20)
        assert report.final_state.cache is None
        assert report.final_state.t == 20
        del X, Y
        gc.collect()
        assert refs[0]() is None and refs[1]() is None


@pytest.fixture(scope="module")
def blocked_instance():
    """Dense views wider than ``small_instance``'s, with p1 != p2."""
    params = PlantedParams(n=2500, p1=120, p2=90, correlations=(0.9, 0.6, 0.3))
    return generate_planted(params, seed=5)


class TestDenseStepCache:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_trajectory_matches_uncached_steps(self, blocked_instance, k, lam, dtype):
        X, Y = blocked_instance.x.astype(dtype), blocked_instance.y.astype(dtype)
        step = appgrad_step_rank1 if k == 1 else appgrad_step
        eta = default_step(X, Y, lam)
        cached = uncached = random_init(X, Y, k, seed=1, lam=lam)
        for _ in range(50):
            cached = step(cached, eta, X, Y, lam)
            uncached = replace(step(uncached, eta, X, Y, lam))
        for name in ("phi", "psi", "phi_tilde", "psi_tilde"):
            a, b = getattr(cached, name), getattr(uncached, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert cached.tcc(X, Y) == pytest.approx(uncached.tcc(X, Y), rel=1e-12)


class TestOverflow:
    """A diverging step raises a typed error and no floating-point warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eta", [10.0, 1e8, 1e200])
    @pytest.mark.parametrize("case", ["blocked", "single-block", "sparse", "minibatch",
                                      "blocked-steps"])
    def test_diverging_run_raises_overflow(self, small_instance, blocked_instance, case, eta):
        inst = blocked_instance if case.startswith("blocked") else small_instance
        X, Y = inst.x, inst.y
        if case == "sparse":
            X, Y = sp.csr_matrix(X), sp.csr_matrix(Y)
        with pytest.raises(DegenerateIterateError, match="iterate overflowed"):
            if case == "blocked-steps":  # run_appgrad would run on the views' moment pair
                state, eta = random_init(X, Y, 3, seed=0), StepSizes.constant(eta)
                for _ in range(2000):
                    state = appgrad_step(state, eta, X, Y)
            elif case == "minibatch":
                run_stochastic(X, Y, 3, MinibatchPlan(m=50, seed=0),
                               StepSchedule("constant", eta0=eta), max_iters=2000, seed=0)
            else:
                run_appgrad(X, Y, 3, eta=eta, max_iters=2000, tol=0.0, seed=0)


class TestNonFiniteData:
    """A non-finite entry in a view is reported as bad data on every route, never as a
    diverging step, though only the moment pair scans the views up front."""

    ROUTES = {
        "moment-pair": lambda X, Y: run_appgrad(X, Y, 2, eta=0.1, seed=0),
        "rows": lambda X, Y: run_appgrad(X[:100], Y[:100], 2, eta=0.1, seed=0),  # 4(p1+p2) > n
        "csr": lambda X, Y: run_appgrad(sp.csr_matrix(X), sp.csr_matrix(Y), 2, seed=0),
        "csr-eta": lambda X, Y: run_appgrad(sp.csr_matrix(X), sp.csr_matrix(Y), 2, eta=0.1),
        "minibatch": lambda X, Y: run_stochastic(X, Y, 2, MinibatchPlan(m=50),
                                                 StepSchedule(eta0=0.1), max_iters=5),
        "cross-validation": lambda X, Y: cross_validate_step(X, Y, 2, [0.01, 0.1], budget=5),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_raises_value_error(self, small_instance, route, value):
        X = small_instance.x.copy()
        X[3, 2] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            self.ROUTES[route](X, small_instance.y)


class FlopArray(np.ndarray):
    """Dense view that charges 2*rows*cols*width for every product taken with it."""

    flops = 0

    def __matmul__(self, other):
        FlopArray.flops += 2 * self.size * other.shape[1]
        return np.asarray(self) @ np.asarray(other)  # a FlopArray on the right is not charged twice

    def __rmatmul__(self, other):
        FlopArray.flops += 2 * self.size * other.shape[0]
        return other @ np.asarray(self)


class FlopCSR(sp.csr_matrix):
    """CSR view that charges 2*nnz*width for every product taken with it."""

    flops = 0

    def __matmul__(self, other):
        FlopCSR.flops += 2 * self.nnz * other.shape[1]
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        FlopCSR.flops += 2 * self.nnz * other.shape[0]
        return super().__rmatmul__(other)


def product_flops(m, p1, p2, k, *nnz, **kw):
    """The product term of ``step_flops``: its charge less that of empty views."""
    return step_flops(m, p1, p2, k, *nnz, **kw) - step_flops(m, p1, p2, k, 0, 0)


class TestFlopCharge:
    """``step_flops`` charges exactly the products each step issues."""

    def test_dense_batch_steps(self, blocked_instance, monkeypatch):
        X, Y = blocked_instance.x, blocked_instance.y
        (n, p1), p2 = X.shape, Y.shape[1]
        eta = default_step(X, Y)
        state = random_init(X, Y, 3, seed=0)
        monkeypatch.setattr(appgrad, "as_matrix", lambda A: as_matrix(A).view(FlopArray))
        for cached in (False, True, True):
            FlopArray.flops = 0
            state = appgrad_step(state, eta, X, Y)
            assert FlopArray.flops == product_flops(n, p1, p2, 3, cached=cached)
        assert FlopArray.flops == 2 * 2 * n * (p1 + p2) * 3  # 2 products per view

    def test_sparse_batch_steps(self, small_instance):
        X, Y = FlopCSR(sp.csr_matrix(small_instance.x)), FlopCSR(sp.csr_matrix(small_instance.y))
        (n, p1), p2 = X.shape, Y.shape[1]
        eta = default_step(small_instance.x, small_instance.y)
        state = random_init(small_instance.x, small_instance.y, 3, seed=0)
        for cached in (False, True, True):
            FlopCSR.flops = 0
            state = appgrad_step(state, eta, X, Y)
            assert FlopCSR.flops == product_flops(n, p1, p2, 3, X.nnz, Y.nnz, cached=cached)

    def test_minibatch_step(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        p1, p2 = X.shape[1], Y.shape[1]
        eta = default_step(X, Y)
        state = random_init(X, Y, 3, seed=0)
        monkeypatch.setattr(appgrad, "as_matrix", lambda A: as_matrix(A).view(FlopArray))
        batches = [(X[start:start + 50], Y[start:start + 50]) for start in (0, 50, 100)]
        # new rows issue 3 products per view; the last batch's own objects again read the cache
        for (X_I, Y_I), cached in zip([*batches, batches[-1]], (False, False, False, True)):
            FlopArray.flops = 0
            state = stochastic_appgrad_step(state, eta, X_I, Y_I)
            assert FlopArray.flops == product_flops(50, p1, p2, 3, cached=cached)

    def test_hand_built_state_pays_a_fourth_product_once(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        p1, p2 = X.shape[1], Y.shape[1]
        eta = default_step(X, Y)
        init = random_init(X, Y, 3, seed=0)
        state = AppGradState(init.phi, init.psi, init.phi_tilde, init.psi_tilde)
        monkeypatch.setattr(appgrad, "as_matrix", lambda A: as_matrix(A).view(FlopArray))
        for products in (4, 3, 3):
            FlopArray.flops = 0
            whitened = state.whiteners is not None
            state = stochastic_appgrad_step(state, eta, X[:50], Y[:50])
            assert FlopArray.flops == products * 2 * 50 * (p1 + p2) * 3
            assert FlopArray.flops == product_flops(50, p1, p2, 3, whitened=whitened)

    def test_run_stochastic_charges_the_products_it_issues(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        p1, p2 = X.shape[1], Y.shape[1]
        step = stochastic.stochastic_appgrad_step

        def counted_step(*args):
            with monkeypatch.context() as m:
                m.setattr(appgrad, "as_matrix", lambda A: as_matrix(A).view(FlopArray))
                return step(*args)

        monkeypatch.setattr(stochastic, "stochastic_appgrad_step", counted_step)
        FlopArray.flops = 0
        _, report = run_stochastic(X, Y, 3, MinibatchPlan(m=60, seed=0),
                                   StepSchedule("constant", eta0=default_step(X, Y).eta1),
                                   max_iters=95, seed=0, record_every=10)
        t = report.records[-1].t
        assert t == 95 and FlopArray.flops > 0
        assert report.records[-1].flops == FlopArray.flops + t * step_flops(60, p1, p2, 3, 0, 0)


def agreeing_runs(X, Y, k, oracle, **kw):
    """``run_appgrad`` on dense (X, Y) and on their CSR copies, from one step size."""
    eta = default_step(X, Y, kw.get("lam", 0.0))
    return [run_appgrad(A, B, k, eta=eta, seed=3, tol=0.0, max_iters=150, record_every=5,
                        oracle=oracle, **kw)
            for A, B in ((X, Y), (sp.csr_matrix(X), sp.csr_matrix(Y)))]


def first_flops(X, Y, k, **kw):
    return run_appgrad(X, Y, k, seed=0, tol=0.0, **kw)[1].records[0].flops


RANK5 = (0.9, 0.8, 0.7, 0.6, 0.5)
ACCEPTANCE_VIEWS = {  # the instances of acceptance 05 and 07
    "acceptance-05": PlantedParams(n=2000, p1=50, p2=50, correlations=RANK5),
    "acceptance-07": PlantedParams(n=2000, p1=25, p2=25, correlations=RANK5, cond_x=31.6,
                                   cond_y=31.6, latent_rotate=True),
}


class TestMomentPair:
    """Narrow dense views run on a (p1 + p2)-row pair with their moments."""

    def test_pair_has_the_moments(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        pair = moment_pair(X, Y)
        assert pair[0].shape == (27, 12) and pair[1].shape == (27, 15)
        for got, want in zip(moments(*pair), moments(X, Y)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case", [*ACCEPTANCE_VIEWS, "duplicate-lam0", "duplicate-lam0.1",
                                      "rank1", "rows"])
    def test_agrees_with_the_uncompressed_run(self, small_instance, rank1_instance, case):
        kw, k = {}, 3
        if case == "rows":  # 100 < 4 (p1 + p2) rows: both runs step on the n rows
            X, Y = small_instance.x[:100], small_instance.y[:100]
            oracle = spectral_cca(X, Y, 3)
        elif case in ACCEPTANCE_VIEWS:
            inst, k = generate_planted(ACCEPTANCE_VIEWS[case], seed=0), 5
            X, Y, oracle = inst.x, inst.y, inst.empirical
        elif case == "rank1":
            X, Y, oracle, k = rank1_instance.x, rank1_instance.y, rank1_instance.empirical, 1
            kw["step_fn"] = appgrad_step_rank1
        else:
            X, Y = np.hstack((small_instance.x, small_instance.x[:, :1])), small_instance.y
            oracle, kw["lam"] = spectral_cca(X, Y, 3, lam=0.1), float(case[len("duplicate-lam"):])
        (n, p1), p2 = X.shape, Y.shape[1]
        (m_d, r_d), (m_s, r_s) = agreeing_runs(X, Y, k, oracle, **kw)
        # off the rows, the dense run paid for the pair and stepped on p1 + p2 rows; CSR did not
        assert r_d.records[0].flops == (step_flops(n, p1, p2, k) if case == "rows"
                                        else moment_pair_flops(n, p1, p2)
                                        + step_flops(p1 + p2, p1, p2, k))
        assert r_s.records[0].flops == step_flops(n, p1, p2, k, sp.csr_matrix(X).nnz,
                                                  sp.csr_matrix(Y).nnz)
        for a, b in ((m_d.phi, m_s.phi), (m_d.psi, m_s.psi), (m_d.lam, m_s.lam)):
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        assert [r.t for r in r_d.records] == [r.t for r in r_s.records]
        for a, b in zip(r_d.records, r_s.records):
            assert a.pcc_train == pytest.approx(b.pcc_train, rel=1e-10)

    def test_rule_boundaries(self, small_instance):
        X, Y, k = small_instance.x, small_instance.y, 3
        p1, p2 = X.shape[1], Y.shape[1]

        def pair(n):
            return moment_pair_flops(n, p1, p2) + step_flops(p1 + p2, p1, p2, k)

        # 4 (p1 + p2) = 108 rows hold the build; 107 keep the n-row path
        assert first_flops(X[:108], Y[:108], k, max_iters=5) == pair(108)
        assert first_flops(X[:107], Y[:107], k, max_iters=5) == step_flops(107, p1, p2, k)
        # the rule does not weigh the run's length: a one-step run is taken on the pair
        assert first_flops(X, Y, k, max_iters=1) == pair(400)

    def test_build_fits_in_the_views(self):
        # at the rule's boundary n = 4 (p1 + p2); the pair path held about 4 (p1+p2)^2 before
        params = PlantedParams(n=800, p1=100, p2=100, correlations=RANK5)
        inst = generate_planted(params, seed=2)
        X, Y = inst.x, inst.y
        (_, report), peak = peak_bytes(lambda: run_appgrad(X, Y, 5, seed=0, max_iters=5))
        assert report.records[0].flops == (moment_pair_flops(800, 100, 100)
                                           + step_flops(200, 100, 100, 5))
        assert peak <= X.nbytes + Y.nbytes, f"peak {peak / (X.nbytes + Y.nbytes):.2f}x the views"

    @pytest.mark.parametrize("eta", [None, 0.1])
    def test_non_finite_view_raises(self, small_instance, eta):
        X = small_instance.x.copy()
        X[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite entries"):
            run_appgrad(X, small_instance.y, 3, eta=eta, seed=0)

    def test_iterations_do_not_read_the_rows(self, blocked_instance, monkeypatch):
        X, Y = blocked_instance.x.view(FlopArray), blocked_instance.y.view(FlopArray)
        (n, p1), p2 = X.shape, Y.shape[1]
        for module in (metrics, linalg):  # count every product taken with the original views
            monkeypatch.setattr(module, "as_matrix",
                                lambda A: A if isinstance(A, FlopArray) else as_matrix(A))
        counted = []
        for max_iters in (50, 200):
            FlopArray.flops = 0
            _, report = run_appgrad(X, Y, 3, seed=0, tol=0.0, max_iters=max_iters)
            assert report.final_state.t == max_iters
            counted.append(FlopArray.flops)
            assert report.records[0].flops == (moment_pair_flops(n, p1, p2)
                                               + step_flops(p1 + p2, p1, p2, 3))
        # X'X, X'Y and Y'Y, once; the 4 (p1 + p2)^3 rest of the charge is the decomposition's
        assert counted == [2 * n * (p1 * p1 + p1 * p2 + p2 * p2)] * 2
        assert counted[0] == moment_pair_flops(n, p1, p2) - 4 * (p1 + p2)**3


def run_keeping_states(X, Y, k, oracle, lam=0.0):
    """A ``run_appgrad`` that keeps each state its steps made, by t; returns (report, states)."""
    states = {}

    def step(state, eta, X, Y, lam):
        states[state.t + 1] = appgrad_step(state, eta, X, Y, lam)
        return states[state.t + 1]

    _, report = run_appgrad(X, Y, k, lam=lam, seed=2, max_iters=40, tol=0.0, record_every=3,
                            oracle=oracle, step_fn=step)
    return report, states


class TestRecords:
    """A record on the rows the iterate's cache was made on, whitened at lam = 0, is the SVD of
    the cached (X phi)'(Y psi)/m; every other record goes through ``projected_correlations``."""

    ROUTES = {
        "moment-pair": lambda inst: (inst.x, inst.y),
        "rows": lambda inst: (inst.x[:100], inst.y[:100]),  # 100 < 4 (p1 + p2)
        "csr": lambda inst: (sp.csr_matrix(inst.x), sp.csr_matrix(inst.y)),
    }

    @pytest.mark.parametrize("k", [3, 5])  # at k = 5, oversampled and scored over oracle.k = 3
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_a_lam0_record_scores_the_cached_pair(self, route, k, monkeypatch):
        params = PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.7, 0.5, 0.4, 0.3))
        X, Y = self.ROUTES[route](generate_planted(params, seed=7))
        oracle = spectral_cca(X, Y, 3)
        scored = []  # the projections appgrad hands to projected_correlations
        monkeypatch.setattr(appgrad, "projected_correlations",
                            lambda U, V: scored.append(U) or projected_correlations(U, V))
        report, states = run_keeping_states(X, Y, k, oracle)
        assert [r.t for r in report.records] == [1, *range(3, 40, 3), 40]
        assert scored == []
        for r in report.records:
            U, V = states[r.t].cache[2][1::2]
            assert r.tcc_train == pytest.approx(projected_correlations(U, V)[:3].sum(), rel=1e-12)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_a_ridged_record_is_projected_correlations(self, small_instance, route):
        X, Y = self.ROUTES[route](small_instance)
        report, states = run_keeping_states(X, Y, 3, spectral_cca(X, Y, 3, lam=0.1), lam=0.1)
        for r in report.records:
            U, V = states[r.t].cache[2][1::2]
            assert r.tcc_train == float(projected_correlations(U, V).sum())

    def test_a_state_off_its_cache_rows_is_scored_by_projected_correlations(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        state = appgrad_step(random_init(X, Y, 3, seed=0), default_step(X, Y), X, Y)
        Xc, Yc = X.copy(), Y.copy()  # equal values, other objects
        want = float(projected_correlations(Xc @ state.phi, Yc @ state.psi).sum())
        assert state.tcc(Xc, Yc) == want
        assert state.tcc(X, Y) == pytest.approx(want, rel=1e-12)


class TestStackedWhitening:
    """A step whitens both views with one eigendecomposition of their stacked k-by-k Grams,
    bit for bit as one per view, and raises the error of the first view that fails."""

    def test_a_step_takes_one_eigendecomposition(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        state, eta = random_init(X, Y, 3, seed=0), default_step(X, Y)
        eigh, shapes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda G: shapes.append(G.shape) or eigh(G))
        for _ in range(3):  # the first step misses the cache, the rest hit it
            shapes.clear()
            state = appgrad_step(state, eta, X, Y)
            assert shapes == [(2, 3, 3)]
        shapes.clear()
        extract_model(X, Y, state)
        assert shapes == [(2, 3, 3)]

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_the_stack_equals_one_call_per_view(self, small_instance, lam):
        X, Y = small_instance.x, sp.csr_matrix(small_instance.y)
        rng = np.random.default_rng(5)
        for k in (1, 3, 7):
            P, Q = rng.standard_normal((12, k)), rng.standard_normal((15, k))
            both = appgrad._whiten((X, Y), (P, Q), lam)
            for got, want in zip(both, (appgrad._whiten([X], [P], lam)[0],
                                        appgrad._whiten([Y], [Q], lam)[0])):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_the_first_failing_view_raises_its_own_error(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        base = random_init(X, Y, 2, seed=0)
        px, qy = base.phi_tilde, base.psi_tilde
        flat = {"x": np.hstack([px[:, :1]] * 2), "y": 3 * np.hstack([qy[:, :1]] * 2)}  # rank 1
        huge = {"x": 1e200 * px, "y": 1e200 * qy}  # a Gram that overflows

        def raised(fn, *args):
            with pytest.raises((DegenerateIterateError, ValueError)) as info:
                fn(*args)
            return type(info.value), str(info.value)

        def step(pt, qt, X=X):  # eta = 0 keeps the tilde iterates, so the step whitens pt, qt
            return raised(appgrad_step, AppGradState(base.phi, base.psi, pt, qt),
                          StepSizes(0.0, 0.0), X, Y)

        bad = {"flat": flat, "huge": huge}
        alone = {(side, kind): raised(normalize_columns, A, bad[kind][side])
                 for side, A in (("x", X), ("y", Y)) for kind in bad}
        assert alone["x", "flat"] != alone["y", "flat"]
        assert "overflowed" in alone["x", "huge"][1]
        assert step(flat["x"], qy) == alone["x", "flat"]  # only x fails
        assert step(px, flat["y"]) == alone["y", "flat"]  # only y fails
        assert step(px, huge["y"]) == alone["y", "huge"]
        for x_kind in bad:  # both fail: x's error
            for y_kind in bad:
                assert step(bad[x_kind]["x"], bad[y_kind]["y"]) == alone["x", x_kind]
        X_bad = X.copy()
        X_bad[4, 1] = np.nan  # bad data in x is x's error, whatever y's Gram
        assert step(px, huge["y"], X_bad) == (ValueError, "matrix contains non-finite entries")
