"""Tests for the batch first-order solver: fixed points, gradient correctness,
step-size formulas, error tracking, and the end-to-end runner."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from ccakit import appgrad
from ccakit.appgrad import (
    AppGradState,
    StepSizes,
    appgrad_step,
    appgrad_step_rank1,
    default_step,
    error_metric,
    extract_model,
    normalize_columns,
    procrustes_distance,
    random_init,
    run_appgrad,
    theoretical_step_size,
)
from ccakit.linalg import DegenerateIterateError, as_matrix, gram, induced_norm
from ccakit.planted import PlantedParams, generate_planted
from ccakit.metrics import step_flops, tcc
from ccakit.reference import spectral_cca
from ccakit.stochastic import MinibatchPlan, StepSchedule, run_stochastic, stochastic_appgrad_step

from conftest import random_orthogonal


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

    def test_rank1_step_rejects_wide_state(self, small_instance):
        state = random_init(small_instance.x, small_instance.y, 2, seed=1)
        with pytest.raises(ValueError):
            appgrad_step_rank1(
                state, StepSizes.constant(0.1), small_instance.x, small_instance.y
            )

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

        monkeypatch.setattr(appgrad, "gram", no_gram)
        eta = default_step(X, X, seed=4)
        assert eta.eta1 == 1.0 / (2.0 * power_iteration(X, seed=4))


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

    def test_last_record_is_the_final_iterate(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        _, report = run_appgrad(X, Y, 3, seed=0, record_every=5, max_iters=7, tol=0.0)
        assert [r.t for r in report.records] == [1, 5, 7]
        final = report.final_state
        assert final.t == 7
        assert report.records[-1].tcc_train == pytest.approx(
            tcc(X, Y, final.phi, final.psi), rel=1e-12)


class CountingCSR(sp.csr_matrix):
    """CSR view that counts the n-sized products taken with it, either side."""

    products = 0

    def __matmul__(self, other):
        CountingCSR.products += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        CountingCSR.products += 1
        return super().__rmatmul__(other)


class CountingArray(np.ndarray):
    """Dense view that counts the n-sized products taken with it, either side."""

    products = 0

    def __matmul__(self, other):
        CountingArray.products += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        CountingArray.products += 1
        return other @ np.asarray(self)


class TestProjectionCache:
    def test_discarding_the_cache_changes_no_result(self, small_instance):
        X, Y = small_instance.x, small_instance.y

        def uncached_step(state, eta, X, Y, lam):
            return replace(appgrad_step(state, eta, X, Y, lam))

        runs = [run_appgrad(X, Y, 3, seed=1, max_iters=60, tol=0.0, record_every=3,
                            oracle=small_instance.empirical, step_fn=step)
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

    def test_cache_is_ignored_on_other_rows(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        eta = default_step(X, Y)
        state = appgrad_step(random_init(X, Y, 3, seed=2), eta, X, Y)
        assert state.cached_on(X, Y)
        rng = np.random.default_rng(3)
        others = [(X.copy(), Y.copy()),  # equal values, other objects
                  (rng.standard_normal(X.shape), rng.standard_normal(Y.shape)),
                  (X[:200], Y[:200])]
        for X2, Y2 in others:
            assert not state.cached_on(X2, Y2)
            got = appgrad_step(state, eta, X2, Y2)
            want = appgrad_step(replace(state), eta, X2, Y2)
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
        assert counts == [8, 4, 4]  # 4 per view without the cache, 2 with it

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
        # uncached: 4 projections, 2 gradient products and the pass's 2 per view
        assert counts == [10, 4, 4]

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
    """Dense views that the pass reads in 4 full row blocks and a 4-row tail."""
    params = PlantedParams(n=2500, p1=120, p2=90, correlations=(0.9, 0.6, 0.3))
    inst = generate_planted(params, seed=5)
    rows = appgrad.ROW_BLOCK_BYTES // (8 * (120 + 90))
    assert 2500 // rows == 4 and 0 < 2500 % rows < rows
    return inst


class TestDensePass:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_cache_matches_direct_products(self, blocked_instance, k, lam, dtype):
        X, Y = blocked_instance.x.astype(dtype), blocked_instance.y.astype(dtype)
        X64, Y64 = X.astype(float), Y.astype(float)
        step = appgrad_step_rank1 if k == 1 else appgrad_step
        eta = default_step(X64, Y64, lam)
        state = random_init(X64, Y64, k, seed=0, lam=lam)
        for _ in range(3):
            state = step(state, eta, X, Y, lam)
            Cx, Cy, ZZ, Rx, Ry = state.cache[3]
            Z = np.hstack((X64 @ state.phi_tilde, Y64 @ state.psi_tilde))
            for got, want in ((Cx, Z.T @ X64 / 2500), (Cy, Z.T @ Y64 / 2500),
                              (ZZ, Z.T @ Z / 2500)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(state.phi, state.phi_tilde @ Rx)
            assert np.array_equal(state.psi, state.psi_tilde @ Ry)

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
    @pytest.mark.parametrize("case", ["blocked", "single-block", "sparse", "minibatch"])
    def test_diverging_run_raises_overflow(self, small_instance, blocked_instance, case, eta):
        inst = blocked_instance if case == "blocked" else small_instance
        X, Y = inst.x, inst.y
        if case == "sparse":
            X, Y = sp.csr_matrix(X), sp.csr_matrix(Y)
        with pytest.raises(DegenerateIterateError, match="iterate overflowed"):
            if case == "minibatch":
                run_stochastic(X, Y, 3, MinibatchPlan(m=50, seed=0),
                               StepSchedule("constant", eta0=eta), max_iters=2000, seed=0)
            else:
                run_appgrad(X, Y, 3, eta=eta, max_iters=2000, tol=0.0, seed=0)


class FlopArray(np.ndarray):
    """Dense view that charges 2*rows*cols*width for every product taken with it."""

    flops = 0

    def __matmul__(self, other):
        FlopArray.flops += 2 * self.size * other.shape[1]
        return np.asarray(self) @ other

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
            assert FlopArray.flops == product_flops(n, p1, p2, 3, cached=cached, batch=True)
        assert FlopArray.flops == 3 * 2 * n * (p1 + p2) * 3  # 3 products per view

    def test_sparse_batch_steps(self, small_instance):
        X, Y = FlopCSR(sp.csr_matrix(small_instance.x)), FlopCSR(sp.csr_matrix(small_instance.y))
        (n, p1), p2 = X.shape, Y.shape[1]
        eta = default_step(small_instance.x, small_instance.y)
        state = random_init(small_instance.x, small_instance.y, 3, seed=0)
        for cached in (False, True, True):
            FlopCSR.flops = 0
            state = appgrad_step(state, eta, X, Y)
            assert FlopCSR.flops == product_flops(n, p1, p2, 3, X.nnz, Y.nnz,
                                                  cached=cached, batch=True)

    def test_minibatch_step(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        p1, p2 = X.shape[1], Y.shape[1]
        eta = default_step(X, Y)
        state = random_init(X, Y, 3, seed=0)
        monkeypatch.setattr(appgrad, "as_matrix", lambda A: as_matrix(A).view(FlopArray))
        for start in (0, 50, 100):
            FlopArray.flops = 0
            state = stochastic_appgrad_step(state, eta, X[start:start + 50], Y[start:start + 50])
            assert FlopArray.flops == product_flops(50, p1, p2, 3)
