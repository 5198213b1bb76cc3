"""Tests for minibatch sampling, step schedules, the sampled update, and the
stochastic runner."""

from dataclasses import replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from ccakit import appgrad, linalg, metrics, stochastic
from ccakit.appgrad import (
    AppGradState,
    StepSizes,
    appgrad_step,
    default_step,
    extract_model,
    random_init,
)
from ccakit.linalg import DegenerateIterateError, gram
from ccakit.metrics import pcc, tcc
from ccakit.planted import PlantedParams, generate_planted
from ccakit.reference import CcaModel, spectral_cca
from ccakit.stochastic import (
    MinibatchPlan,
    StepSchedule,
    cross_validate_step,
    run_stochastic,
    sample_minibatch,
    stochastic_appgrad_step,
)


class TestSampling:
    def test_full_batch_is_whole_index_set(self):
        plan = MinibatchPlan(m=12, mode="without-replacement", seed=0)
        idx = plan.make_sampler(12).next_batch()
        assert sorted(idx) == list(range(12))

    def test_fixed_seed_is_deterministic(self):
        for mode in ("with-replacement", "without-replacement", "sequential-stream"):
            a = MinibatchPlan(m=4, mode=mode, seed=42).make_sampler(20)
            b = MinibatchPlan(m=4, mode=mode, seed=42).make_sampler(20)
            for _ in range(6):
                assert np.array_equal(a.next_batch(), b.next_batch())

    def test_with_replacement_frequencies_uniform(self):
        # 1000 draws over 10 indices: every count within 3 binomial sigmas
        plan = MinibatchPlan(m=1, mode="with-replacement", seed=5)
        sampler = plan.make_sampler(10)
        draws = np.concatenate([sampler.next_batch() for _ in range(1000)])
        counts = np.bincount(draws, minlength=10)
        sigma = np.sqrt(1000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 100) <= 3 * sigma)

    def test_without_replacement_partitions_epoch(self):
        plan = MinibatchPlan(m=5, mode="without-replacement", seed=3)
        sampler = plan.make_sampler(20)
        epoch = np.concatenate([sampler.next_batch() for _ in range(4)])
        assert sorted(epoch) == list(range(20))

    def test_sequential_stream_exhausts(self):
        plan = MinibatchPlan(m=7, mode="sequential-stream", seed=0)
        sampler = plan.make_sampler(16)
        assert np.array_equal(sampler.next_batch(), np.arange(0, 7))
        assert np.array_equal(sampler.next_batch(), np.arange(7, 14))
        assert np.array_equal(sampler.next_batch(), np.arange(14, 16))
        assert sampler.next_batch().size == 0

    def test_sample_minibatch_wrapper(self):
        plan = MinibatchPlan(m=3, mode="without-replacement", seed=9)
        direct = plan.make_sampler(10)
        first = direct.next_batch()
        second = direct.next_batch()
        assert np.array_equal(sample_minibatch(plan, 0, 10), first)
        assert np.array_equal(sample_minibatch(plan, 1, 10), second)
        with pytest.raises(ValueError):
            sample_minibatch(plan, -1, 10)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            MinibatchPlan(m=0)
        with pytest.raises(ValueError):
            MinibatchPlan(m=4, mode="bootstrap")
        plan = MinibatchPlan(m=50, mode="with-replacement")
        with pytest.raises(ValueError):
            plan.make_sampler(10)


class TestSchedules:
    def test_values(self):
        assert StepSchedule("constant", 0.5).at(100).eta1 == 0.5
        s = StepSchedule("inverse-t", eta0=1.0, t0=2.0)
        assert abs(s.at(0).eta1 - 1.0) < 1e-15
        assert abs(s.at(2).eta1 - 0.5) < 1e-15
        r = StepSchedule("inverse-sqrt-t", eta0=1.0, t0=1.0)
        assert abs(r.at(3).eta1 - 0.5) < 1e-15

    def test_nonincreasing(self):
        for kind in ("constant", "inverse-t", "inverse-sqrt-t"):
            s = StepSchedule(kind, eta0=0.7, t0=1.5)
            etas = [s.at(t).eta1 for t in range(50)]
            assert all(e > 0 for e in etas)
            assert all(b <= a for a, b in zip(etas, etas[1:]))

    def test_invalid_schedules(self):
        with pytest.raises(ValueError):
            StepSchedule("linear")
        with pytest.raises(ValueError):
            StepSchedule("constant", eta0=0.0)
        with pytest.raises(ValueError):
            StepSchedule("inverse-t", eta0=1.0, t0=0.0)


class TestSampledStep:
    def test_full_batch_reduces_to_batch_trajectory(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        n = X.shape[0]
        eta = default_step(X, Y)
        plan = MinibatchPlan(m=n, mode="without-replacement", seed=2)
        sampler = plan.make_sampler(n)
        s_batch = random_init(X, Y, 3, seed=4)
        s_stoch = AppGradState(
            s_batch.phi.copy(), s_batch.psi.copy(),
            s_batch.phi_tilde.copy(), s_batch.psi_tilde.copy(),
        )
        for _ in range(50):
            idx = sampler.next_batch()
            s_stoch = stochastic_appgrad_step(s_stoch, eta, X[idx], Y[idx])
            s_batch = appgrad_step(s_batch, eta, X, Y)
            assert np.linalg.norm(s_stoch.phi - s_batch.phi) < 1e-12
            assert np.linalg.norm(s_stoch.psi - s_batch.psi) < 1e-12
            assert np.linalg.norm(s_stoch.phi_tilde - s_batch.phi_tilde) < 1e-12
            assert np.linalg.norm(s_stoch.psi_tilde - s_batch.psi_tilde) < 1e-12

    def test_population_fixed_point_full_batch(self, small_instance):
        truth = small_instance.empirical
        L = np.diag(truth.lam)
        state = AppGradState(truth.phi, truth.psi, truth.phi @ L, truth.psi @ L)
        eta = default_step(small_instance.x, small_instance.y)
        new = stochastic_appgrad_step(state, eta, small_instance.x, small_instance.y)
        moved = max(
            np.linalg.norm(new.phi - state.phi),
            np.linalg.norm(new.psi - state.psi),
        )
        assert moved < 1e-8

    def test_sampled_gradient_unbiased_by_enumeration(self):
        # averaging over every size-2 subset of 6 rows gives the batch gradient
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((6, 3))
        Pt = rng.standard_normal((4, 2))
        Psi = rng.standard_normal((3, 2))
        batch = X.T @ (X @ Pt - Y @ Psi) / 6
        subsets = list(combinations(range(6), 2))
        acc = np.zeros_like(batch)
        for idx in subsets:
            Xi, Yi = X[list(idx)], Y[list(idx)]
            acc += Xi.T @ (Xi @ Pt - Yi @ Psi) / 2
        assert np.linalg.norm(acc / len(subsets) - batch) < 1e-12

    def test_degenerate_batch_raises(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 6))
        Y = rng.standard_normal((100, 6))
        state = random_init(X, Y, 3, seed=0)
        # a 2-row batch cannot whiten 3 directions: sampled Gram is singular
        with pytest.raises(DegenerateIterateError):
            stochastic_appgrad_step(state, StepSizes.constant(0.1), X[:2], Y[:2])


class TestConcentration:
    @pytest.fixture(scope="class")
    @staticmethod
    def big_instance():
        params = PlantedParams(
            n=5000, p1=20, p2=20, correlations=(0.9, 0.8, 0.7, 0.6, 0.5)
        )
        return generate_planted(params, seed=1)

    def _sampled_errors(self, inst, m, trials, seed):
        X = inst.x
        W = inst.empirical.phi  # whitened: W' Sx W = I
        full = W.T @ gram(X) @ W
        scale = np.linalg.norm(full, 2)
        rng = np.random.default_rng(seed)
        errs = []
        for _ in range(trials):
            idx = rng.choice(X.shape[0], size=m, replace=False)
            G = W.T @ (X[idx].T @ X[idx] / m) @ W
            errs.append(np.linalg.norm(G - full, 2) / scale)
        return np.asarray(errs)

    def test_median_error_decreases_with_batch_size(self, big_instance):
        k = 5
        medians = [
            np.median(self._sampled_errors(big_instance, c * k, 100, seed=0))
            for c in (2, 5, 10)
        ]
        assert medians[0] > medians[1] > medians[2]

    def test_large_batches_concentrate(self, big_instance):
        errs = self._sampled_errors(big_instance, 1500, 100, seed=0)
        assert np.all(errs <= 0.15)


class TestRunner:
    def test_zero_iterations_returns_init(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        init = random_init(X, Y, 2, seed=8)
        plan = MinibatchPlan(m=100, seed=0)
        sched = StepSchedule("constant", eta0=0.1)
        model, report = run_stochastic(X, Y, 2, plan, sched, max_iters=0, init=init)
        want = extract_model(X, Y, init)
        assert np.allclose(model.phi, want.phi)
        assert np.allclose(model.lam, want.lam)
        assert report.final_state.t == 0

    @pytest.mark.parametrize("k", [0, 6])
    def test_rank_out_of_range_fails_before_any_work(self, k, monkeypatch):
        # as in run_appgrad; k=0 died in an IndexError, k=6 in a degenerate whitening
        inst = generate_planted(PlantedParams(n=200, p1=6, p2=5, correlations=(0.9, 0.5)), seed=0)
        monkeypatch.setattr(MinibatchPlan, "make_sampler", lambda *a: pytest.fail("sampled"))
        monkeypatch.setattr(stochastic, "random_init", lambda *a: pytest.fail("initialized"))
        with pytest.raises(ValueError, match=f"rank k={k} out of range"):
            run_stochastic(inst.x, inst.y, k, MinibatchPlan(m=50, seed=0),
                           StepSchedule("constant", eta0=0.1))

    def test_trace_is_deterministic(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        plan = MinibatchPlan(m=80, seed=3)
        sched = StepSchedule("constant", eta0=0.3)
        runs = [
            run_stochastic(X, Y, 2, plan, sched, max_iters=30, seed=5)[1]
            for _ in range(2)
        ]
        assert runs[0].to_lines() == runs[1].to_lines()

    def test_default_record_cadence_is_per_epoch(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        plan = MinibatchPlan(m=100, seed=0)  # n=400 -> every 4 iterations
        sched = StepSchedule("constant", eta0=0.3)
        _, report = run_stochastic(X, Y, 2, plan, sched, max_iters=12, seed=0)
        assert [r.t for r in report.records] == [4, 8, 12]

    def test_stream_ending_off_the_cadence_records_its_last_iterate(self, small_instance):
        X, Y = small_instance.x, small_instance.y  # n=400: 14 batches of up to 30
        plan = MinibatchPlan(m=30, mode="sequential-stream", seed=0)
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)
        _, report = run_stochastic(X, Y, 2, plan, sched, max_iters=100, seed=0,
                                   record_every=5)
        assert report.final_state.t == 14
        assert [r.t for r in report.records] == [5, 10, 14]
        final = report.final_state
        assert report.records[-1].tcc_train == pytest.approx(
            tcc(X, Y, final.phi, final.psi), rel=1e-9)

    def test_record_every_zero_records_nothing(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        plan, schedule = MinibatchPlan(m=50, seed=0), StepSchedule(eta0=0.1)
        _, report = run_stochastic(X, Y, 2, plan, schedule, max_iters=7, record_every=0)
        assert report.records == [] and report.final_state.t == 7
        with pytest.raises(ValueError, match="record_every"):
            run_stochastic(X, Y, 2, plan, schedule, max_iters=7, record_every=-1)

    def test_a_resampled_attempt_is_charged(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        plan, schedule = MinibatchPlan(m=50, seed=0), StepSchedule(eta0=0.1)
        _, clean = run_stochastic(X, Y, 2, plan, schedule, max_iters=4, record_every=1)
        real, calls = stochastic.stochastic_appgrad_step, []

        def degenerate_once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise DegenerateIterateError("degenerate batch")
            return real(*args)
        monkeypatch.setattr(stochastic, "stochastic_appgrad_step", degenerate_once)
        _, report = run_stochastic(X, Y, 2, plan, schedule, max_iters=4, record_every=1)
        attempt = metrics.step_flops(50, 12, 15, 2)  # from random_init, which carries whiteners
        assert len(calls) == 5
        assert [r.flops for r in report.records] == [r.flops + attempt for r in clean.records]

    @staticmethod
    def _degenerate_at(real, fail_at, calls):
        def step(*args):
            calls.append(1)
            if len(calls) in fail_at:
                raise DegenerateIterateError("degenerate batch")
            return real(*args)
        return step

    def test_a_stream_whose_last_batch_degenerates_ends_uncharged(self, small_instance,
                                                                  monkeypatch):
        X, Y = small_instance.x, small_instance.y  # n=400: 8 batches of 50
        plan, schedule = MinibatchPlan(m=50, mode="sequential-stream"), StepSchedule(eta0=0.1)
        _, clean = run_stochastic(X, Y, 2, plan, schedule, max_iters=20, record_every=1)
        calls = []
        monkeypatch.setattr(stochastic, "stochastic_appgrad_step", self._degenerate_at(
            stochastic.stochastic_appgrad_step, {8}, calls))
        _, report = run_stochastic(X, Y, 2, plan, schedule, max_iters=20, record_every=3)
        assert len(calls) == 8 and clean.final_state.t == 8
        assert [r.t for r in report.records] == [3, 6, 7]  # t = 7 is recorded as the final iterate
        assert report.to_lines()[-1] == clean.to_lines()[-2]  # so the attempt is uncharged

    def test_a_failed_replacement_raises(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        calls = []
        monkeypatch.setattr(stochastic, "stochastic_appgrad_step", self._degenerate_at(
            stochastic.stochastic_appgrad_step, {3, 4}, calls))
        with pytest.raises(DegenerateIterateError, match="degenerate batch"):
            run_stochastic(X, Y, 2, MinibatchPlan(m=50, seed=0), StepSchedule(eta0=0.1),
                           max_iters=10)
        assert len(calls) == 4

    def test_a_batch_run_does_not_retry_its_rows(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        calls = []
        with pytest.raises(DegenerateIterateError, match="degenerate batch"):
            appgrad.run_appgrad(X, Y, 2, max_iters=10,
                                step_fn=self._degenerate_at(appgrad_step, {3}, calls))
        assert len(calls) == 3

    def test_oracle_capturing_nothing_raises(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        oracle = CcaModel(np.zeros((X.shape[1], 2)), np.zeros((Y.shape[1], 2)), np.zeros(2))
        with pytest.raises(ValueError, match="oracle captures no correlation"):
            run_stochastic(X, Y, 2, MinibatchPlan(m=50, seed=0), StepSchedule(eta0=0.1),
                           max_iters=5, oracle=oracle)

    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_model_is_whitened_and_canonical_on_every_row(self, lam):
        # the last iterate is whitened on its last batch only; the model is on all n rows
        inst = generate_planted(PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3),
                                              noise=0.5), seed=0)
        X, Y = inst.x, inst.y
        sched = StepSchedule("constant", eta0=default_step(X, Y, lam, seed=3).eta1)
        model, report = run_stochastic(X, Y, 4, MinibatchPlan(m=100, seed=3), sched, lam=lam,
                                       max_iters=150, seed=3)
        Sx, Sy = gram(X, lam), gram(Y, lam)
        assert np.abs(model.phi.T @ Sx @ model.phi - np.eye(4)).max() <= 1e-9
        assert np.abs(model.psi.T @ Sy @ model.psi - np.eye(4)).max() <= 1e-9
        C = model.phi.T @ (X.T @ Y / len(X)) @ model.psi
        assert np.abs(C - np.diag(model.lam)).max() <= 1e-9
        final = report.final_state  # the records and final state stay the last iterate
        assert report.records[-1].tcc_train == pytest.approx(tcc(X, Y, final.phi, final.psi),
                                                             rel=1e-12)
        if lam == 0.0:  # the model captures what the iterate does
            assert model.lam.sum() == pytest.approx(tcc(X, Y, model.phi, model.psi), rel=1e-9)
            assert model.lam.sum() == pytest.approx(report.records[-1].tcc_train, rel=1e-9)

    def test_model_is_never_marked_converged(self, small_instance):
        # the runner stops on its iteration budget, never on a convergence test
        X, Y = small_instance.x, small_instance.y
        plan = MinibatchPlan(m=100, seed=0)
        sched = StepSchedule("constant", eta0=0.3)
        model, _ = run_stochastic(X, Y, 2, plan, sched, max_iters=8, seed=0)
        assert model.converged is False

    def test_streaming_single_pass_recovers_subspace(self):
        params = PlantedParams(
            n=4000, p1=20, p2=20, correlations=(0.9, 0.7, 0.5)
        )
        inst = generate_planted(params, seed=6)
        X, Y = inst.x, inst.y
        # shuffle arrival order, then consume each row exactly once
        perm = np.random.default_rng(0).permutation(4000)
        Xs, Ys = X[perm], Y[perm]
        plan = MinibatchPlan(m=100, mode="sequential-stream", seed=0)
        eta = default_step(X, Y).eta1
        sched = StepSchedule("constant", eta0=eta)
        model, report = run_stochastic(
            Xs, Ys, 3, plan, sched, max_iters=10_000, seed=1, oracle=inst.empirical
        )
        assert report.final_state.t == 40  # ceil(4000 / 100) batches, one pass
        assert report.final_state.cache is None  # the last batch is not kept alive
        score = pcc(X, Y, (model.phi, model.psi),
                    (inst.empirical.phi, inst.empirical.psi))
        assert score >= 0.9

    def test_an_attempt_the_stream_cannot_replace_is_not_charged(self):
        # the 3-row tail batch is degenerate at k = 5, and the stream has no replacement for it
        inst = generate_planted(PlantedParams(n=403, p1=12, p2=15, noise=0.3,
                                              correlations=(0.9, 0.7, 0.5, 0.3, 0.2)), seed=1)
        X, Y = inst.x, inst.y
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)
        for every in (1, 2, 3, 10):
            _, report = run_stochastic(X, Y, 5, MinibatchPlan(m=100, mode="sequential-stream"),
                                       sched, max_iters=50, record_every=every)
            last = report.records[-1]
            assert (last.t, last.flops) == (4, 4 * metrics.step_flops(100, 12, 15, 5)), every


class TestDriversAgree:
    """``run_stochastic`` whose every batch is all n rows, reordered, is ``run_appgrad``."""

    def test_a_full_batch_step_at_a_ridge_is_the_batch_step(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        state, eta = random_init(X, Y, 3, seed=1, lam=0.05), StepSizes.constant(0.2)
        perm = np.random.default_rng(0).permutation(X.shape[0])
        mini = stochastic_appgrad_step(state, eta, X[perm], Y[perm], lam=0.05)
        batch = appgrad_step(state, eta, X, Y, lam=0.05)
        for a, b in ((mini.phi, batch.phi), (mini.psi, batch.psi),
                     (mini.phi_tilde, batch.phi_tilde), (mini.psi_tilde, batch.psi_tilde)):
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("n", [40, 400])  # 4 (p1 + p2) = 56: solved on the rows, then the pair
    def test_full_batches_reproduce_the_batch_run(self, n):
        inst = generate_planted(PlantedParams(n=n, p1=8, p2=6, correlations=(0.9, 0.6, 0.3),
                                              noise=0.3), seed=4)
        X, Y, iters = inst.x, inst.y, 40
        eta, oracle = default_step(X, Y).eta1, spectral_cca(X, Y, 2)
        batch, b_report = appgrad.run_appgrad(X, Y, 2, eta=eta, max_iters=iters, tol=0.0, seed=3,
                                              oracle=oracle, record_every=1)
        mini, m_report = run_stochastic(X, Y, 2, MinibatchPlan(m=n, seed=5),
                                        StepSchedule("constant", eta0=eta), max_iters=iters,
                                        seed=3, oracle=oracle, record_every=1)
        assert [r.t for r in m_report.records] == [r.t for r in b_report.records] == list(
            range(1, iters + 1))
        for field in ("tcc_train", "pcc_train"):
            got, want = ([getattr(r, field) for r in rep.records] for rep in (m_report, b_report))
            assert np.max(np.abs(np.subtract(got, want))) < 1e-10
        m_state, b_state = m_report.final_state, b_report.final_state
        for a, b in ((m_state.phi, b_state.phi), (m_state.psi, b_state.psi),
                     (mini.phi, batch.phi), (mini.psi, batch.psi), (mini.lam, batch.lam)):
            assert np.max(np.abs(a - b)) < 1e-10
        # every step is charged uncached on its gathered rows; random_init carries whiteners
        assert [r.flops for r in m_report.records] == [
            t * metrics.step_flops(n, 8, 6, 2) for t in range(1, iters + 1)]
        assert not mini.converged


class SizedArray(np.ndarray):
    """Dense view that records the larger dimension of every product taken
    with it, either side; full-data products record n."""

    sizes = []

    def __matmul__(self, other):
        SizedArray.sizes.append(max(self.shape))
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        SizedArray.sizes.append(max(self.shape))
        return np.asarray(other) @ np.asarray(self)


class SizedCSR(sp.csr_matrix):
    """CSR view that records its row count for every product taken with it,
    and fails if it is ever densified."""

    sizes = []

    def __matmul__(self, other):
        SizedCSR.sizes.append(self.shape[0])
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        SizedCSR.sizes.append(self.shape[0])
        return super().__rmatmul__(other)

    def toarray(self, *args, **kwargs):
        raise AssertionError("a sparse view was densified")

    todense = toarray


class TestEvaluation:
    def test_dense_records_take_no_n_sized_product(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        n = X.shape[0]
        plan = MinibatchPlan(m=50, seed=0)
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)
        original = linalg.as_matrix
        for module in (appgrad, linalg, metrics):
            monkeypatch.setattr(module, "as_matrix", lambda A: original(A).view(SizedArray))
        SizedArray.sizes = []
        _, report = run_stochastic(X, Y, 3, plan, sched, max_iters=600, seed=0,
                                   oracle=small_instance.empirical, record_every=10)
        assert len(report.records) == 60
        # 2 whitening the initial iterate, 3 forming X'X, Y'Y and X'Y, 2
        # rotating the final model; the 60 records and the oracle add none
        assert SizedArray.sizes.count(n) == 7

    def test_moment_records_match_projected_records(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        plan = MinibatchPlan(m=50, seed=0)
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)
        hold = small_instance.x[:100], small_instance.y[:100]

        def run():
            return run_stochastic(X, Y, 3, plan, sched, max_iters=200, seed=0,
                                  oracle=small_instance.empirical, record_every=10,
                                  holdout=hold)[1].records

        by_moments = run()
        monkeypatch.setattr(metrics.Views, "evaluate", property(lambda v: partial(tcc, v.X, v.Y)))
        projected = run()
        for a, b in zip(by_moments, projected, strict=True):
            for name in ("tcc_train", "tcc_holdout", "pcc_train"):
                assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12 * getattr(b, name)

    def test_sparse_views_are_projected_and_stay_sparse(self, monkeypatch):
        Xs = sp.random(300, 20, density=0.3, format="csr", random_state=1)
        Ys = sp.random(300, 15, density=0.3, format="csr", random_state=2)
        Ys = Ys + sp.csr_matrix(Xs[:, :15] * 2.0)
        oracle = spectral_cca(Xs, Ys, 2)
        X, Y = SizedCSR(Xs), SizedCSR(Ys)

        def no_moments(*_):
            raise AssertionError("moments formed for sparse views")

        for name in ("gram", "cross_covariance"):  # metrics.Views forms every moment
            monkeypatch.setattr(metrics, name, no_moments)
        SizedCSR.sizes = []
        _, report = run_stochastic(X, Y, 2, MinibatchPlan(m=30, seed=0),
                                   StepSchedule("constant", eta0=0.1), max_iters=40,
                                   seed=0, oracle=oracle, record_every=10)
        assert len(report.records) == 4
        # 2 whitening the initial iterate, 2 for the oracle's TCC, 2 per
        # record, 2 rotating the final model
        assert SizedCSR.sizes.count(300) == 2 + 2 + 2 * 4 + 2
        assert all(np.isfinite(r.pcc_train) for r in report.records)


class TestCarriedWhiteners:
    """A minibatch step projects the carried iterate as (X_I phi_tilde) R."""

    def test_carried_run_matches_one_that_recomputes_the_projections(self, small_instance,
                                                                     monkeypatch):
        X, Y = small_instance.x, small_instance.y
        p1, p2 = X.shape[1], Y.shape[1]
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)

        def run():
            return run_stochastic(X, Y, 3, MinibatchPlan(m=50, seed=0), sched, max_iters=200,
                                  seed=0, oracle=small_instance.empirical, record_every=10)[1]

        carried = run()
        step = stochastic.stochastic_appgrad_step
        monkeypatch.setattr(stochastic, "stochastic_appgrad_step", lambda *a: replace(step(*a)))
        recomputed = run()
        for name in ("phi", "psi", "phi_tilde", "psi_tilde"):
            a, b = getattr(carried.final_state, name), getattr(recomputed.final_state, name)
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        for a, b in zip(carried.records, recomputed.records, strict=True):
            assert abs(a.pcc_train - b.pcc_train) <= 1e-12
        # every step after the first starts from a state without whiteners: 4 products per view
        extra = recomputed.records[-1].flops - carried.records[-1].flops
        assert extra == 199 * 2 * 50 * (p1 + p2) * 3

    def test_csr_run_matches_the_dense_run_and_stays_sparse(self, small_instance):
        X, Y = small_instance.x, small_instance.y
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)

        def run(X, Y):
            return run_stochastic(X, Y, 3, MinibatchPlan(m=50, seed=0), sched, max_iters=100,
                                  seed=0, oracle=small_instance.empirical, record_every=10)[1]

        dense = run(X, Y)
        sparse = run(SizedCSR(sp.csr_matrix(X)), SizedCSR(sp.csr_matrix(Y)))
        for name in ("phi", "psi"):
            a, b = getattr(sparse.final_state, name), getattr(dense.final_state, name)
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
        for a, b in zip(sparse.records, dense.records, strict=True):
            assert abs(a.pcc_train - b.pcc_train) <= 1e-10

    def test_singular_dense_view_is_projected(self, small_instance):
        # a duplicated column leaves X'X/n singular at lam = 0, as the oracle's rule finds it
        X = np.hstack((small_instance.x, small_instance.x[:, :1]))
        Y = small_instance.y
        sched = StepSchedule("constant", eta0=default_step(X, Y).eta1)
        for t in (10, 40):
            _, report = run_stochastic(X, Y, 3, MinibatchPlan(m=50, seed=0), sched,
                                       max_iters=t, seed=0, record_every=10)
            state = report.final_state
            assert report.records[-1].t == t
            assert report.records[-1].tcc_train == tcc(X, Y, state.phi, state.psi)


class TestCrossValidation:
    def test_single_candidate_selected(self, small_instance):
        got = cross_validate_step(
            small_instance.x, small_instance.y, 2, [0.25], budget=5, seed=0
        )
        assert got.eta1 == 0.25

    def test_interior_scale_wins(self, small_instance):
        # latent Grams are identity so L1 ~ max feature scale; eta=1 is near
        # the practical step while 1e-4 barely moves in the budget
        X, Y = small_instance.x, small_instance.y
        grid = [1e-4, 1e-2, 1e0]
        got = cross_validate_step(X, Y, 2, grid, budget=80, seed=2)
        assert got.eta1 in grid

        # re-run the selection by hand and confirm the winner's holdout TCC
        # dominates every other candidate's
        rng = np.random.default_rng(2)
        perm = rng.permutation(X.shape[0])
        n_hold = 40
        hold, train = perm[:n_hold], perm[n_hold:]
        plan = MinibatchPlan(m=len(train), mode="without-replacement", seed=2)
        scores = {}
        for eta in grid:
            sched = StepSchedule("constant", eta0=eta)
            model, _ = run_stochastic(
                X[train], Y[train], 2, plan, sched, max_iters=80, seed=2
            )
            scores[eta] = tcc(X[hold], Y[hold], model.phi, model.psi)
        assert all(scores[got.eta1] >= s for s in scores.values())

    @pytest.mark.parametrize("grid, budget, seed", [([0.25], 5, 0), ([1e-4, 1e-2, 1e0], 80, 2)])
    def test_picks_what_a_full_batch_minibatch_run_picks(self, small_instance, grid, budget,
                                                          seed):
        X, Y = small_instance.x, small_instance.y
        got = cross_validate_step(X, Y, 2, grid, budget=budget, seed=seed)
        (X_tr, Y_tr), (X_h, Y_h) = metrics.split_holdout(X, Y, 0.1, seed)
        plan = MinibatchPlan(m=X_tr.shape[0], seed=seed)
        scores = {}
        for eta in grid:
            old, _ = run_stochastic(X_tr, Y_tr, 2, plan, StepSchedule(eta0=eta),
                                    max_iters=budget, seed=seed)
            new, _ = appgrad.run_appgrad(X_tr, Y_tr, 2, eta=eta, max_iters=budget, tol=0.0,
                                         seed=seed, record_every=0)
            scores[eta] = tcc(X_h, Y_h, old.phi, old.psi)
            assert tcc(X_h, Y_h, new.phi, new.psi) == pytest.approx(scores[eta], rel=1e-12)
        assert got.eta1 == max(grid, key=scores.get)  # ties go to the smaller step

    def test_one_moment_pair_serves_the_grid(self, small_instance, monkeypatch):
        X, Y = small_instance.x, small_instance.y
        grid, budget, seed = [1e-2, 1e-1, 1e0], 60, 2
        (X_tr, Y_tr), (X_h, Y_h) = metrics.split_holdout(X, Y, 0.1, seed)
        want = []  # each candidate's run builds its own pair
        for eta in grid:
            model, _ = appgrad.run_appgrad(X_tr, Y_tr, 2, eta=eta, max_iters=budget, tol=0.0,
                                           seed=seed, record_every=0)
            want.append(tcc(X_h, Y_h, model.phi, model.psi))
        builds, scores = [], []
        pair, score = metrics._joint_pair, stochastic.tcc
        monkeypatch.setattr(metrics, "_joint_pair", lambda *a: builds.append(a) or pair(*a))
        monkeypatch.setattr(stochastic, "tcc", lambda *a: scores.append(score(*a)) or scores[-1])
        got = cross_validate_step(X, Y, 2, grid, budget=budget, seed=seed)
        assert len(builds) == 1
        assert scores == want
        assert got.eta1 == grid[int(np.argmax(want))]

    def test_holdout_without_a_row_raises(self, small_instance):
        with pytest.raises(ValueError, match="leaves 0 held-out rows"):
            cross_validate_step(small_instance.x, small_instance.y, 2, [0.1], budget=5,
                                holdout_fraction=0.001)

    def test_divergent_grid_errors(self, small_instance):
        with pytest.raises(DegenerateIterateError):
            cross_validate_step(
                small_instance.x, small_instance.y, 2, [1e6], budget=80, seed=0
            )

    def test_invalid_arguments(self, small_instance):
        with pytest.raises(ValueError):
            cross_validate_step(small_instance.x, small_instance.y, 2, [])
        with pytest.raises(ValueError):
            cross_validate_step(
                small_instance.x, small_instance.y, 2, [0.1], holdout_fraction=0.9
            )
