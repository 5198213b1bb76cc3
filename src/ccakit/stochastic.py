"""Minibatch variant of the augmented-gradient CCA solver.

Each iteration samples m rows, takes the gradient step on the sampled
residual, and whitens with the sampled k-by-k Gram matrix; the concentration
of that k-by-k matrix is what lets m stay on the order of k.
"""

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .appgrad import (  # noqa: F401  normalize_columns is looked up here by perfbench
    StepSizes,
    _step,
    extract_model,
    normalize_columns,
    random_init,
)
from .linalg import DegenerateIterateError, as_matrix
from .metrics import IterationRecord, RunReport, step_flops, tcc, tcc_evaluator


@dataclass
class MinibatchPlan:
    """Batch size and sampling mode; a fixed seed fixes the index sequence."""

    m: int
    mode: str = "without-replacement"  # with-replacement | without-replacement | sequential-stream
    seed: int = 0

    _MODES = ("with-replacement", "without-replacement", "sequential-stream")

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("batch size must be >= 1")
        if self.mode not in self._MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")

    def make_sampler(self, n):
        return _Sampler(self, n)


class _Sampler:
    """Stateful index generator for one run of a plan."""

    def __init__(self, plan, n):
        if plan.mode != "sequential-stream" and plan.m > n:
            raise ValueError(f"batch size {plan.m} exceeds n={n}")
        self.plan = plan
        self.n = n
        self.rng = np.random.default_rng(plan.seed)
        self._perm = None
        self._pos = 0

    def next_batch(self):
        m, mode = self.plan.m, self.plan.mode
        if mode == "with-replacement":
            return self.rng.integers(0, self.n, size=m)
        if mode == "without-replacement":
            if self._perm is None or self._pos + m > self.n:
                self._perm = self.rng.permutation(self.n)
                self._pos = 0
            out = self._perm[self._pos : self._pos + m]
            self._pos += m
            return out
        # sequential stream: next m arrivals, stopping at the end of the data
        if self._pos >= self.n:
            return np.empty(0, dtype=int)
        out = np.arange(self._pos, min(self._pos + m, self.n))
        self._pos += m
        return out


def sample_minibatch(plan, t, n):
    """Indices for iteration t of a fresh sampler advanced t times.

    Convenience wrapper for tests; drivers should hold one sampler per run.
    """
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    sampler = plan.make_sampler(n)
    out = sampler.next_batch()
    for _ in range(t):
        out = sampler.next_batch()
    return out


@dataclass
class StepSchedule:
    """Step-size schedule eta_t per side: constant, 1/(t+t0), or 1/sqrt(t+t0)."""

    kind: str = "constant"  # constant | inverse-t | inverse-sqrt-t
    eta0: float = 1.0
    t0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "inverse-t", "inverse-sqrt-t"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.eta0 <= 0 or self.t0 <= 0:
            raise ValueError("eta0 and t0 must be positive")

    def at(self, t):
        if self.kind == "constant":
            eta = self.eta0
        elif self.kind == "inverse-t":
            eta = self.eta0 * self.t0 / (self.t0 + t)
        else:
            eta = self.eta0 * np.sqrt(self.t0 / (self.t0 + t))
        return StepSizes.constant(eta)


def stochastic_appgrad_step(state, eta, X_I, Y_I, lam=0.0):
    """One minibatch update: the batch step on the m sampled rows X_I, Y_I,
    so the gradient and the k-by-k whitening are averaged over m. With m = n
    this is the batch update, taken without the dense pass."""
    return _step(state, eta, X_I, Y_I, lam, batch=False)


def run_stochastic(
    X,
    Y,
    k,
    plan,
    schedule,
    lam=0.0,
    max_iters=2000,
    seed=0,
    init=None,
    oracle=None,
    record_every=None,
    holdout=None,
):
    """Run minibatch iterations for ``max_iters`` steps (or one pass of the
    data in sequential-stream mode). Degenerate batches are resampled once,
    then the run fails.

    ``record_every`` defaults to once per epoch-equivalent, ceil(n/m).
    ``holdout`` is an optional (X_h, Y_h) pair for out-of-sample TCC.
    Returns (CcaModel, RunReport); the model's ``converged`` is False, since
    the run has no stopping test.
    """
    X, Y = as_matrix(X), as_matrix(Y)
    n, p1 = X.shape
    p2 = Y.shape[1]
    sampler = plan.make_sampler(n)
    if record_every is None:
        record_every = max(1, int(np.ceil(n / plan.m)))
    state = init if init is not None else random_init(X, Y, k, seed, lam)
    report = RunReport(
        solver="stochastic-appgrad",
        seed=seed,
        config={
            "k": k,
            "m": plan.m,
            "mode": plan.mode,
            "schedule": schedule.kind,
            "eta0": schedule.eta0,
            "lam": lam,
            "max_iters": max_iters,
        },
    )
    evaluate = tcc_evaluator(X, Y)
    evaluate_holdout = tcc_evaluator(*holdout) if holdout is not None else None
    oracle_tcc = evaluate(oracle.phi, oracle.psi) if oracle is not None else None
    flops = 0
    t0 = time.perf_counter()

    def record():
        t_in = evaluate(state.phi, state.psi)
        rec = IterationRecord(t=state.t, flops=flops, tcc_train=t_in,
                              wall_time=time.perf_counter() - t0)
        if holdout is not None:
            rec.tcc_holdout = evaluate_holdout(state.phi, state.psi)
        if oracle_tcc:
            rec.pcc_train = t_in / oracle_tcc
        report.records.append(rec)
    streaming = plan.mode == "sequential-stream"
    it = 0
    while it < max_iters:
        idx = sampler.next_batch()
        if streaming and idx.size == 0:
            break
        X_I, Y_I = X[idx], Y[idx]
        eta = schedule.at(it)
        try:
            new = stochastic_appgrad_step(state, eta, X_I, Y_I, lam)
        except DegenerateIterateError:
            idx = sampler.next_batch()
            if streaming and idx.size == 0:
                break
            X_I, Y_I = X[idx], Y[idx]
            new = stochastic_appgrad_step(state, eta, X_I, Y_I, lam)
        nnz = [A.nnz if sp.issparse(A) else None for A in (X_I, Y_I)]
        flops += step_flops(len(idx), p1, p2, k, *nnz)
        state = new
        it += 1
        if state.t % record_every == 0:
            record()
    if it and state.t % record_every:  # the last iterate, off the cadence
        record()
    model = extract_model(X, Y, state)
    model.converged = False
    # a copy without the cache, so the report does not keep the last batch alive
    report.final_state = replace(state)
    return model, report


def cross_validate_step(
    X,
    Y,
    k,
    grid,
    holdout_fraction=0.1,
    plan=None,
    lam=0.0,
    budget=100,
    seed=0,
):
    """Pick the constant step size from ``grid`` that maximizes holdout TCC
    after a short run; ties break toward the smaller step. Candidates whose
    runs diverge or degenerate are discarded; all-degenerate grids error."""
    if not grid:
        raise ValueError("candidate grid is empty")
    if not (0.0 < holdout_fraction <= 0.5):
        raise ValueError("holdout fraction must be in (0, 0.5]")
    X, Y = as_matrix(X), as_matrix(Y)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = max(1, int(round(holdout_fraction * n)))
    hold, train = perm[:n_hold], perm[n_hold:]
    X_tr, Y_tr = X[train], Y[train]
    X_h, Y_h = X[hold], Y[hold]
    if plan is None:
        plan = MinibatchPlan(m=len(train), mode="without-replacement", seed=seed)
    best_eta, best_score = None, -np.inf
    for eta in sorted(grid):
        schedule = StepSchedule(kind="constant", eta0=float(eta))
        try:
            model, _ = run_stochastic(
                X_tr, Y_tr, k, plan, schedule, lam=lam, max_iters=budget, seed=seed
            )
            score = tcc(X_h, Y_h, model.phi, model.psi)
        except DegenerateIterateError:
            continue
        if not np.isfinite(score):
            continue
        if score > best_score:
            best_eta, best_score = float(eta), score
    if best_eta is None:
        raise DegenerateIterateError("every candidate step size degenerated")
    return StepSizes.constant(best_eta)
