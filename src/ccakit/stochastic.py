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
    run_appgrad,
    solver_views,
)
from .linalg import DegenerateIterateError, as_matrix
from .metrics import RunReport, split_holdout, step_flops, tcc, tcc_evaluator


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

    kind: str = "constant"  # one of KINDS
    eta0: float = 1.0
    t0: float = 1.0
    KINDS = ("constant", "inverse-t", "inverse-sqrt-t")  # unannotated: not a field

    def __post_init__(self):
        if self.kind not in self.KINDS:
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
    this is the batch update."""
    return _step(state, eta, X_I, Y_I, lam)


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

    ``record_every`` defaults to once per epoch-equivalent, ceil(n/m); 0 records nothing.
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
    if record_every < 0:
        raise ValueError("record_every must be >= 0")
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
    evaluate_holdout = tcc_evaluator(*holdout) if holdout is not None else lambda A, B: np.nan
    oracle_tcc = evaluate(oracle.phi, oracle.psi) if oracle is not None else None
    flops = 0
    t0 = time.perf_counter()

    def record():
        report.record(state.t, flops, evaluate(state.phi, state.psi), oracle_tcc,
                      wall_time=time.perf_counter() - t0,
                      tcc_holdout=evaluate_holdout(state.phi, state.psi))
    streaming = plan.mode == "sequential-stream"

    def rows(idx):  # np.take gathers dense rows faster than X[idx]
        return [A[idx] if sp.issparse(A) else np.take(A, idx, axis=0) for A in (X, Y)]

    def step_cost(X_I, Y_I):  # of one step from ``state`` on these rows
        nnz = [A.nnz if sp.issparse(A) else None for A in (X_I, Y_I)]
        return step_flops(X_I.shape[0], p1, p2, k, *nnz, whitened=state.whiteners is not None)
    it = 0
    while it < max_iters:
        idx = sampler.next_batch()
        if streaming and idx.size == 0:
            break
        X_I, Y_I = rows(idx)
        eta = schedule.at(it)
        try:
            new = stochastic_appgrad_step(state, eta, X_I, Y_I, lam)
        except DegenerateIterateError:
            flops += step_cost(X_I, Y_I)  # the discarded attempt did the work of a step
            idx = sampler.next_batch()
            if streaming and idx.size == 0:
                break
            X_I, Y_I = rows(idx)
            new = stochastic_appgrad_step(state, eta, X_I, Y_I, lam)
        flops += step_cost(X_I, Y_I)
        state = new
        it += 1
        if record_every and state.t % record_every == 0:
            record()
    if it and record_every and state.t % record_every:  # the last iterate, off the cadence
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
    budget=100,
    seed=0,
):
    """Pick the constant step size from ``grid`` that maximizes holdout TCC after a
    ``budget``-step ``run_appgrad`` at lam = 0 on the rows ``split_holdout`` keeps for
    training; ties break toward the smaller step. Candidates whose runs diverge or
    degenerate are discarded; all-degenerate grids error."""
    if not grid:
        raise ValueError("candidate grid is empty")
    if not (0.0 < holdout_fraction <= 0.5):
        raise ValueError("holdout fraction must be in (0, 0.5]")
    (X_tr, Y_tr), (X_h, Y_h) = split_holdout(as_matrix(X), as_matrix(Y), holdout_fraction, seed)
    X_tr, Y_tr, _ = solver_views(X_tr, Y_tr)  # one build serves every candidate
    best_eta, best_score = None, -np.inf
    for eta in sorted(grid):
        try:
            model, _ = run_appgrad(X_tr, Y_tr, k, eta=float(eta), max_iters=budget, tol=0.0,
                                   seed=seed, record_every=0)
            score = tcc(X_h, Y_h, model.phi, model.psi)
        except DegenerateIterateError:
            continue
        if np.isfinite(score) and score > best_score:
            best_eta, best_score = float(eta), score
    if best_eta is None:
        raise DegenerateIterateError("every candidate step size degenerated")
    return StepSizes.constant(best_eta)
