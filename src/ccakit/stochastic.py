"""Minibatch variant of the augmented-gradient CCA solver.

Each iteration samples m rows, takes the gradient step on the sampled
residual, and whitens with the sampled k-by-k Gram matrix; the concentration
of that k-by-k matrix is what lets m stay on the order of k.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .appgrad import (  # noqa: F401  normalize_columns is looked up here by perfbench
    StepSizes,
    _check_run,
    _drive,
    _step,
    normalize_columns,
    random_init,
    run_appgrad,
)
from .linalg import DegenerateIterateError, as_matrix
from .metrics import Views, split_holdout, tcc


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

    def batches(self, X, Y):
        """The minibatch row source of ``appgrad._drive``: a plain iterator of the rows of X and
        Y at each next batch, a new object each time, which ends with the stream."""
        while (idx := self.next_batch()).size:  # np.take gathers dense rows faster than X[idx]
            yield [A[idx] if sp.issparse(A) else np.take(A, idx, axis=0) for A in (X, Y)]


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
        if not (self.eta0 > 0 and self.t0 > 0):  # also rejects NaN
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
    """Run minibatch iterations on (X, Y), or on the ``Views`` X (Y then None), for
    ``max_iters`` steps, or until the sampler's batches end (one pass of the data in
    sequential-stream mode). A degenerate batch is replaced by the next one, once, and charged;
    a failed replacement raises, and a degenerate last batch of a stream ends the run.

    ``record_every`` defaults to once per epoch-equivalent, ceil(n/m); 0 records nothing.
    ``holdout`` is an optional (X_h, Y_h) pair or ``Views`` for out-of-sample TCC. Records are
    scored by ``Views.evaluate`` over the iterate's top ``oracle.k`` correlations.
    Returns (CcaModel, RunReport); the model's ``converged`` is False, since
    the run has no stopping test.
    """
    views = Views.of(X, Y)
    n = views.X.shape[0]
    if record_every is None:
        record_every = max(1, int(np.ceil(n / plan.m)))
    _check_run(views, k, record_every)
    batches = plan.make_sampler(n).batches(views.X, views.Y)
    state = init if init is not None else random_init(views.X, views.Y, k, seed, lam)
    config = {"k": k, "m": plan.m, "mode": plan.mode, "schedule": schedule.kind,
              "eta0": schedule.eta0, "lam": lam, "max_iters": max_iters}
    holdout = holdout if holdout is None or isinstance(holdout, Views) else Views(*holdout)
    return _drive("stochastic-appgrad", config, seed, (views.X, views.Y), batches, schedule.at,
                  stochastic_appgrad_step, views, state, 0, oracle, record_every,
                  holdout=holdout)


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
    train, (X_h, Y_h) = split_holdout(as_matrix(X), as_matrix(Y), holdout_fraction, seed)
    train = Views(*train)  # one moment pair serves every candidate
    best_eta, best_score = None, -np.inf
    for eta in sorted(grid):
        try:
            model, _ = run_appgrad(train, None, k, eta=float(eta), max_iters=budget, tol=0.0,
                                   seed=seed, record_every=0)
            score = tcc(X_h, Y_h, model.phi, model.psi)
        except DegenerateIterateError:
            continue
        if np.isfinite(score) and score > best_score:
            best_eta, best_score = float(eta), score
    if best_eta is None:
        raise DegenerateIterateError("every candidate step size degenerated")
    return StepSizes.constant(best_eta)
