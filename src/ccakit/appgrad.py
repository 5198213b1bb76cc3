"""Batch first-order CCA with augmented state (rank-1 and rank-k).

The solver evolves a quadruple (Phi, Psi, PhiTilde, PsiTilde): the tilde
matrices take plain gradient steps on the coupled least-squares objective
|| X*PhiTilde - Y*Psi ||_F^2 / 2n, and the normalized matrices are produced
by whitening with a small k-by-k Gram matrix. A step forms no p-by-p object.

A step reads the data only through n-by-p times p-by-k products. A step caches its n-by-k
projections X PhiTilde, X Phi, Y PsiTilde, Y Psi, so the next step on the same X and Y objects
issues 2 products per view: the gradient (r' X)' and the new iterate's X PhiTilde, with
X Phi = (X PhiTilde) R. A step on other rows (a new minibatch) issues 3, X Phi again from the
carried whitener R. A cache is keyed to its X and Y objects; mutating them is unsupported.
As iterates see the data only through X'X/n, Y'Y/n, X'Y/n, ``run_appgrad`` runs on the moment
pair (``metrics.Views.pair``) when both views are dense and 4 (p1+p2) <= n, so the build's
3 (p1+p2)^2 + O(p1+p2) fit the data.
"""

import time
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np
import scipy.sparse as sp
from scipy.linalg import svd

from .linalg import DegenerateIterateError, SingularMatrixError, _check_finite, as_matrix
from .metrics import (POWER_ITERS, RIDGE_SCALE, RunReport, Views, moment_pair_flops,
                      projected_correlations, step_flops)
from .reference import canonical_pairs

EIG_FLOOR_REL = 1e-10


@dataclass
class StepSizes:
    """Per-side gradient step sizes."""

    eta1: float
    eta2: float

    def __post_init__(self):
        if not (self.eta1 >= 0 and self.eta2 >= 0):  # also rejects NaN
            raise ValueError("step sizes must be nonnegative")

    @classmethod
    def constant(cls, eta):
        return cls(eta, eta)


@dataclass
class AppGradState:
    """Solver state: normalized (phi, psi) and unnormalized (phi_tilde, psi_tilde). ``cache`` is
    None or (X, Y, (X phi_tilde, X phi, Y psi_tilde, Y psi), lam), lam the ridge that whitened
    X phi and Y psi; ``whiteners`` None (hand-built) or (R_x, R_y) with phi = phi_tilde R_x,
    psi = psi_tilde R_y. ``replace`` drops both."""

    phi: np.ndarray
    psi: np.ndarray
    phi_tilde: np.ndarray
    psi_tilde: np.ndarray
    t: int = 0
    cache: tuple = field(default=None, init=False, repr=False, compare=False)
    whiteners: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def k(self):
        return self.phi.shape[1]

    def cached_on(self, X, Y):
        """Whether the cache was made on these very X and Y objects."""
        return self.cache is not None and self.cache[0] is X and self.cache[1] is Y

    def projections(self, X, Y):
        """(X phi_tilde, X phi, Y psi_tilde, Y psi), from the cache when it holds them for X and Y,
        else computed: two n-sized products with the carried whiteners, four without them."""
        if self.cached_on(X, Y):
            return self.cache[2]
        Xpt, Yqt = np.asarray(X @ self.phi_tilde), np.asarray(Y @ self.psi_tilde)
        if self.whiteners is not None:
            return Xpt, Xpt @ self.whiteners[0], Yqt, Yqt @ self.whiteners[1]
        return Xpt, np.asarray(X @ self.phi), Yqt, np.asarray(Y @ self.psi)

    def step_price(self, X, Y):
        """FLOPs of one step from this state on the rows X, Y: ``metrics.step_flops``."""
        nnz = [A.nnz if sp.issparse(A) else None for A in (X, Y)]
        return step_flops(X.shape[0], X.shape[1], Y.shape[1], self.k, *nnz,
                          cached=self.cached_on(X, Y), whitened=self.whiteners is not None)

    def tcc(self, X, Y, k=None):
        """TCC of (X phi, Y psi), its top k (default: all), from the cache when made on X, Y. A
        cache whitened at lam = 0 holds X phi, Y psi with identity Grams (to the whitening's
        rounding), so their correlations are the singular values of (X phi)'(Y psi)/m, scaled
        and clipped as ``metrics.projected_correlations`` scores an exactly whitened pair: one
        k-by-k SVD. Any other state goes through ``metrics.projected_correlations``."""
        if self.cached_on(X, Y) and self.cache[3] == 0:
            U, V = self.cache[2][1::2]
            s = np.linalg.svd(U.T @ V / U.shape[0], compute_uv=False) / (1.0 + RIDGE_SCALE)
            return float(np.minimum(s, 1.0 + 1e-9)[:k].sum())
        return float(projected_correlations(*self.projections(X, Y)[1::2])[:k].sum())


def _whiten(views, Ws, lam):
    """Per view A with iterate W, in order: (A W, A W R, R, |R|) with R = (W' S W)^(-1/2),
    S = A'A/n + lam I, and |R| its largest eigenvalue. One n-sized product per view and one
    eigendecomposition of the stacked k-by-k Grams, whose members equal the per-view calls bit
    for bit. The first view, in order, whose Gram W' S W overflowed or is numerically
    rank-deficient raises DegenerateIterateError (non-finite data raises ValueError)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged iterate; checked below
        XWs = [np.asarray(A @ W) for A, W in zip(views, Ws)]
        G = np.array([XW.T @ XW / A.shape[0] + (lam * (W.T @ W) if lam else 0)
                      for A, W, XW in zip(views, Ws, XWs)])  # the stack, one Gram per view
    finite = np.isfinite(G).all(axis=(1, 2))
    if not finite.all():
        G[~finite] = 0.0  # such a member raises below, once the views before it are judged
    w, V = np.linalg.eigh(G)
    for A, ok, wi in zip(views, finite, w):
        if not ok:
            _check_finite(A)  # non-finite data, not a diverged iterate, raises ValueError
            raise DegenerateIterateError(
                "iterate overflowed (non-finite Gram); the step size is too large")
        if wi[-1] <= 0.0 or wi[0] < max(EIG_FLOOR_REL * wi[-1], 1e-300):
            raise DegenerateIterateError(
                f"iterate Gram is numerically rank-deficient (eigs in [{wi[0]:.3e}, "
                f"{wi[-1]:.3e}]); restart from a new initialization")
    d = w**-0.5  # every eigenvalue passed the floor, so none is clamped
    R = (V * d[:, None, :]) @ np.swapaxes(V, 1, 2)
    R = 0.5 * (R + np.swapaxes(R, 1, 2))
    return [(XW, XW @ Ri, Ri, di[0]) for XW, Ri, di in zip(XWs, R, d)]


def normalize_columns(X, W, lam=0.0):
    """Whiten W against the (possibly regularized) view Gram: returns W R with
    R = (W' S W)^(-1/2). Raises DegenerateIterateError on collapse."""
    return W @ _whiten([as_matrix(X)], [W], lam)[0][2]


def random_init(X, Y, k, seed, lam=0.0):
    """Standard-Gaussian draw, then exact whitening of the k columns. A view whose Gram cannot
    whiten the draw, as one spanning fewer than k directions at lam = 0 (at k = 1, a zero view),
    raises SingularMatrixError, since no other draw can."""
    X, Y = as_matrix(X), as_matrix(Y)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((X.shape[1], k)), rng.standard_normal((Y.shape[1], k))
    whitened = []
    for side, A, W in zip("xy", (X, Y), draws):
        try:
            whitened.append(normalize_columns(A, W, lam))
        except DegenerateIterateError as exc:
            why = (f"its Gram spans fewer than {k} directions; lower k (or oversample) or set a "
                   "larger lam" if k > 1 else "it is numerically zero; set a positive lam")
            raise SingularMatrixError(f"view {side} cannot whiten a rank-{k} Gaussian draw at "
                                      f"lam={lam}: {why}") from exc
    phi, psi = whitened
    state = AppGradState(phi, psi, phi.copy(), psi.copy(), t=0)
    state.whiteners = (np.eye(k), np.eye(k))
    return state


def _step(state, eta, X, Y, lam):
    """The update behind the batch, minibatch and rank-1 steps: gradient
    steps on both tilde matrices (each against the partner's incoming
    normalized state), then k-by-k whitening, averaged over the rows given.
    It reads the state's cache when that was made on these X and Y objects,
    else ``state.projections``. A new tilde iterate whose k-by-k Gram has an eigenvalue below
    1e-28 (an induced norm below 1e-14; a whitener norm above 1e14) raises DegenerateIterateError.
    The public steps wrap this rather than each other, so timing one by name (as perfbench's
    tracer does) counts no calls made through another."""
    key = X, Y  # the cache is keyed to the caller's objects, not to converted copies
    X, Y = as_matrix(X), as_matrix(Y)
    n = X.shape[0]
    Xpt, Xphi, Yqt, Ypsi = state.cache[2] if state.cached_on(*key) else state.projections(X, Y)
    # (r' X)' rather than X' r: BLAS runs it about 1.5x faster on row-major X
    gx, gy = np.asarray((Xpt - Ypsi).T @ X).T / n, np.asarray((Yqt - Xphi).T @ Y).T / n
    pt = state.phi_tilde - eta.eta1 * (gx + lam * state.phi_tilde)
    qt = state.psi_tilde - eta.eta2 * (gy + lam * state.psi_tilde)
    (Xpt, Xphi, Rx, nx), (Yqt, Ypsi, Ry, ny) = _whiten((X, Y), (pt, qt), lam)
    if max(nx, ny) > 1e14:  # at k = 1, the whitener 1 / ||phi_tilde||_S
        raise DegenerateIterateError(
            "iterate collapsed below 1e-14 induced norm; restart from a new init")
    new = AppGradState(pt @ Rx, qt @ Ry, pt, qt, t=state.t + 1)
    new.cache, new.whiteners = (*key, (Xpt, Xphi, Yqt, Ypsi), lam), (Rx, Ry)
    return new


def appgrad_step(state, eta, X, Y, lam=0.0):
    """One rank-k update over all rows of X and Y (see ``_step``)."""
    return _step(state, eta, X, Y, lam)


def appgrad_step_rank1(state, eta, X, Y, lam=0.0):
    """Rank-1 update: the rank-k step, whose whitening is then a division by
    the induced norm. Raises DegenerateIterateError when that norm is below 1e-14."""
    if state.k != 1:
        raise ValueError("appgrad_step_rank1 requires a rank-1 state")
    return _step(state, eta, X, Y, lam)


def estimate_gram_norm(X, seed=0):
    """Largest eigenvalue of X'X/n by a seeded POWER_ITERS-step power estimate."""
    X = as_matrix(X)
    v = np.random.default_rng(seed).standard_normal(X.shape[1])
    v /= np.linalg.norm(v)
    ev = 0.0
    for _ in range(POWER_ITERS):
        w = np.asarray(X.T @ np.asarray(X @ v)) / X.shape[0]
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        if not np.isfinite(nw):
            _check_finite(X)  # non-finite data raises ValueError
        ev = float(v @ w)
        v = w / nw
    return ev


def default_step(X, Y, lam=0.0, seed=0):
    """eta = 1/(2*(L1 + lam)), L1 the larger view Gram norm of (X, Y), or of the ``Views`` X
    (Y then None): exact where ``Views.gram_norm`` has it, else ``estimate_gram_norm``. Two zero
    views at lam = 0 give no step: SingularMatrixError."""
    views = Views.of(X, Y)
    L1 = max(estimate_gram_norm(A, seed=seed) if L is None else L
             for L, A in zip(views.gram_norm, (views.X, views.Y)))
    if L1 + lam <= 0.0:
        raise SingularMatrixError("both view Grams are zero; set a positive regularization lam")
    return StepSizes.constant(1.0 / (2.0 * (L1 + lam)))


def theoretical_step_size(lam1, lam2, L1, e0, L2=None):
    """Step size and contraction rate from the linear-convergence guarantee.

    Returns (eta, delta, rate); ``rate`` is None unless L2 is given.
    Requires e0 strictly inside the contraction region 2*(lam1^2-lam2^2)/L1.
    """
    if not (lam1 > lam2 >= 0):
        raise ValueError("requires lam1 > lam2 >= 0")
    if L1 < 1:
        raise ValueError("requires L1 >= 1")
    bound = 2.0 * (lam1**2 - lam2**2) / L1
    if not e0 < bound:
        raise ValueError(
            f"e0={e0} is outside the contraction region: requires e0 < {bound}"
        )
    delta = 1.0 - np.sqrt(1.0 - (2.0 * (lam1**2 - lam2**2) - L1 * e0) / (2.0 * lam1**2))
    eta = delta / (6.0 * L1)
    rate = None
    if L2 is not None:
        rate = 1.0 - delta**2 / (6.0 * L1 * L2)
    return eta, delta, rate


def error_metric(state, truth):
    """Squared Euclidean distance of the tilde pair to the scaled leading pair,
    minimized over the joint sign of the truth."""
    if state.k != 1 or truth.k != 1:
        raise ValueError("error_metric is defined for rank-1 states")
    pt = state.phi_tilde[:, 0]
    qt = state.psi_tilde[:, 0]
    lam1 = float(truth.lam[0])
    f = lam1 * truth.phi[:, 0]
    g = lam1 * truth.psi[:, 0]
    if pt.shape != f.shape or qt.shape != g.shape:
        raise ValueError("state and truth dimensions do not match")
    e_plus = float(((pt - f) ** 2).sum() + ((qt - g) ** 2).sum())
    e_minus = float(((pt + f) ** 2).sum() + ((qt + g) ** 2).sum())
    return min(e_plus, e_minus)


def procrustes_distance(A, B):
    """|| A - B R ||_F minimized over orthogonal R (alignment of rank-k iterates)."""
    U, _, Vt = svd(B.T @ A, full_matrices=False)
    R = U @ Vt
    return float(np.linalg.norm(A - B @ R))


def extract_model(X, Y, state, lam=0.0):
    """Whiten the normalized pair of ``state`` in the metric X'X/n + lam I on all rows of X and Y,
    from the two n-sized products it rotates with, and rotate it onto canonical pairs
    (``reference.canonical_pairs``): a model of rank ``state.k``, sorted and canonical on X, Y."""
    X, Y = as_matrix(X), as_matrix(Y)
    (_, U, Rx, _), (_, V, Ry, _) = _whiten((X, Y), (state.phi, state.psi), lam)
    phi, psi = state.phi @ Rx, state.psi @ Ry
    return canonical_pairs(lambda B: phi @ B, lambda B: psi @ B, U.T @ V / X.shape[0], state.k)


def moment_pair(X, Y):
    """The moment pair of (X, Y) (see ``metrics.Views.pair``)."""
    return Views(X, Y).pair


def _check_run(views, k, record_every):
    """Reject a rank outside [1, min(p1, p2)] and a negative ``record_every``, before any work."""
    if k < 1 or k > min(views.X.shape[1], views.Y.shape[1]):
        raise ValueError(f"rank k={k} out of range")
    if record_every < 0:
        raise ValueError("record_every must be >= 0")


def _drive(solver, config, seed, rows, batches, eta_at, step_fn, views, state, flops, oracle,
           record_every, record_first=False, holdout=None):
    """The loop behind ``run_appgrad`` and ``run_stochastic``: from ``state``, charged ``flops``,
    at the lam, max_iters and tol (0 if absent) of ``config``, iteration ``it`` steps at
    ``eta_at(it)`` on the next (X, Y) of the iterator ``batches``, whose end ends the run,
    charged ``AppGradState.step_price``. After a ``DegenerateIterateError`` the loop takes one
    more (X, Y): the same object (a batch source) re-raises, an ended source ends the run
    uncharged, and another replaces the attempt, charged too; its failure raises. The run stops
    at an RMS movement of X phi, Y psi below tol, tested when both states cache the rows.
    A record scores the top ``oracle.k`` correlations from the iterate's cache when that is on
    ``rows``, where the model is extracted, else by ``views.evaluate``, as the oracle is; records
    fall at every ``record_every``-th t, at t = 1 if ``record_first``, and at the final iterate."""
    X, Y = rows
    lam, max_iters, tol = config["lam"], config["max_iters"], config.get("tol", 0.0)
    report = RunReport(solver=solver, seed=seed, config=config)
    oracle_tcc = views.evaluate(oracle.phi, oracle.psi) if oracle is not None else None
    k_score = getattr(oracle, "k", None)  # an oversampled iterate is scored over its top k
    t0 = time.perf_counter()

    def record():
        tcc_train = (state.tcc(X, Y, k_score) if state.cached_on(X, Y)
                     else views.evaluate(state.phi, state.psi, k_score))
        report.record(state.t, flops, tcc_train, oracle_tcc, wall_time=time.perf_counter() - t0,
                      tcc_holdout=np.nan if holdout is None
                      else holdout.evaluate(state.phi, state.psi, k_score))

    converged, recorded = False, state.t  # t of the last iterate recorded
    for it, batch in zip(range(max_iters), batches):
        eta = eta_at(it)
        try:
            new = step_fn(state, eta, *batch, lam)
        except DegenerateIterateError:
            if (again := next(batches, None)) is batch:
                raise
            if again is None:
                break
            flops += state.step_price(*batch)  # the discarded attempt did the work of a step
            batch = again
            new = step_fn(state, eta, *batch, lam)
        flops += state.step_price(*batch)
        converged = state.cached_on(*batch) and new.cached_on(*batch) and bool(max(
            np.linalg.norm(a - b) for a, b in zip(new.cache[2][1::2], state.cache[2][1::2]))
            / np.sqrt(batch[0].shape[0]) < tol)
        state = new
        if record_every and (state.t % record_every == 0 or record_first and state.t == 1):
            record()
            recorded = state.t
        if converged:
            break
    if record_every and recorded != state.t:  # the final iterate, off the cadence
        record()
    model = extract_model(X, Y, state, lam=lam)
    model.converged = converged
    # a copy without the cache, so the report keeps neither the views nor a batch alive
    report.final_state = replace(state)
    return model, report


def run_appgrad(
    X,
    Y,
    k,
    eta=None,
    lam=0.0,
    max_iters=2000,
    tol=1e-7,
    seed=0,
    init=None,
    oracle=None,
    record_every=1,
    step_fn=appgrad_step,
):
    """Iterate rank-k updates on (X, Y), or on the ``Views`` X (Y then None), until the RMS
    movement of X phi and Y psi over the solver's m rows is below ``tol``, or ``max_iters``:
    the unit-free movement ``als_cca`` stops on, tested when both states cache X phi, Y psi.

    Returns (CcaModel, RunReport). The report records in-sample total correlation and, when an
    oracle model is given, its captured-correlation ratio over the iterate's top ``oracle.k``
    correlations, at the first, every ``record_every``-th and the last iteration (none for 0).
    """
    views = Views.of(X, Y)
    (n, p1), p2 = views.X.shape, views.Y.shape[1]
    _check_run(views, k, record_every)
    rows, flops = (views.X, views.Y), 0
    if views.narrow:  # the first record pays the pair's build
        rows, flops = views.pair, moment_pair_flops(n, p1, p2)
    if eta is None:
        eta = default_step(views, None, lam, seed=seed)
    if isinstance(eta, (int, float)):
        eta = StepSizes.constant(float(eta))
    if eta.eta1 <= 0 or eta.eta2 <= 0:  # a zero step never moves the initialization
        raise ValueError("step sizes must be positive")
    state = init if init is not None else random_init(*rows, k, seed, lam)
    config = {"k": k, "eta1": eta.eta1, "eta2": eta.eta2, "lam": lam, "max_iters": max_iters,
              "tol": tol}
    return _drive("appgrad", config, seed, rows, repeat(rows), lambda it: eta, step_fn,
                  views, state, flops, oracle, record_every, record_first=True)
