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
As iterates see the data only through X'X/n, Y'Y/n, X'Y/n, ``run_appgrad`` runs on ``solver_views``:
``moment_pair`` when both views are dense and 4 (p1+p2) <= n, so the build's 3 (p1+p2)^2 + O(p1+p2)
fit the data.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, svd

from .linalg import DegenerateIterateError, _check_finite, as_matrix, gram
from .metrics import RunReport, moment_pair_flops, projected_correlations, step_flops, tcc
from .reference import CcaModel, fix_signs

EIG_FLOOR_REL = 1e-10
POWER_ITERS = 50  # of estimate_gram_norm


@dataclass
class StepSizes:
    """Per-side gradient step sizes."""

    eta1: float
    eta2: float

    def __post_init__(self):
        if self.eta1 < 0 or self.eta2 < 0:
            raise ValueError("step sizes must be nonnegative")

    @classmethod
    def constant(cls, eta):
        return cls(eta, eta)


@dataclass
class AppGradState:
    """Solver state: normalized (phi, psi) and unnormalized (phi_tilde, psi_tilde). ``cache`` is
    None or (X, Y, (X phi_tilde, X phi, Y psi_tilde, Y psi)); ``whiteners`` None (hand-built) or
    (R_x, R_y) with phi = phi_tilde R_x, psi = psi_tilde R_y. ``replace`` drops both."""

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

    def tcc(self, X, Y):
        """TCC of (X phi, Y psi), from the cached projections when made on X and Y."""
        return float(projected_correlations(*self.projections(X, Y)[1::2]).sum())


def _whiten(X, W, lam):
    """(X W, X W R, R) with R = (W' S W)^(-1/2), S = X'X/n + lam I: one n-sized
    product and one k-by-k eigendecomposition. Raises DegenerateIterateError when
    the Gram W' S W overflowed or is numerically rank-deficient."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged iterate; checked below
        XW = np.asarray(X @ W)
        G = XW.T @ XW / X.shape[0] + (lam * (W.T @ W) if lam else 0)
    if not np.all(np.isfinite(G)):
        _check_finite(X)  # non-finite data, not a diverged iterate, raises ValueError
        raise DegenerateIterateError(
            "iterate overflowed (non-finite Gram); the step size is too large")
    w, V = np.linalg.eigh(G)
    if w[-1] <= 0.0 or w[0] < max(EIG_FLOOR_REL * w[-1], 1e-300):
        raise DegenerateIterateError(
            f"iterate Gram is numerically rank-deficient (eigs in [{w[0]:.3e}, "
            f"{w[-1]:.3e}]); restart from a new initialization")
    R = (V * w**-0.5) @ V.T  # every eigenvalue passed the floor, so none is clamped
    R = 0.5 * (R + R.T)
    return XW, XW @ R, R


def normalize_columns(X, W, lam=0.0):
    """Whiten W against the (possibly regularized) view Gram: returns W R with
    R = (W' S W)^(-1/2). Raises DegenerateIterateError on collapse."""
    return W @ _whiten(as_matrix(X), W, lam)[2]


def random_init(X, Y, k, seed, lam=0.0):
    """Standard-Gaussian draw, then exact whitening of the k columns."""
    X, Y = as_matrix(X), as_matrix(Y)
    rng = np.random.default_rng(seed)
    Pt = rng.standard_normal((X.shape[1], k))
    Qt = rng.standard_normal((Y.shape[1], k))
    phi = normalize_columns(X, Pt, lam)
    psi = normalize_columns(Y, Qt, lam)
    state = AppGradState(phi, psi, phi.copy(), psi.copy(), t=0)
    state.whiteners = (np.eye(k), np.eye(k))
    return state


def _step(state, eta, X, Y, lam):
    """The update behind the batch, minibatch and rank-1 steps: gradient
    steps on both tilde matrices (each against the partner's incoming
    normalized state), then k-by-k whitening, averaged over the rows given.
    It reads the state's cache when that was made on these X and Y objects,
    else ``state.projections``. The public steps wrap this rather than each other,
    so timing one by name (as perfbench's tracer does) counts no calls made through another."""
    key = X, Y  # the cache is keyed to the caller's objects, not to converted copies
    X, Y = as_matrix(X), as_matrix(Y)
    n = X.shape[0]
    Xpt, Xphi, Yqt, Ypsi = state.cache[2] if state.cached_on(*key) else state.projections(X, Y)
    # (r' X)' rather than X' r: BLAS runs it about 1.5x faster on row-major X
    gx, gy = np.asarray((Xpt - Ypsi).T @ X).T / n, np.asarray((Yqt - Xphi).T @ Y).T / n
    pt = state.phi_tilde - eta.eta1 * (gx + lam * state.phi_tilde)
    qt = state.psi_tilde - eta.eta2 * (gy + lam * state.psi_tilde)
    (Xpt, Xphi, Rx), (Yqt, Ypsi, Ry) = _whiten(X, pt, lam), _whiten(Y, qt, lam)
    new = AppGradState(pt @ Rx, qt @ Ry, pt, qt, t=state.t + 1)
    new.cache, new.whiteners = (*key, (Xpt, Xphi, Yqt, Ypsi)), (Rx, Ry)
    return new


def appgrad_step(state, eta, X, Y, lam=0.0):
    """One rank-k update over all rows of X and Y (see ``_step``)."""
    return _step(state, eta, X, Y, lam)


def appgrad_step_rank1(state, eta, X, Y, lam=0.0):
    """Rank-1 update: the rank-k step, whose whitening is then a division by
    the induced norm. Raises DegenerateIterateError when that norm is below 1e-14."""
    if state.k != 1:
        raise ValueError("appgrad_step_rank1 requires a rank-1 state")
    new = _step(state, eta, X, Y, lam)
    # the whitener of a rank-1 iterate pt is 1 / ||pt||_S
    if max(R.item() for R in new.whiteners) > 1e14:
        raise DegenerateIterateError(
            "iterate collapsed below 1e-14 induced norm; restart from a new init"
        )
    return new


def estimate_gram_norm(X, seed=0):
    """Largest eigenvalue of X'X/n: exact from the Gram for dense X with p <= 4*POWER_ITERS (200),
    where its n*p^2 FLOPs are at most the power loop's; else a POWER_ITERS-step power estimate."""
    X = as_matrix(X)
    n, p = X.shape
    if not sp.issparse(X) and p <= 4 * POWER_ITERS:
        return float(eigh(gram(X), eigvals_only=True)[-1])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    ev = 0.0
    for _ in range(POWER_ITERS):
        w = np.asarray(X.T @ np.asarray(X @ v)) / n
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        if not np.isfinite(nw):
            _check_finite(X)  # non-finite data raises ValueError
        ev = float(v @ w)
        v = w / nw
    return ev


def default_step(X, Y, lam=0.0, seed=0):
    """eta = 1/(2*(L1 + lam)), L1 the larger view Gram norm: exact to p = 200, else estimated."""
    L1 = max(estimate_gram_norm(X, seed=seed), estimate_gram_norm(Y, seed=seed)) + lam
    return StepSizes.constant(1.0 / (2.0 * L1))


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


def extract_model(X, Y, fit, k=None):
    """Rotate the normalized pair of ``fit`` (a state or a CcaModel) to
    diagonalize the captured correlations, keep the k directions (default:
    all) that capture the most, and return a sorted, sign-fixed model. An
    unwhitened heuristic model is truncated without rotation."""
    k = fit.k if k is None else k
    converged = getattr(fit, "converged", True)
    if not getattr(fit, "whitened", True):
        return CcaModel(fit.phi[:, :k], fit.psi[:, :k], fit.lam[:k],
                        whitened=False, converged=converged)
    X, Y = as_matrix(X), as_matrix(Y)
    n = X.shape[0]
    C = np.asarray(X @ fit.phi).T @ np.asarray(Y @ fit.psi) / n
    U, s, Vt = svd(C, full_matrices=False)
    Phi, Psi = fix_signs(fit.phi @ U[:, :k], fit.psi @ Vt[:k].T)
    return CcaModel(Phi, Psi, s[:k].copy(), converged=converged)


def moment_pair(X, Y):
    """[X^ Y^] = diag(sqrt(max(w, 0) (p1+p2))) V' from V diag(w) V', the joint moment of (X, Y)."""
    (n, p1), m = X.shape, X.shape[1] + Y.shape[1]
    S = np.zeros((m, m), order="F")  # the lower triangle of n times the joint moment
    S[:p1, :p1], S[p1:, :p1], S[p1:, p1:] = X.T @ X, Y.T @ X, Y.T @ Y
    _check_finite(S.diagonal())  # non-finite exactly when a view holds a non-finite entry
    w, V = eigh(S, overwrite_a=True, driver="evd")  # V overwrites S, beside 2 m^2 + O(m) workspace
    V *= np.sqrt(np.maximum(w, 0.0) * (m / n))
    return V[:p1].T, V[p1:].T


def solver_views(X, Y):
    """(X', Y', flops): ``moment_pair(X, Y)`` and its build's FLOPs when both views are dense and
    4 (p1+p2) <= n, else X, Y and 0. A pair has p1+p2 rows, so this leaves a pair as it is."""
    (n, p1), p2 = X.shape, Y.shape[1]
    if sp.issparse(X) or sp.issparse(Y) or 4 * (p1 + p2) > n:
        return X, Y, 0
    return *moment_pair(X, Y), moment_pair_flops(n, p1, p2)


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
    """Iterate rank-k updates on ``solver_views(X, Y)`` until the
    Procrustes-aligned movement of both normalized iterates is below ``tol``, or ``max_iters``.

    Returns (CcaModel, RunReport). The report records in-sample total
    correlation and, when an oracle model is given, its captured-correlation
    ratio, at the first, every ``record_every``-th and the last iteration (none for 0).
    """
    X, Y = as_matrix(X), as_matrix(Y)
    p1, p2 = X.shape[1], Y.shape[1]
    if k < 1 or k > min(p1, p2):
        raise ValueError(f"rank k={k} out of range")
    if record_every < 0:
        raise ValueError("record_every must be >= 0")
    X, Y, flops = solver_views(X, Y)  # the first record pays the pair's build
    n = X.shape[0]
    if eta is None:
        eta = default_step(X, Y, lam, seed=seed)
    if isinstance(eta, (int, float)):
        eta = StepSizes.constant(float(eta))
    state = init if init is not None else random_init(X, Y, k, seed, lam)
    report = RunReport(
        solver="appgrad",
        seed=seed,
        config={
            "k": k,
            "eta1": eta.eta1,
            "eta2": eta.eta2,
            "lam": lam,
            "max_iters": max_iters,
            "tol": tol,
        },
    )
    oracle_tcc = tcc(X, Y, oracle.phi, oracle.psi) if oracle is not None else None
    nnz = [A.nnz if sp.issparse(A) else None for A in (X, Y)]
    t0 = time.perf_counter()
    converged = False
    for it in range(max_iters):
        cached, whitened = state.cached_on(X, Y), state.whiteners is not None
        new = step_fn(state, eta, X, Y, lam)
        flops += step_flops(n, p1, p2, k, *nnz, cached=cached, whitened=whitened)
        converged = max(procrustes_distance(new.phi, state.phi),
                        procrustes_distance(new.psi, state.psi)) < tol
        state = new
        if record_every and (state.t % record_every == 0 or state.t == 1
                             or converged or it == max_iters - 1):
            report.record(state.t, flops, state.tcc(X, Y), oracle_tcc,
                          wall_time=time.perf_counter() - t0)
        if converged:
            break
    model = extract_model(X, Y, state)
    model.converged = converged
    # a copy without the cache, so the report does not keep X and Y alive
    report.final_state = replace(state)
    return model, report
