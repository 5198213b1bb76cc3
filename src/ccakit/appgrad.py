"""Batch first-order CCA with augmented state (rank-1 and rank-k).

The solver evolves a quadruple (Phi, Psi, PhiTilde, PsiTilde): the tilde
matrices take plain gradient steps on the coupled least-squares objective
|| X*PhiTilde - Y*Psi ||_F^2 / 2n, and the normalized matrices are produced
by whitening with a small k-by-k Gram matrix. No p-by-p object is formed.

The data enter only through n-by-p times p-by-k products. A dense batch step reads
X and Y once, in row blocks: with Z = [X PhiTilde, Y PsiTilde] it caches Z'Z/n,
C_x = X'Z/n and C_y = Y'Z/n (1 narrow, 1 2k-wide product per view), whence the
whiteners and the next gradient X'(X PhiTilde - Y Psi)/n = C_x[:, :k] - C_x[:, k:] R_y.
A sparse step caches its n-by-k projections (2 products per view); a minibatch step
issues 4. A cache is keyed to the X and Y objects it was made on; mutating them is unsupported.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag, eigh, svd

from .linalg import DegenerateIterateError, as_matrix, gram
from .metrics import IterationRecord, RunReport, moment_tcc, projected_correlations, step_flops, tcc
from .reference import CcaModel, fix_signs

EIG_FLOOR_REL = 1e-10
# Bytes per row block of the dense pass, both views. On batch-rank5 (p1=p2=100, k=5; 2 vCPUs,
# 1 BLAS thread) 256-655-row blocks took 13.3-15.3 ms per iteration, 1024 rows or more 17-21 ms.
ROW_BLOCK_BYTES = 2**20


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
    """Solver state: normalized (phi, psi) and unnormalized (phi_tilde, psi_tilde).
    ``cache`` is None or (X, Y, (X phi_tilde, X phi, Y psi_tilde, Y psi), None) or, from
    the dense pass, (X, Y, None, (C_x', C_y', Z'Z/n, R_x, R_y)); it is dropped by ``replace``."""

    phi: np.ndarray
    psi: np.ndarray
    phi_tilde: np.ndarray
    psi_tilde: np.ndarray
    t: int = 0
    cache: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def k(self):
        return self.phi.shape[1]

    def cached_on(self, X, Y):
        """Whether the cache was made on these very X and Y objects."""
        return self.cache is not None and self.cache[0] is X and self.cache[1] is Y

    def projections(self, X, Y):
        """(X phi_tilde, X phi, Y psi_tilde, Y psi), from the cache when it
        holds them for X and Y, else computed (four n-sized products)."""
        if self.cached_on(X, Y) and self.cache[2] is not None:
            return self.cache[2]
        return (np.asarray(X @ self.phi_tilde), np.asarray(X @ self.phi),
                np.asarray(Y @ self.psi_tilde), np.asarray(Y @ self.psi))

    def tcc(self, X, Y):
        """TCC of (X phi, Y psi): k-by-k work from a dense pass made on X and Y, else projected."""
        if self.cached_on(X, Y) and self.cache[3] is not None:
            (*_, ZZ, Rx, Ry), k = self.cache[3], self.k
            return moment_tcc((ZZ[:k, :k], ZZ[k:, k:], ZZ[:k, k:]), Rx, Ry)
        return float(projected_correlations(*self.projections(X, Y)[1::2]).sum())


def _whiteners(products, k):
    """``products()``'s outputs, the first a Gram G (lam terms included) of k-column
    iterates, and the whitener G_ii^(-1/2) of each diagonal k-by-k block. Raises
    DegenerateIterateError when G overflowed or a block is rank-deficient."""
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged iterate; checked below
        out = products()
    if not np.all(np.isfinite(out[0])):
        raise DegenerateIterateError(
            "iterate overflowed (non-finite Gram); the step size is too large")
    Rs = []
    for i in range(0, out[0].shape[0], k):
        w, V = eigh(out[0][i:i + k, i:i + k])
        if w[-1] <= 0.0 or w[0] < max(EIG_FLOOR_REL * w[-1], 1e-300):
            raise DegenerateIterateError(
                f"iterate Gram is numerically rank-deficient (eigs in [{w[0]:.3e}, "
                f"{w[-1]:.3e}]); restart from a new initialization")
        R = (V / np.sqrt(w)) @ V.T  # every eigenvalue passed the floor, so none is clamped
        Rs.append(0.5 * (R + R.T))
    return out, Rs


def _whiten(X, W, lam):
    """(W R, X W, X W R) with R = (W' S W)^(-1/2), S = X'X/n + lam I: one n-sized
    product and one k-by-k eigendecomposition."""
    def products():
        XW = np.asarray(X @ W)
        return XW.T @ XW / X.shape[0] + (lam * (W.T @ W) if lam else 0), XW
    (_, XW), (R,) = _whiteners(products, W.shape[1])
    return W @ R, XW, XW @ R


def _dense_pass(X, Y, pt, qt, lam):
    """One read of dense X and Y in row blocks of about ROW_BLOCK_BYTES: with
    Z = [X pt, Y qt], returns (C_x' = Z'X/n, C_y' = Z'Y/n, Z'Z/n, R_x, R_y)."""
    (n, p1), p2, k = X.shape, Y.shape[1], pt.shape[1]
    rows = max(1, ROW_BLOCK_BYTES // (X.itemsize * (p1 + p2)))

    def products():
        ZZ, Cx, Cy = np.zeros((2 * k, 2 * k)), np.zeros((2 * k, p1)), np.zeros((2 * k, p2))
        for i in range(0, n, rows):
            Xb, Yb = X[i:i + rows], Y[i:i + rows]
            Z = np.hstack((np.asarray(Xb @ pt), np.asarray(Yb @ qt)))
            ZZ += Z.T @ Z
            Cx += Z.T @ Xb
            Cy += Z.T @ Yb
        ZZ /= n
        return ZZ + (lam * block_diag(pt.T @ pt, qt.T @ qt) if lam else 0), Cx / n, Cy / n, ZZ
    (_, Cx, Cy, ZZ), (Rx, Ry) = _whiteners(products, k)
    return Cx, Cy, ZZ, Rx, Ry


def normalize_columns(X, W, lam=0.0):
    """Whiten W against the (possibly regularized) view Gram: returns W R with
    R = (W' S W)^(-1/2). Raises DegenerateIterateError on collapse."""
    return _whiten(as_matrix(X), W, lam)[0]


def random_init(X, Y, k, seed, lam=0.0):
    """Standard-Gaussian draw, then exact whitening of the k columns."""
    X, Y = as_matrix(X), as_matrix(Y)
    rng = np.random.default_rng(seed)
    Pt = rng.standard_normal((X.shape[1], k))
    Qt = rng.standard_normal((Y.shape[1], k))
    phi = normalize_columns(X, Pt, lam)
    psi = normalize_columns(Y, Qt, lam)
    return AppGradState(phi, psi, phi.copy(), psi.copy(), t=0)


def _step(state, eta, X, Y, lam, batch=True):
    """The update behind the batch, minibatch and rank-1 steps: gradient
    steps on both tilde matrices (each against the partner's incoming
    normalized state), then k-by-k whitening, averaged over the rows given.
    ``batch``: the next step runs on these rows, so dense views take the pass.
    The public steps wrap this rather than each other, so timing one by name
    (as perfbench's tracer does) does not count calls made through another."""
    key = X, Y  # the cache is keyed to the caller's objects, not to converted copies
    X, Y = as_matrix(X), as_matrix(Y)
    n, k = X.shape[0], state.k
    projections, dense = state.cache[2:] if state.cached_on(*key) else (None, None)
    if dense is not None:
        Cx, Cy, _, Rx, Ry = dense
        gx, gy = (Cx[:k] - Ry @ Cx[k:]).T, (Cy[k:] - Rx @ Cy[:k]).T
    else:
        Xpt, Xphi, Yqt, Ypsi = projections or state.projections(X, Y)
        # (r' X)' rather than X' r: BLAS runs it about 1.5x faster on row-major X
        gx, gy = np.asarray((Xpt - Ypsi).T @ X).T / n, np.asarray((Yqt - Xphi).T @ Y).T / n
    pt = state.phi_tilde - eta.eta1 * (gx + lam * state.phi_tilde)
    qt = state.psi_tilde - eta.eta2 * (gy + lam * state.psi_tilde)
    if batch and not (sp.issparse(X) or sp.issparse(Y)):
        projections, dense = None, _dense_pass(X, Y, pt, qt, lam)
        phi, psi = pt @ dense[3], qt @ dense[4]
    else:
        (phi, Xpt, Xphi), (psi, Yqt, Ypsi) = _whiten(X, pt, lam), _whiten(Y, qt, lam)
        projections, dense = (Xpt, Xphi, Yqt, Ypsi), None
    new = AppGradState(phi, psi, pt, qt, t=state.t + 1)
    new.cache = (*key, projections, dense)
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
    # phi = pt / ||pt||_S, so the induced norm of pt is |pt| / |phi|
    norm = np.linalg.norm
    if min(norm(new.phi_tilde) / norm(new.phi), norm(new.psi_tilde) / norm(new.psi)) < 1e-14:
        raise DegenerateIterateError(
            "iterate collapsed below 1e-14 induced norm; restart from a new init"
        )
    return new


def estimate_gram_norm(X, iters=50, seed=0):
    """Largest eigenvalue of X'X/n: exact from the Gram for dense X with p <= 4*iters (200),
    where its n*p^2 FLOPs are at most the power loop's; else an ``iters``-step power estimate."""
    X = as_matrix(X)
    n, p = X.shape
    if not sp.issparse(X) and p <= 4 * iters:
        return float(eigh(gram(X), eigvals_only=True)[-1])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    ev = 0.0
    for _ in range(iters):
        w = np.asarray(X.T @ np.asarray(X @ v)) / n
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
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
    """Iterate rank-k updates until the Procrustes-aligned movement of both
    normalized iterates falls below ``tol`` or ``max_iters`` is exhausted.

    Returns (CcaModel, RunReport). The report records in-sample total
    correlation and, when an oracle model is given, its captured-correlation
    ratio, at the first, every ``record_every``-th and the last iteration.
    """
    X, Y = as_matrix(X), as_matrix(Y)
    n, p1 = X.shape
    p2 = Y.shape[1]
    if k < 1 or k > min(p1, p2):
        raise ValueError(f"rank k={k} out of range")
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
    flops = 0
    t0 = time.perf_counter()
    converged = False
    for it in range(max_iters):
        cached = state.cached_on(X, Y)
        new = step_fn(state, eta, X, Y, lam)
        flops += step_flops(n, p1, p2, k, *nnz, cached=cached, batch=True)
        converged = max(procrustes_distance(new.phi, state.phi),
                        procrustes_distance(new.psi, state.psi)) < tol
        state = new
        if record_every and (state.t % record_every == 0 or state.t == 1
                             or converged or it == max_iters - 1):
            t_in = state.tcc(X, Y)
            rec = IterationRecord(t=state.t, flops=flops, tcc_train=t_in,
                                  wall_time=time.perf_counter() - t0)
            if oracle_tcc:
                rec.pcc_train = t_in / oracle_tcc
            report.records.append(rec)
        if converged:
            break
    model = extract_model(X, Y, state)
    model.converged = converged
    # a copy without the cache, so the report does not keep X and Y alive
    report.final_state = replace(state)
    return model, report
