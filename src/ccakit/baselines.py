"""Approximate-whitening heuristics used as comparison points.

All three skip the full whitening step in different ways: NW ignores it,
DW whitens only the diagonal, PCA-CCA whitens inside a principal subspace.
"""

import numpy as np
from scipy.linalg import qr

from .linalg import as_matrix, cross_covariance, gram_diagonal, randomized_svd
from .reference import CcaModel, fix_signs, spectral_cca


def nw_cca(X, Y, k, oversample=10, power_iters=2, seed=0):
    """No whitening: truncated SVD of the raw cross-covariance X'Y/n.

    Returned directions are not S-orthonormal (``whitened`` is False)."""
    X, Y = as_matrix(X), as_matrix(Y)
    p1, p2 = X.shape[1], Y.shape[1]
    if k < 1 or k > min(p1, p2):
        raise ValueError(f"rank k={k} out of range")
    Sxy = cross_covariance(X, Y)
    U, s, V = randomized_svd(Sxy, k, oversample=oversample, power_iters=power_iters, seed=seed)
    Phi, Psi = fix_signs(U, V)
    return CcaModel(Phi, Psi, s.copy(), whitened=False)


def dw_cca(X, Y, k, lam=0.0, oversample=10, power_iters=2, seed=0):
    """Diagonal whitening: scale each column by its inverse root variance,
    run nw_cca on the scaled pair, and map the directions back."""
    X, Y = as_matrix(X), as_matrix(Y)
    dx, dy = gram_diagonal(X, lam), gram_diagonal(Y, lam)
    if dx.min() <= 0 or dy.min() <= 0:
        raise ValueError("zero-variance column; set lam > 0")
    sx = 1.0 / np.sqrt(dx)
    sy = 1.0 / np.sqrt(dy)
    Xs = X.multiply(sx) if hasattr(X, "multiply") else X * sx
    Ys = Y.multiply(sy) if hasattr(Y, "multiply") else Y * sy
    inner = nw_cca(Xs, Ys, k, oversample=oversample, power_iters=power_iters, seed=seed)
    Phi = inner.phi * sx[:, None]
    Psi = inner.psi * sy[:, None]
    Phi, Psi = fix_signs(Phi, Psi)
    return CcaModel(Phi, Psi, inner.lam, whitened=False)


def pca_cca(X, Y, k, m, lam=0.0, oversample=10, power_iters=2, seed=0):
    """Whiten only the leading m principal directions of each view: project,
    solve the exact m-dimensional CCA, and compose the maps back. With m = p
    this reduces to the exact spectral solver."""
    X, Y = as_matrix(X), as_matrix(Y)
    n, p1 = X.shape
    p2 = Y.shape[1]
    if not (k <= m <= min(p1, p2, n)):
        raise ValueError(f"need k <= m <= min(p1, p2, n), got k={k}, m={m}")
    # right singular vectors of the data = principal directions
    if m == min(p1, p2):
        oversample = min(oversample, 0)
    _, _, Vx = randomized_svd(X, m, oversample=oversample, power_iters=power_iters, seed=seed)
    _, _, Vy = randomized_svd(Y, m, oversample=oversample, power_iters=power_iters, seed=seed + 1)
    # re-orthonormalize in case the randomized bases are rank-deficient
    Vx = qr(Vx, mode="economic")[0]
    Vy = qr(Vy, mode="economic")[0]
    Ux = np.asarray(X @ Vx)
    Uy = np.asarray(Y @ Vy)
    inner = spectral_cca(Ux, Uy, k, lam=lam)
    Phi = Vx @ inner.phi
    Psi = Vy @ inner.psi
    Phi, Psi = fix_signs(Phi, Psi)
    return CcaModel(Phi, Psi, inner.lam)
