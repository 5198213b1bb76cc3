"""Approximate-whitening heuristics used as comparison points.

All three skip the full whitening step in different ways: NW ignores it,
DW whitens only the diagonal, PCA-CCA whitens inside a principal subspace.
NW and DW read the cross moment X'Y/n of a ``metrics.Views``.
"""

import numpy as np

from .linalg import as_matrix, gram_diagonal, randomized_svd
from .metrics import Views
from .reference import CcaModel, fix_signs, spectral_cca

OVERSAMPLE, POWER_ITERS = 10, 2  # of every randomized_svd taken here


def _top_pairs(S, k, seed):
    """(U, s, V): the rank-k truncated SVD of the cross-moment S."""
    return randomized_svd(S, k, oversample=OVERSAMPLE, power_iters=POWER_ITERS, seed=seed)


def nw_cca(X, Y, k, seed=0):
    """No whitening: truncated SVD of the raw cross-covariance X'Y/n of (X, Y), or of the
    ``Views`` X (Y then None). Returned directions are not S-orthonormal (``whitened`` is False)."""
    U, s, V = _top_pairs(Views.of(X, Y).cross, k, seed)
    return CcaModel(*fix_signs(U, V), s.copy(), whitened=False)


def dw_cca(X, Y, k, lam=0.0, seed=0):
    """Diagonal whitening of (X, Y), or of the ``Views`` X (Y then None): truncated SVD of
    diag(sx) X'Y/n diag(sy), sx and sy the inverse root column variances, with the directions
    mapped back by the same scales."""
    views = Views.of(X, Y)
    dx, dy = gram_diagonal(views.X, lam), gram_diagonal(views.Y, lam)
    if dx.min() <= 0 or dy.min() <= 0:
        raise ValueError("zero-variance column; set lam > 0")
    sx = 1.0 / np.sqrt(dx)
    sy = 1.0 / np.sqrt(dy)
    U, s, V = _top_pairs(sx[:, None] * views.cross * sy, k, seed)
    Phi, Psi = fix_signs(U * sx[:, None], V * sy[:, None])
    return CcaModel(Phi, Psi, s.copy(), whitened=False)


def pca_cca(X, Y, k, m, lam=0.0, seed=0):
    """Whiten only the leading m principal directions of each view: project,
    solve the exact m-dimensional CCA, and compose the maps back. With m = p
    this reduces to the exact spectral solver."""
    X, Y = as_matrix(X), as_matrix(Y)
    n, p1 = X.shape
    p2 = Y.shape[1]
    if not (k <= m <= min(p1, p2, n)):
        raise ValueError(f"need k <= m <= min(p1, p2, n), got k={k}, m={m}")
    # right singular vectors of the data = principal directions, orthonormal at any rank
    oversample = 0 if m == min(p1, p2) else OVERSAMPLE
    _, _, Vx = randomized_svd(X, m, oversample=oversample, power_iters=POWER_ITERS, seed=seed)
    _, _, Vy = randomized_svd(Y, m, oversample=oversample, power_iters=POWER_ITERS, seed=seed + 1)
    Ux = np.asarray(X @ Vx)
    Uy = np.asarray(Y @ Vy)
    inner = spectral_cca(Ux, Uy, k, lam=lam)
    Phi = Vx @ inner.phi
    Psi = Vy @ inner.psi
    Phi, Psi = fix_signs(Phi, Psi)
    return CcaModel(Phi, Psi, inner.lam)
