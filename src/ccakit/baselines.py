"""Approximate-whitening heuristics used as comparison points.

All three skip the full whitening step in different ways: NW ignores it,
DW whitens only the diagonal, PCA-CCA whitens inside a principal subspace,
less the principal directions its view does not span.
NW and DW read the cross moment X'Y/n of a ``metrics.Views``.
"""

import numpy as np

from .linalg import (SingularMatrixError, check_rank, check_ridge, gram_diagonal, randomized_svd,
                     singular_floor)
from .metrics import Views
from .reference import CcaModel, fix_signs, spectral_cca

OVERSAMPLE, POWER_ITERS = 10, 2  # of every randomized_svd taken here


def _top_pairs(S, k, seed):
    """(U, s, V): the rank-k truncated SVD of the cross-moment S."""
    return randomized_svd(S, k, oversample=OVERSAMPLE, power_iters=POWER_ITERS, seed=seed)


def nw_cca(X, Y, k, seed=0):
    """No whitening: truncated SVD of the raw cross-covariance X'Y/n of (X, Y), or of the
    ``Views`` X (Y then None). Returned directions are not S-orthonormal (``whitened`` is False)."""
    views = Views.of(X, Y)
    check_rank(k, views.X.shape[1], views.Y.shape[1])  # before the cross moment is formed
    U, s, V = _top_pairs(views.cross, k, seed)
    return CcaModel(*fix_signs(U, V), s.copy(), whitened=False)


def dw_cca(X, Y, k, lam=0.0, seed=0):
    """Diagonal whitening of (X, Y), or of the ``Views`` X (Y then None): truncated SVD of
    diag(sx) X'Y/n diag(sy), sx and sy the inverse root column variances, with the directions
    mapped back by the same scales."""
    views = Views.of(X, Y)
    check_rank(k, views.X.shape[1], views.Y.shape[1])
    dx, dy = gram_diagonal(views.X, lam), gram_diagonal(views.Y, lam)
    if dx.min() <= 0 or dy.min() <= 0:
        raise ValueError("zero-variance column; set lam > 0")
    sx = 1.0 / np.sqrt(dx)
    sy = 1.0 / np.sqrt(dy)
    U, s, V = _top_pairs(sx[:, None] * views.cross * sy, k, seed)
    Phi, Psi = fix_signs(U * sx[:, None], V * sy[:, None])
    return CcaModel(Phi, Psi, s.copy(), whitened=False)


def pca_cca(X, Y, k, m, lam=0.0, seed=0):
    """Whiten only the leading m principal directions of each view of (X, Y), or of the ``Views``
    X (Y then None): project, solve the exact CCA in them, and compose the maps back. A view
    keeps the leading directions whose ridge-shifted variance s^2/n + lam passes
    ``singular_floor`` of that spectrum, the rule ``spectral_cca`` whitens by, so at lam = 0 it
    drops the directions it does not span; fewer than k left raises SingularMatrixError. With
    m = p this reduces to the exact spectral solver."""
    views = Views.of(X, Y)
    X, Y = views.X, views.Y
    (n, p1), p2 = X.shape, Y.shape[1]
    check_rank(k, p1, p2)
    check_ridge(lam)
    if not (k <= m <= min(p1, p2, n)):
        raise ValueError(f"need k <= m <= min(p1, p2, n), got k={k}, m={m}")
    oversample = 0 if m == min(p1, p2) else OVERSAMPLE
    bases = []
    for side, A, s_seed in (("x", X, seed), ("y", Y, seed + 1)):
        # right singular vectors of the data = principal directions, orthonormal at any rank
        _, s, V = randomized_svd(A, m, oversample=oversample, power_iters=POWER_ITERS, seed=s_seed)
        w = s**2 / n + lam  # nonincreasing
        r = int(np.count_nonzero(w >= singular_floor(w[::-1])))
        if r < k:
            raise SingularMatrixError(f"view {side} spans {r} principal directions at lam={lam}, "
                                      f"fewer than k={k}; lower k or set a positive lam")
        bases.append(V[:, :r])  # a prefix: a view that spans all m keeps V as it is
    Vx, Vy = bases
    inner = spectral_cca(np.asarray(X @ Vx), np.asarray(Y @ Vy), k, lam=lam)
    Phi, Psi = fix_signs(Vx @ inner.phi, Vy @ inner.psi)
    return CcaModel(Phi, Psi, inner.lam)
