"""Exact and classical iterative CCA solvers.

These are the oracles and baselines every other solver is measured against:
the spectral solver (whiten, then SVD), the QR-whitening variant, alternating
least squares for the leading pair, and the naive projected-gradient update
kept only as a negative control. The spectral solver and ALS read the moments
of a ``metrics.Views``, the spectral solver also its view spectra and singularity verdict
(``Views.singular``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular, svd

from .linalg import (SingularMatrixError, apply_q, check_rank, check_ridge, householder_qr,
                     induced_norm, singular_floor, sym_inv_sqrt, thin_q)
from .metrics import Views


@dataclass
class CcaModel:
    """Estimated canonical vectors and correlations for a rank-k subspace, the directions sorted
    by the correlation they capture, so its leading k' columns are the best rank-k' model.

    ``whitened`` is False for heuristics (NW/DW) whose directions are not
    S-orthonormal; metric code must not assert normalization on those. A whitened model is
    canonical: Phi'(Sx + lam I)Phi = I, Psi'(Sy + lam I)Psi = I and Phi' Sxy Psi = diag(lam).
    """

    phi: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    whitened: bool = True
    converged: bool = True

    @property
    def k(self):
        return self.phi.shape[1]


def fix_signs(Phi, Psi):
    """Flip column signs so each Phi column's largest-magnitude entry is >= 0."""
    Phi = np.array(Phi)
    Psi = np.array(Psi)
    for j in range(Phi.shape[1]):
        i = int(np.argmax(np.abs(Phi[:, j])))
        if Phi[i, j] < 0:
            Phi[:, j] = -Phi[:, j]
            Psi[:, j] = -Psi[:, j]
    return Phi, Psi


def canonical_pairs(map_x, map_y, C, k):
    """The rank-k whitened model of C = U diag(s) V', the cross moment of two bases orthonormal
    in their views' metrics: directions map_x(U[:, :k]) and map_y(V[:, :k]), the bases' maps
    applied to the singular vectors, signs fixed, and correlations s[:k]."""
    U, s, Vt = svd(C, full_matrices=False)
    Phi, Psi = fix_signs(map_x(U[:, :k]), map_y(Vt[:k].T))
    return CcaModel(Phi, Psi, s[:k].copy())


def spectral_cca(X, Y, k, lam=0.0):
    """Ground-truth CCA of (X, Y), or of the ``Views`` X (Y then None): whiten both views
    fully, then SVD the whitened cross-covariance. Returns the top-k canonical pairs. Quadratic
    in p1, p2 -- intended as the exact oracle at desk scale, not a scalable solver. At lam = 0,
    a view that ``Views.singular`` judges singular raises SingularMatrixError."""
    views = Views.of(X, Y)
    check_rank(k, views.X.shape[1], views.Y.shape[1])
    check_ridge(lam)
    Sx, Sy, Sxy = views.moments
    for side, singular, w in zip("xy", views.singular, views.gram_eigvals):
        if singular and lam == 0.0:
            raise SingularMatrixError(f"S_{side} is numerically singular (min eig {w[0]:.3e}); "
                                      "set a positive regularization lam")
    Rx, Ry = (sym_inv_sqrt(S + lam * np.eye(len(S)), floor=singular_floor(w + lam))
              for S, w in zip((Sx, Sy), views.gram_eigvals))
    return canonical_pairs(lambda U: Rx @ U, lambda V: Ry @ V, Rx @ Sxy @ Ry, k)


def qr_cca(X, Y, k, lam=0.0):
    """QR-whitening CCA of (X, Y), or of the ``Views`` X (Y then None): QR-factor each view, SVD
    of Qx'Qy.

    Dense inputs only (QR cannot exploit sparsity). Regularization is applied
    by augmenting each view with sqrt(n*lam) * I rows, which reproduces the
    lam-regularized Gram matrices exactly. ``linalg.householder_qr`` factors a private
    (augmented) copy of each view in place, Y's first; Qx'Qy is the top p1 rows of Hx'Qy, Qx's
    reflectors applied to Qy, so at most two view-sized arrays are ever live.
    """
    views = Views.of(X, Y)
    X, Y = views.X, views.Y
    if sp.issparse(X) or sp.issparse(Y):
        raise ValueError("qr_cca supports dense inputs only")
    (n, p1), p2 = X.shape, Y.shape[1]
    check_rank(k, p1, p2)
    check_ridge(lam)
    if lam == 0 and n < max(p1, p2):  # a view wider than it is tall
        raise SingularMatrixError(f"view {'x' if n < p1 else 'y'} is numerically rank-deficient; "
                                  "set lam > 0")

    def factor(A, top):
        # a private Fortran copy; lam > 0 adds sqrt(n*lam)*I rows, zero blocks keep X'Y untouched
        B = np.zeros((n + (p1 + p2 if lam > 0 else 0), A.shape[1]), order="F")
        B[:n] = A
        if lam > 0:
            np.fill_diagonal(B[n + top:], np.sqrt(n * lam))
        return householder_qr(B)

    Hy, Ty = factor(Y, p1)
    Ry_, Qy = np.triu(Hy[:p2]), thin_q(Hy, Ty)
    del Hy  # Qy takes the place of Y's factor before X's copy is made
    Hx, Tx = factor(X, 0)
    Rx_ = np.triu(Hx[:p1])
    for R, side in ((Rx_, "x"), (Ry_, "y")):
        d = np.abs(np.diag(R))
        if d.min() <= 1e-12 * d.max():
            raise SingularMatrixError(
                f"view {side} is numerically rank-deficient; set lam > 0"
            )
    return canonical_pairs(lambda U: np.sqrt(n) * solve_triangular(Rx_, U),
                           lambda V: np.sqrt(n) * solve_triangular(Ry_, V),
                           apply_q(Hx, Tx, Qy, trans=True)[:p1], k)


def als_cca(X, Y, init, max_iters=1000, tol=1e-8, lam=0.0):
    """Leading canonical pair of (X, Y), or of the ``Views`` X (Y then None), by alternating
    least squares on its moments.

    Each sweep solves the two exact least-squares problems against the
    partner's previous iterate and renormalizes in the induced norms. Stops
    when both iterates move by less than ``tol`` in induced norm.
    """
    check_ridge(lam)
    Sx, Sy, Sxy = Views.of(X, Y).moments
    Sx, Sy = Sx + lam * np.eye(len(Sx)), Sy + lam * np.eye(len(Sy))
    try:
        cx = cho_factor(Sx)
        cy = cho_factor(Sy)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "Gram matrix is singular; set lam > 0"
        ) from exc
    phi, psi = (np.asarray(v, dtype=float).copy() for v in init)
    converged = False
    for _ in range(max_iters):
        phi_new = cho_solve(cx, Sxy @ psi)
        phi_new /= induced_norm(Sx, phi_new)
        psi_new = cho_solve(cy, Sxy.T @ phi)
        psi_new /= induced_norm(Sy, psi_new)
        change = max(
            induced_norm(Sx, phi_new - phi), induced_norm(Sy, psi_new - psi)
        )
        phi, psi = phi_new, psi_new
        if change < tol:
            converged = True
            break
    # the 1-by-1 SVD of phi' Sxy psi flips one side's sign when it is negative
    model = canonical_pairs(lambda u: phi[:, None] * u, lambda v: psi[:, None] * v,
                            np.array([[phi @ (Sxy @ psi)]]), 1)
    model.converged = converged
    return model


def naive_gradient_step(phi, psi, eta1, eta2, X, Y):
    """One step of the broken projected-gradient scheme (negative control).

    Updates the normalized pair directly and renormalizes each new vector by the norm
    ||X phi||/sqrt(n) of the rows it multiplies; the true canonical pair is generically not a
    fixed point of this map.
    """
    if eta1 < 0 or eta2 < 0:
        raise ValueError("step sizes must be nonnegative")
    views = Views.of(X, Y)
    X, Y, n = views.X, views.Y, views.X.shape[0]
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape[0] != X.shape[1] or psi.shape[0] != Y.shape[1]:
        raise ValueError("direction dimensions do not match the data views")
    Xp = np.asarray(X @ phi)
    Yq = np.asarray(Y @ psi)
    g1 = np.asarray(X.T @ (Xp - Yq)) / n
    g2 = np.asarray(Y.T @ (Yq - Xp)) / n
    phi_new = phi - eta1 * g1
    psi_new = psi - eta2 * g2
    phi_new /= np.linalg.norm(np.asarray(X @ phi_new)) / np.sqrt(n)
    psi_new /= np.linalg.norm(np.asarray(Y @ psi_new)) / np.sqrt(n)
    return phi_new, psi_new
