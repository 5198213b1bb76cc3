"""Matrix primitives shared by every solver.

Dense matrices are plain ``numpy.ndarray``; sparse matrices are scipy CSR/CSC.
Solvers consume data only through the products ``X @ V`` and ``X.T @ W`` so
sparse inputs are never densified, except where a small Gram matrix is
explicitly requested.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, qr, svd


class SingularMatrixError(RuntimeError):
    """A Gram matrix is numerically singular and no regularization was given."""


class DegenerateIterateError(RuntimeError):
    """An iterate collapsed below the normalization floor; restart with a new init."""


def _check_finite(A):
    """Raise ValueError if a dense or sparse matrix stores a non-finite entry."""
    if not np.all(np.isfinite(A.data if sp.issparse(A) else A)):
        raise ValueError("matrix contains non-finite entries")


def as_matrix(X):
    """Coerce input to a 2-d ndarray or scipy sparse matrix, unwrapping DataMatrix."""
    if isinstance(X, DataMatrix):
        return X.values
    if sp.issparse(X):
        return X
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return A


class DataMatrix:
    """An n-by-p observation matrix, dense or sparse, with validated storage.

    Mostly useful at the I/O boundary; solver code accepts raw arrays too.
    """

    def __init__(self, values):
        if sp.issparse(values):
            values = values.tocsr()
        else:
            values = np.asarray(values, dtype=float)
            if values.ndim != 2:
                raise ValueError("data matrix must be 2-d")
        _check_finite(values)
        n, p = values.shape
        if n < 1 or p < 1:
            raise ValueError(f"data matrix must be nonempty, got shape {(n, p)}")
        self.values = values

    @property
    def shape(self):
        return self.values.shape

    def __matmul__(self, other):
        out = self.values @ other
        return np.asarray(out)


def gram(X, lam=0.0):
    """Empirical second-moment matrix  X'X/n + lam*I,  symmetrized.

    Sparse inputs accumulate only over stored entries (the sparse product).
    """
    if lam < 0:
        raise ValueError(f"regularization must be nonnegative, got {lam}")
    X = as_matrix(X)
    _check_finite(X)
    n, p = X.shape
    if sp.issparse(X):
        S = np.asarray((X.T @ X).todense()) / n
    else:
        S = (X.T @ X) / n
    S = 0.5 * (S + S.T)
    if lam:
        S = S + lam * np.eye(p)
    return S


def cross_covariance(X, Y):
    """Cross second-moment matrix  X'Y/n."""
    X, Y = as_matrix(X), as_matrix(Y)
    _check_finite(X)
    _check_finite(Y)
    if X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"row-count mismatch: X has {X.shape[0]} rows, Y has {Y.shape[0]}"
        )
    n = X.shape[0]
    S = X.T @ Y
    if sp.issparse(S):
        S = np.asarray(S.todense())
    return np.asarray(S) / n


def induced_norm(S, u):
    """Data-geometry norm (u' S u)^(1/2) for a PSD matrix S."""
    u = np.asarray(u, dtype=float)
    if S.shape[0] != u.shape[0]:
        raise ValueError(f"dimension mismatch: S is {S.shape[0]}, u is {u.shape[0]}")
    q = float(u @ (S @ u))
    if q < -1e-12 * max(1.0, float(np.abs(S).max())):
        raise ValueError(f"negative quadratic form {q}: S is not PSD")
    return np.sqrt(max(q, 0.0))


def sym_inv_sqrt(M, floor=1e-12):
    """Inverse square root  U max(D, floor)^(-1/2) U'  of a small symmetric PSD matrix.

    Eigenvalues below ``floor`` are clamped, which keeps nearly rank-deficient
    inputs finite at the price of exactness on those directions.
    """
    M = np.asarray(M, dtype=float)
    if floor <= 0:
        raise ValueError("floor must be positive")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, V = eigh(0.5 * (M + M.T))
    w = np.maximum(w, floor)
    R = (V / np.sqrt(w)) @ V.T
    return 0.5 * (R + R.T)


def randomized_svd(A, k, oversample=10, power_iters=2, seed=0):
    """Rank-k truncated SVD by random range finding with power iterations.

    Deterministic for a fixed seed. Returns (U, s, V) with orthonormal-column
    U (p1 x k), nonincreasing singular values s, and V (p2 x k).
    """
    A = as_matrix(A)
    p1, p2 = A.shape
    if k < 1 or k > min(p1, p2):
        raise ValueError(f"rank k={k} out of range for a {p1}x{p2} matrix")
    if oversample < 0:
        raise ValueError("oversample must be nonnegative")
    rng = np.random.default_rng(seed)
    r = min(k + oversample, min(p1, p2))
    G = rng.standard_normal((p2, r))
    Q = qr(np.asarray(A @ G), mode="economic")[0]
    for _ in range(power_iters):
        Z = qr(np.asarray(A.T @ Q), mode="economic")[0]
        Q = qr(np.asarray(A @ Z), mode="economic")[0]
    B = np.asarray(A.T @ Q).T
    Ub, s, Vt = svd(B, full_matrices=False)
    U = Q @ Ub
    return U[:, :k], s[:k], Vt[:k].T
