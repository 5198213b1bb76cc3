"""Matrix primitives shared by every solver.

Dense matrices are plain ``numpy.ndarray``; sparse matrices are scipy CSR/CSC.
Solvers consume data only through the products ``X @ V`` and ``X.T @ W`` so
sparse inputs are never densified, except where a small Gram matrix is
explicitly requested. Every QR of an n-row matrix is ``householder_qr``: LAPACK's compact-WY
``dgeqrt`` with a recursive level-3 panel (Elmroth & Gustavson 2000), Q applied by ``dgemqrt``.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import svd
from scipy.linalg.lapack import dgemqrt, dgeqrt

_QR_BLOCK = 128  # geqrt's block (capped at the width); block 32 loses to geqrf on wide shapes


class SingularMatrixError(RuntimeError):
    """A Gram matrix is numerically singular and no regularization was given."""


class DegenerateIterateError(RuntimeError):
    """An iterate collapsed below the normalization floor; restart with a new init."""


def _check_finite(*arrays):
    """Raise ValueError if one of the dense or sparse matrices stores a non-finite entry."""
    if not all(np.all(np.isfinite(A.data if sp.issparse(A) else A)) for A in arrays):
        raise ValueError("matrix contains non-finite entries")


def check_ridge(lam):
    """The ridge rule of every entry that takes a lam: finite and >= 0, else ValueError."""
    if not 0 <= lam < np.inf:  # the comparison also rejects NaN
        raise ValueError(f"lam must be nonnegative and finite, got {lam} "
                         "(regularization must be nonnegative)")


def check_rank(k, *widths):
    """The rank rule of every entry that takes a rank k: 1 <= k <= min(widths), else ValueError."""
    if not 1 <= k <= min(widths):
        raise ValueError(f"rank k={k} out of range [1, {min(widths)}]")


def check_rows(X, Y):
    """The row rule of every pair (X, Y), applied by ``metrics.Views``: one n, else ValueError."""
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"row-count mismatch: X has {X.shape[0]} rows, Y has {Y.shape[0]}; "
                         "views must have the same number of rows")


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
    """Empirical second-moment matrix  X'X/n + lam*I,  symmetrized (a sparse X accumulates over
    its stored entries only). X is scanned for non-finite entries only if X'X is non-finite."""
    check_ridge(lam)
    X = as_matrix(X)
    n, p = X.shape
    S = X.T @ X
    S = (np.asarray(S.todense()) if sp.issparse(S) else S) / n
    if not np.all(np.isfinite(S)):
        _check_finite(X)
    S = 0.5 * (S + S.T)
    if lam:
        S = S + lam * np.eye(p)
    return S


def gram_diagonal(X, lam=0.0):
    """diag(gram(X, lam)) in O(nnz); X is scanned for non-finite entries only if the result is."""
    check_ridge(lam)
    X = as_matrix(X)
    sq = np.asarray(X.multiply(X).sum(axis=0) if sp.issparse(X) else np.einsum("ij,ij->j", X, X))
    if not np.all(np.isfinite(sq)):
        _check_finite(X)
    return sq.ravel() / X.shape[0] + lam


def cross_covariance(X, Y):
    """Cross second-moment matrix  X'Y/n; the views are scanned for non-finite entries if it is."""
    X, Y = as_matrix(X), as_matrix(Y)
    check_rows(X, Y)
    S = X.T @ Y
    S = np.asarray(S.todense() if sp.issparse(S) else S) / X.shape[0]
    if not np.all(np.isfinite(S)):
        _check_finite(X, Y)
    return S


def induced_norm(S, u):
    """Data-geometry norm (u' S u)^(1/2) for a PSD matrix S."""
    u = np.asarray(u, dtype=float)
    if S.shape[0] != u.shape[0]:
        raise ValueError(f"dimension mismatch: S is {S.shape[0]}, u is {u.shape[0]}")
    q = float(u @ (S @ u))
    if q < -1e-12 * max(1.0, float(np.abs(S).max())):
        raise ValueError(f"negative quadratic form {q}: S is not PSD")
    return np.sqrt(max(q, 0.0))


def singular_floor(w):
    """max(1e-12 * w[-1], the smallest normal float): a Gram with ascending eigenvalues w is
    singular if w[0] is below, judged against its own scale; a zero Gram is singular."""
    return max(1e-12 * w[-1], np.finfo(float).tiny)


def sym_inv_sqrt(M, floor=1e-12):
    """Inverse square root  U max(D, floor)^(-1/2) U'  of a small symmetric PSD matrix, or of each
    member of a (..., k, k) stack by one eigendecomposition call, ``floor`` then a scalar or one
    per member, positive and finite. A stack's members equal the 2-d calls on them bit for bit.

    Eigenvalues below ``floor`` are clamped, which keeps nearly rank-deficient
    inputs finite at the price of exactness on those directions.
    """
    M = np.asarray(M, dtype=float)
    floor = np.broadcast_to(floor, M.shape[:-2])
    if not np.all((floor > 0) & (floor < np.inf)):  # also rejects NaN
        raise ValueError("floor must be positive and finite")
    _check_finite(M)
    Mt = np.swapaxes(M, -1, -2)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))  # per member
    if np.any(np.abs(M - Mt).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("matrix is not symmetric within tolerance")
    w, V = np.linalg.eigh(0.5 * (M + Mt))
    w = np.maximum(w, floor[..., None])
    R = (V / np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)
    return 0.5 * (R + np.swapaxes(R, -1, -2))


def householder_qr(A):
    """QR factor (H, T) of a finite m x p matrix A, m >= p: R is the upper triangle of H[:p], the
    reflectors of Q lie below it, T holds their compact-WY blocks. A float64 Fortran A is factored
    in place and then holds H; any other A is copied first."""
    A = np.asarray(A, dtype=float, order="F")
    H, T, info = dgeqrt(min(_QR_BLOCK, A.shape[1]), A, overwrite_a=True)
    if info:
        raise ValueError(f"dgeqrt rejected argument {-info}")
    if not np.all(np.isfinite(H)):  # a non-finite entry of A spreads into H, never out of it
        raise ValueError("matrix contains non-finite entries")
    return H, T


def apply_q(H, T, C, trans=False):
    """Q C, or Q' C if ``trans``, for the factor (H, T); C is overwritten if float64 Fortran."""
    C, info = dgemqrt(H, T, C, trans="T" if trans else "N", overwrite_c=True)
    if info:
        raise ValueError(f"dgemqrt rejected argument {-info}")
    return C


def thin_q(H, T):
    """The orthonormal m x p factor Q[:, :p] of A = QR, from its factor (H, T)."""
    Q = np.zeros(H.shape, order="F")
    np.fill_diagonal(Q, 1.0)
    return apply_q(H, T, Q)


def randomized_svd(A, k, oversample=10, power_iters=2, seed=0):
    """Rank-k truncated SVD by random range finding with power iterations.

    Deterministic for a fixed seed. Returns (U, s, V) with orthonormal-column
    U (p1 x k), nonincreasing singular values s, and V (p2 x k).
    """
    A = as_matrix(A)
    p1, p2 = A.shape
    check_rank(k, p1, p2)
    if oversample < 0:
        raise ValueError("oversample must be nonnegative")
    rng = np.random.default_rng(seed)
    r = min(k + oversample, min(p1, p2))
    G = rng.standard_normal((p2, r))
    with np.errstate(invalid="ignore"):  # inf - inf in a sketch is a NaN householder_qr raises on
        Q = thin_q(*householder_qr(A @ G))
        for _ in range(power_iters):
            Z = thin_q(*householder_qr(A.T @ Q))
            Q = thin_q(*householder_qr(A @ Z))
    B = np.asarray(A.T @ Q).T
    Ub, s, Vt = svd(B, full_matrices=False)
    U = Q @ Ub
    return U[:, :k], s[:k], Vt[:k].T
