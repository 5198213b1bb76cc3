"""Kernel CCA: Mercer-kernel Gram construction and reduction to the rank-k
augmented-gradient solver with the data matrices replaced by the Grams."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .appgrad import run_appgrad
from .linalg import as_matrix


@dataclass
class KernelSpec:
    """Kernel family and parameters: linear, rbf (bandwidth sigma), or
    polynomial (degree, offset)."""

    kind: str = "linear"
    sigma: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "polynomial"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.sigma <= 0:
            raise ValueError("rbf bandwidth must be positive")
        if self.kind == "polynomial" and (self.degree < 1 or self.offset < 0):
            raise ValueError("polynomial kernel needs degree >= 1 and offset >= 0")

    @classmethod
    def parse(cls, text):
        """The spec that ``text`` names: linear | rbf:SIGMA | polynomial:DEGREE:OFFSET, a missing
        parameter taking its default; ``str`` of a spec gives it back."""
        kind, *params = text.split(":")
        if kind == "linear":
            return cls("linear")
        if kind == "rbf":
            return cls("rbf", sigma=float(params[0]) if params else 1.0)
        if kind == "polynomial":
            return cls("polynomial", degree=int(params[0]) if params else 2,
                       offset=float(params[1]) if len(params) > 1 else 1.0)
        raise ValueError(f"unknown kernel {text!r}")

    def __str__(self):
        return {"linear": "linear", "rbf": f"rbf:{self.sigma}",
                "polynomial": f"polynomial:{self.degree}:{self.offset}"}[self.kind]


@dataclass
class KernelGram:
    """An n-by-n PSD kernel matrix with the KernelSpec that produced it."""

    values: np.ndarray
    spec: KernelSpec

    @property
    def n(self):
        return self.values.shape[0]


def kernel_gram(X, spec, center=False):
    """Pairwise kernel matrix K[i, j] = K(x_i, x_j), symmetrized.

    Forms a dense n-by-n matrix; kernel CCA is inherently n-sized. Centering
    in feature space is available but off by default."""
    X = as_matrix(X)
    if hasattr(X, "toarray"):
        X = X.toarray()
    X = np.asarray(X, dtype=float)
    if spec.kind == "linear":
        K = X @ X.T
    elif spec.kind == "polynomial":
        K = (X @ X.T + spec.offset) ** spec.degree
    else:
        sq = (X * X).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(d2, 0.0, out=d2)
        K = np.exp(-d2 / (2.0 * spec.sigma**2))
    K = 0.5 * (K + K.T)
    if center:
        n = K.shape[0]
        H = np.eye(n) - np.ones((n, n)) / n
        K = H @ K @ H
        K = 0.5 * (K + K.T)
    return KernelGram(K, spec)


def kernel_ridge(Kx, Ky):
    """The ridge a kernel run applies to both Gram views: the larger of the two views'
    1e-6 * trace(K)/n (K K is rank-deficient by construction, so some is always needed)."""
    return max(1e-6 * np.trace(K) / K.shape[0] for K in (Kx, Ky))


def kernel_cca(Kx, Ky, k, lam=None, eta=None, max_iters=2000, tol=1e-7, seed=0):
    """Top-k kernel CCA via the rank-k augmented-gradient solver run on the
    Gram pair. Returns (Wx, Wy, lam_hat): dual coefficient matrices with
    Wx' (Kx Kx / n + lam I) Wx = I_k and the captured correlations.

    One ridge ``lam`` applies to both views; it defaults to ``kernel_ridge``, the larger
    of the two views' 1e-6 * trace(K)/n."""
    if Kx.n != Ky.n:
        raise ValueError("Gram matrices must cover the same samples")
    lam = kernel_ridge(Kx.values, Ky.values) if lam is None else lam
    model, _ = run_appgrad(Kx.values, Ky.values, k, eta=eta, lam=lam, max_iters=max_iters,
                           tol=tol, seed=seed)
    return model.phi, model.psi, model.lam


def check_psd(K):
    """Raise if a kernel matrix has an eigenvalue below -1e-8 * trace."""
    w = eigh(K.values, eigvals_only=True)
    floor = -1e-8 * max(np.trace(K.values), 1.0)
    if w[0] < floor:
        raise ValueError(f"kernel matrix is not PSD (min eig {w[0]:.3e})")
    return w
