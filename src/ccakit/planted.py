"""Synthetic two-view instances with known canonical structure.

Construction: n-by-(p1+p2) orthonormal latent columns scaled by sqrt(n), so
their empirical Gram is the identity, from the Cholesky QR of a Gaussian draw.
The draw is made and mapped row block by row block inside the output views, so
a build's working memory is O(block (p1+p2) + (p1+p2)^2) beyond them, with no
n-sized QR. The first k latents are shared by both views with prescribed
per-pair correlations; the rest are view-private fillers. Each view is the
latent block times an invertible mixing matrix C = R diag(s), so S = C C'
exactly (noise 0), the true canonical directions are columns of R diag(1/s),
and the singular-value profile s controls conditioning. By default s is
ascending, which puts the canonical latents on the *smallest* feature scales
-- the regime where approximate whitening heuristics break down.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, qr, solve_triangular

from .metrics import Views
from .reference import CcaModel, fix_signs, spectral_cca


@dataclass
class PlantedParams:
    n: int
    p1: int
    p2: int
    correlations: tuple
    noise: float = 0.0
    cond_x: float = 1.0
    cond_y: float = 1.0
    rotate: bool = True
    canonical_scale: str = "low"  # put canonical latents on "low" or "high" feature scales
    # rotate the latent side of the mixing too; makes the canonical directions
    # generic (not eigenvectors of the view Grams) but blends the scale profile
    latent_rotate: bool = False

    @property
    def k(self):
        return len(self.correlations)

    def validate(self):
        rho = np.asarray(self.correlations, dtype=float)
        if rho.size < 1 or not np.all((rho > 0) & (rho < 1)):
            raise ValueError("correlations must lie strictly in (0, 1)")
        if np.any(np.diff(rho) >= 0):
            raise ValueError("correlations must be strictly decreasing")
        if self.k > min(self.p1, self.p2):
            raise ValueError("k exceeds view widths")
        if self.n < self.p1 + self.p2:
            raise ValueError("need n >= p1 + p2 for the latent construction")
        if self.noise < 0 or self.cond_x < 1 or self.cond_y < 1:
            raise ValueError("noise >= 0 and conditioning >= 1 required")
        if self.canonical_scale not in ("low", "high"):
            raise ValueError("canonical_scale must be 'low' or 'high'")


@dataclass
class PlantedInstance:
    x: np.ndarray
    y: np.ndarray
    model: CcaModel          # planted truth (exact when noise == 0)
    empirical: CcaModel      # spectral oracle recomputed on the generated data
    params: PlantedParams
    seed: int
    mixing_x: np.ndarray = None
    mixing_y: np.ndarray = None

    def conditioning(self):
        """(L1, L2) bounds measured from the view Grams: L1 >= largest
        eigenvalue of either Gram, 1/L2 <= smallest. Both clamped to >= 1."""
        wx, wy = Views(self.x, self.y).gram_eigvals
        L1 = max(wx[-1], wy[-1], 1.0)
        L2 = max(1.0 / min(wx[0], wy[0]), 1.0)
        return L1, L2


_BLOCK_BYTES = 1 << 20  # Z per row block of a build


def _mixing(p, cond, rng, rotate, canonical_scale="low", latent_rotate=False):
    s = np.geomspace(1.0, cond, p) if cond > 1 else np.ones(p)
    if canonical_scale == "high":
        s = s[::-1].copy()
    if rotate:
        R = qr(rng.standard_normal((p, p)))[0]
    else:
        R = np.eye(p)
    C = R * s  # R @ diag(s)
    if latent_rotate:
        C = C @ qr(rng.standard_normal((p, p)))[0].T
    return C


def generate_planted(params, seed=0):
    """Build a PlantedInstance; reproducible from (params, seed).

    The latent basis is the Cholesky QR of one standard_normal((n, p1+p2))
    draw Z, built inside the returned views: Z is drawn in row blocks into X
    (its first p1 columns) and Y (the rest), R is the upper Cholesky factor of
    Z'Z = R'R, and each row block is then mapped in place to
    X = Z W[:, :p1] Cx' and Y = Z W[:, p1:] Cy', where W is sqrt(n) R^-1 with
    the canonical mixing applied to its y columns. Cholesky QR is accurate to
    about eps cond(Z)^2, and a tall Gaussian Z is well conditioned. Working
    memory beyond the views is O(block (p1+p2) + (p1+p2)^2): one row block of
    about 1 MiB and the (p1+p2)-square factors."""
    params.validate()
    rng = np.random.default_rng(seed)
    n, p1, p2, k = params.n, params.p1, params.p2, params.k
    p = p1 + p2
    rho = np.asarray(params.correlations, dtype=float)
    rows = max(1, _BLOCK_BYTES // (8 * p))
    blocks = [slice(r, min(r + rows, n)) for r in range(0, n, rows)]
    buf = np.empty(min(rows, n) * p)

    def scratch(b, width):
        """The block buffer as a C-ordered (rows of b)-by-width array."""
        return buf[: (b.stop - b.start) * width].reshape(-1, width)

    X, Y = np.empty((n, p1)), np.empty((n, p2))
    for b in blocks:
        z = rng.standard_normal(out=scratch(b, p))
        X[b], Y[b] = z[:, :p1], z[:, p1:]
    XY = X.T @ Y
    G = np.block([[X.T @ X, XY], [XY.T, Y.T @ Y]])
    # Z W has orthonormal columns scaled by sqrt(n); the y latents' first k
    # columns mix in the x latents' so pair j correlates at rho_j.
    W = solve_triangular(cholesky(G), np.eye(p)) * np.sqrt(n)
    W[:, p1 : p1 + k] = W[:, :k] * rho + W[:, p1 : p1 + k] * np.sqrt(1.0 - rho**2)

    Cx = _mixing(p1, params.cond_x, rng, params.rotate, params.canonical_scale,
                 params.latent_rotate)
    Cy = _mixing(p2, params.cond_y, rng, params.rotate, params.canonical_scale,
                 params.latent_rotate)
    Mx = W[:p1, :p1] @ Cx.T            # W is upper triangular: X reads only Zx
    My = W[:, p1:] @ Cy.T
    for b in blocks:                   # Y first: it reads the block's Zx too
        zx, zy = X[b], Y[b]
        t = np.matmul(zy, My[p1:], out=scratch(b, p2))
        np.matmul(zx, My[:p1], out=zy)
        zy += t
        zx[...] = np.matmul(zx, Mx, out=scratch(b, p1))
    if params.noise > 0:               # X's noise is drawn whole before Y's
        for V in (X, Y):
            for b in blocks:
                e = rng.standard_normal(out=scratch(b, V.shape[1]))
                e *= params.noise
                V[b] += e

    Phi = np.linalg.solve(Cx, np.eye(p1)).T[:, :k]
    Psi = np.linalg.solve(Cy, np.eye(p2)).T[:, :k]
    Phi, Psi = fix_signs(Phi, Psi)
    planted = CcaModel(Phi, Psi, rho.copy())
    empirical = spectral_cca(X, Y, k)
    return PlantedInstance(
        x=X, y=Y, model=planted, empirical=empirical,
        params=params, seed=seed, mixing_x=Cx, mixing_y=Cy,
    )
