"""Correlation-capture metrics and run traces.

TCC is the sum of canonical correlations between the two projected views;
PCC is its ratio to the oracle's TCC on the same evaluation split. Traces
serialize to line-delimited text (see RunReport.to_lines for the field order).

FLOP model used throughout the reports (documented so curves are comparable):
a product of an m-row view with a p-by-k matrix costs 2*m*p*k (2*nnz*k if the
view is sparse), a 2k-wide one twice that. One iteration over an m-row (mini)batch
costs, in such products per view, uncached / with the state's cache:
    4 / -   minibatch: two projections, the gradient, projecting the new iterate
    4 / 2   sparse batch: the cache holds the projections
    6 / 3   dense batch: a row-blocked pass of 1 narrow and 1 2k-wide product
  + 8*m*k^2 + 24*k^3       k-by-k Grams, re-projections, eigendecompositions
  + 2*(p1+p2)*k^2          applying the k-by-k whitener

Evaluation: a rank-k TCC on n rows costs 2*n*(p1+p2)*k projected, or O((p1+p2)^2*k)
from the moments X'X/n, Y'Y/n, X'Y/n (n*(p1+p2)^2 once). Dense views are evaluated
from the moments, sparse ones projected; they agree to ~eps*cond(X)^2 relative.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, svd

from .linalg import as_matrix, cross_covariance, gram, sym_inv_sqrt


def step_flops(m, p1, p2, k, nnz1=None, nnz2=None, cached=False, batch=False):
    """FLOPs of one solver iteration over an m-row batch (see module docstring); ``batch``:
    over all rows; ``cached``: the state carries what its last step left on these rows."""
    c1 = 2 * nnz1 * k if nnz1 is not None else 2 * m * p1 * k
    c2 = 2 * nnz2 * k if nnz2 is not None else 2 * m * p2 * k
    per_view = (6 if batch and nnz1 is None and nnz2 is None else 4) // (2 if cached else 1)
    return per_view * (c1 + c2) + 8 * m * k * k + 24 * k**3 + 2 * (p1 + p2) * k * k


def _correlations(Su, Sv, Suv, ridge_scale=1e-10):
    """Canonical correlations from k-by-k moments, trace-scaled ridge for unwhitened ones."""
    lam_u = ridge_scale * max(np.trace(Su) / max(Su.shape[0], 1), 1e-300)
    lam_v = ridge_scale * max(np.trace(Sv) / max(Sv.shape[0], 1), 1e-300)
    Ru = sym_inv_sqrt(Su + lam_u * np.eye(Su.shape[0]), floor=lam_u * 1e-6)
    Rv = sym_inv_sqrt(Sv + lam_v * np.eye(Sv.shape[0]), floor=lam_v * 1e-6)
    s = svd(Ru @ Suv @ Rv, compute_uv=False)
    return np.minimum(s, 1.0 + 1e-9)


def projected_correlations(U, V, ridge_scale=1e-10):
    """Canonical correlations of two n-by-k matrices (see ``_correlations``)."""
    U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    if U.shape[0] != V.shape[0]:
        raise ValueError("projected views must have the same number of rows")
    n = U.shape[0]
    return _correlations(U.T @ U / n, V.T @ V / n, U.T @ V / n, ridge_scale)


def tcc(X, Y, A, B):
    """Total correlations captured by the direction matrices A (p1 x k), B (p2 x k):
    sum of canonical correlations of (XA, YB). Invariant to invertible
    right-multiplication of A or B."""
    X, Y = as_matrix(X), as_matrix(Y)
    U = np.asarray(X @ np.asarray(A, dtype=float))
    V = np.asarray(Y @ np.asarray(B, dtype=float))
    return float(projected_correlations(U, V).sum())


def moments(X, Y, lam=0.0):
    """The second moments (X'X/n + lam*I, Y'Y/n + lam*I, X'Y/n) of a pair of views."""
    return gram(X, lam), gram(Y, lam), cross_covariance(X, Y)


def moment_tcc(M, A, B):
    """``tcc`` from M = moments(X, Y), through A'SxA, B'SyB and A'SxyB: no n-sized cost."""
    Sx, Sy, Sxy = M
    return float(_correlations(A.T @ Sx @ A, B.T @ Sy @ B, A.T @ Sxy @ B).sum())


def tcc_evaluator(X, Y):
    """(A, B) -> TCC on (X, Y): ``moment_tcc`` for dense views, ``tcc`` for sparse."""
    if sp.issparse(as_matrix(X)) or sp.issparse(as_matrix(Y)):
        return partial(tcc, X, Y)
    return partial(moment_tcc, moments(X, Y))


def pcc_of(tcc_est, tcc_oracle):
    """PCC from the two TCCs; raises when the oracle captures no correlation."""
    if tcc_oracle < 1e-12:
        raise ValueError("oracle captures no correlation; PCC undefined")
    return tcc_est / tcc_oracle


def pcc(X, Y, est, oracle):
    """Proportion of correlations captured: TCC(est) / TCC(oracle).

    ``est`` and ``oracle`` are (A, B) direction pairs evaluated on the same
    split; both numerator and denominator are recomputed on whatever rows X, Y
    carry, so holdout evaluation just passes the held-out rows.
    """
    return pcc_of(tcc(X, Y, *est), tcc(X, Y, *oracle))


def principal_angles(A, B, S=None):
    """Cosines of principal angles between span(A) and span(B) under the S
    inner product (identity if S is None), nonincreasing in [0, 1]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1] != B.shape[1]:
        raise ValueError("A and B must have the same number of columns")
    if S is None:
        S = np.eye(A.shape[0])
    Ga = A.T @ S @ A
    Gb = B.T @ S @ B
    for G, name in ((Ga, "A"), (Gb, "B")):
        w = eigh(0.5 * (G + G.T), eigvals_only=True)
        if w[0] < 1e-12 * max(w[-1], 1.0):
            raise ValueError(f"columns of {name} are rank-deficient under S")
    Qa = A @ sym_inv_sqrt(Ga, floor=1e-300)
    Qb = B @ sym_inv_sqrt(Gb, floor=1e-300)
    s = svd(Qa.T @ S @ Qb, compute_uv=False)
    return np.minimum(s, 1.0)


@dataclass
class IterationRecord:
    """One row of a run trace. Missing optional metrics serialize as 'nan'."""

    t: int
    flops: int
    wall_time: float = 0.0
    tcc_train: float = float("nan")
    tcc_holdout: float = float("nan")
    pcc_train: float = float("nan")
    pcc_holdout: float = float("nan")
    err: float = float("nan")


# Serialized field order for trace records (wall time is deliberately omitted
# so identical config + seed reproduce byte-identical report files).
RECORD_FIELDS = ("t", "flops", "tcc_train", "tcc_holdout", "pcc_train", "pcc_holdout", "err")


@dataclass
class RunReport:
    """Per-iteration trace plus the resolved configuration of the run."""

    solver: str
    seed: int
    config: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    final_state: object = None

    def validate(self):
        ts = [r.t for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("iteration indices must be strictly increasing")
        fl = [r.flops for r in self.records]
        if any(b < a for a, b in zip(fl, fl[1:])):
            raise ValueError("FLOP counts must be nondecreasing")

    def to_lines(self):
        """Line-delimited text: '#'-prefixed header (solver, seed, config,
        field order), then one space-separated record per line."""
        lines = [f"# solver={self.solver}", f"# seed={self.seed}"]
        for key in sorted(self.config):
            lines.append(f"# config {key}={self.config[key]!r}")
        lines.append("# fields: " + " ".join(RECORD_FIELDS))
        for r in self.records:
            vals = []
            for name in RECORD_FIELDS:
                v = getattr(r, name)
                vals.append(str(v) if name in ("t", "flops") else f"{v:.17g}")
            lines.append(" ".join(vals))
        return lines

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    def write_pcc_curve(self, path):
        """Plot-ready two-column (FLOP, PCC) file, skipping records without PCC."""
        with open(path, "w") as fh:
            for r in self.records:
                if np.isfinite(r.pcc_train):
                    fh.write(f"{r.flops} {r.pcc_train:.17g}\n")

    @classmethod
    def read(cls, path):
        solver, seed, config, records = "", 0, {}, []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("solver="):
                        solver = body[len("solver="):]
                    elif body.startswith("seed="):
                        seed = int(body[len("seed="):])
                    elif body.startswith("config "):
                        key, _, val = body[len("config "):].partition("=")
                        config[key] = val
                    continue
                parts = line.split()
                rec = IterationRecord(t=int(parts[0]), flops=int(parts[1]))
                for name, raw in zip(RECORD_FIELDS[2:], parts[2:]):
                    setattr(rec, name, float(raw))
                records.append(rec)
        return cls(solver=solver, seed=seed, config=config, records=records)
