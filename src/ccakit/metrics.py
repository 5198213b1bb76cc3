"""Correlation-capture metrics and run traces.

TCC is the sum of canonical correlations between the two projected views;
PCC is its ratio to the oracle's TCC on the same evaluation split. Traces
serialize to line-delimited text (see RunReport.to_lines for the field order).

FLOP model used throughout the reports (documented so curves are comparable):
a product of an m-row view with a p-by-k matrix costs 2*m*p*k (2*nnz*k if the
view is sparse). One iteration over an m-row (mini)batch, dense or sparse, costs in such
products per view:
    2   cached (the last step was on these rows): the gradient, the new iterate's X phi_tilde
    3   uncached: X phi_tilde first; X phi is (X phi_tilde) R from the carried whitener R
    4   uncached from a hand-built state, which carries no whitener
  + 8*m*k^2 + 24*k^3       k-by-k Grams, re-projections, eigendecompositions
  + 2*(p1+p2)*k^2          applying the k-by-k whitener
A run on a moment pair pays 2*n*(p1^2 + p1*p2 + p2^2) for the moments and 4*(p1+p2)^3 (syevd)
for the pair built from them, once (also when its ``Views`` already held them), then m = p1+p2.
What a step costs is charged by the state that takes it, ``appgrad.AppGradState.step_price``,
the one caller of ``step_flops``. An attempt that fails as degenerate and gets a replacement
from its row source (a minibatch) is charged that price on its own rows, besides the step that
replaces it; an attempt at the end of a stream is not charged.

Evaluation: a rank-k TCC on m rows costs 2*m*(p1+p2)*k. ``Views`` holds the one route rule: a
narrow pair (dense views, 4*(p1+p2) <= n) is solved on its moment pair, p1+p2 rows built from
``moments`` at the charge above, and evaluated there unless a view Gram is singular; every other
pair is solved and evaluated on its n rows. ``Views`` also holds each view Gram's spectrum, one
eigensolve, and from it the one verdict that a Gram is singular (``Views.singular``), which the
evaluator, the spectral solver and the oracle read.
"""

from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, svd

from .linalg import as_matrix, cross_covariance, gram, singular_floor, sym_inv_sqrt

RIDGE_SCALE = 1e-10  # of each k-by-k Gram in ``projected_correlations``, relative to its trace
POWER_ITERS = 50  # of ``appgrad.estimate_gram_norm``


def step_flops(m, p1, p2, k, nnz1=None, nnz2=None, cached=False, whitened=True):
    """FLOPs of one solver iteration over an m-row batch (see module docstring); ``cached``:
    the state carries what its last step left on these rows; ``whitened``: it carries whiteners."""
    c1 = 2 * nnz1 * k if nnz1 is not None else 2 * m * p1 * k
    c2 = 2 * nnz2 * k if nnz2 is not None else 2 * m * p2 * k
    per_view = 2 if cached else 3 if whitened else 4
    return per_view * (c1 + c2) + 8 * m * k * k + 24 * k**3 + 2 * (p1 + p2) * k * k


def moment_pair_flops(n, p1, p2):
    """FLOPs of ``appgrad.moment_pair`` on n rows (see module docstring)."""
    return 2 * n * (p1 * p1 + p1 * p2 + p2 * p2) + 4 * (p1 + p2)**3


def projected_correlations(U, V):
    """Canonical correlations of two n-by-k matrices, nonincreasing: the singular values of
    Ru (U'V/n) Rv, clipped at 1 + 1e-9, with Ru, Rv the inverse roots of the two k-by-k Grams
    ridged by RIDGE_SCALE times their mean eigenvalue, from one stacked ``sym_inv_sqrt`` call.
    An exactly whitened pair (U'U/n = V'V/n = I) thus gives those of U'V/n / (1 + RIDGE_SCALE),
    which ``appgrad.AppGradState.tcc`` takes without an inverse root."""
    U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    if U.shape[0] != V.shape[0]:
        raise ValueError("projected views must have the same number of rows")
    if U.shape[1] != V.shape[1]:
        raise ValueError("projected views must have the same number of columns")
    n, k = U.shape
    grams = U.T @ U / n, V.T @ V / n
    ridges = np.array([RIDGE_SCALE * max(np.trace(S) / max(k, 1), 1e-300) for S in grams])
    Ru, Rv = sym_inv_sqrt(np.array([S + r * np.eye(k) for S, r in zip(grams, ridges)]),
                          floor=ridges * 1e-6)
    s = svd(Ru @ (U.T @ V / n) @ Rv, compute_uv=False)
    return np.minimum(s, 1.0 + 1e-9)


def tcc(X, Y, A, B, k=None):
    """Total correlations captured by the direction matrices A (p1 x k'), B (p2 x k'): the sum
    of the top k (default: all) canonical correlations of (XA, YB). Invariant to invertible
    right-multiplication of A or B."""
    X, Y = as_matrix(X), as_matrix(Y)
    U = np.asarray(X @ np.asarray(A, dtype=float))
    V = np.asarray(Y @ np.asarray(B, dtype=float))
    return float(projected_correlations(U, V)[:k].sum())


def moments(X, Y):
    """The second moments (X'X/n, Y'Y/n, X'Y/n) of a pair of views."""
    return Views(X, Y).moments


def _joint_pair(M):
    """[X^ Y^] = diag(sqrt(max(w, 0) (p1+p2))) V' from V diag(w) V', the joint moment in M."""
    Sx, Sy, Sxy = M
    p1, m = Sx.shape[0], Sx.shape[0] + Sy.shape[0]
    S = np.zeros((m, m), order="F")  # the lower triangle of the joint moment
    S[:p1, :p1], S[p1:, :p1], S[p1:, p1:] = Sx, Sxy.T, Sy
    w, V = eigh(S, overwrite_a=True, driver="evd")  # V overwrites S, beside 2 m^2 + O(m) workspace
    V *= np.sqrt(np.maximum(w, 0.0) * m)
    return V[:p1].T, V[p1:].T


def moment_tcc(M, A, B):
    """``tcc`` of the views whose moments are M = moments(X, Y), on their moment pair."""
    return tcc(*_joint_pair(M), A, B)


class Views:
    """A view pair (X, Y) and what runs derive from it, each built once, on first use: the view
    Grams, the cross moment, the moment pair, the Gram eigenvalues, the TCC evaluator and the
    (train, held-out) splits (see the module doc). Every moment reader takes one."""

    def __init__(self, X, Y):
        self.X, self.Y = as_matrix(X), as_matrix(Y)
        (n, p1), p2 = self.X.shape, self.Y.shape[1]
        self.narrow = not (sp.issparse(self.X) or sp.issparse(self.Y)) and 4 * (p1 + p2) <= n
        self._grams, self._eigvals, self._splits = [None, None], [None, None], {}

    @classmethod
    def of(cls, X, Y):  # the Views X itself (Y then None), else the Views of (X, Y)
        return X if isinstance(X, cls) else cls(X, Y)

    def view_gram(self, i):  # X'X/n (i = 0) or Y'Y/n (i = 1)
        if self._grams[i] is None:
            self._grams[i] = gram((self.X, self.Y)[i])
        return self._grams[i]

    @property
    def moments(self):  # (X'X/n, Y'Y/n, X'Y/n)
        return self.view_gram(0), self.view_gram(1), self.cross

    @cached_property
    def cross(self):  # X'Y/n
        return cross_covariance(self.X, self.Y)

    @cached_property
    def pair(self):
        return _joint_pair(self.moments)

    def view_eigvals(self, i):  # ascending, of view_gram(i): its one eigensolve
        if self._eigvals[i] is None:
            self._eigvals[i] = eigh(self.view_gram(i), eigvals_only=True)
        return self._eigvals[i]

    @property
    def gram_eigvals(self):  # ascending, of X'X/n and Y'Y/n
        return self.view_eigvals(0), self.view_eigvals(1)

    @property
    def singular(self):  # per view, w[0] < singular_floor(w): the one verdict of a singular Gram
        return tuple(bool(w[0] < singular_floor(w)) for w in self.gram_eigvals)

    @cached_property
    def gram_norm(self):
        """Per view, the exact top eigenvalue of its Gram on a narrow pair and on a dense view of at
        most 4 * POWER_ITERS columns, whose Gram costs no more than a power estimate; else None."""
        return tuple(None if not self.narrow and (sp.issparse(A) or A.shape[1] > 4 * POWER_ITERS)
                     else float(self.view_eigvals(i)[-1]) for i, A in enumerate((self.X, self.Y)))

    @cached_property
    def evaluate(self):
        """(A, B[, k]) -> ``tcc``: on the pair if narrow with nonsingular Grams, else the rows."""
        if self.narrow and not any(self.singular):
            return partial(tcc, *self.pair)
        return partial(tcc, self.X, self.Y)

    def split(self, fraction, seed):
        """The (train, held-out) ``Views`` of ``split_holdout``, made once per (fraction, seed)."""
        if (fraction, seed) not in self._splits:
            halves = split_holdout(self.X, self.Y, fraction, seed)
            self._splits[fraction, seed] = tuple(Views(*half) for half in halves)
        return self._splits[fraction, seed]


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


def split_holdout(X, Y, fraction, seed):
    """((X_train, Y_train), (X_hold, Y_hold)): round(fraction * n) rows drawn by a seeded
    permutation are held out; a fraction that leaves no held-out row raises ValueError."""
    n = X.shape[0]
    n_hold = int(round(fraction * n))
    if n_hold == 0:
        raise ValueError(f"holdout fraction {fraction} of n={n} rows leaves 0 held-out rows")
    perm = np.random.default_rng(seed).permutation(n)
    hold, train = perm[:n_hold], perm[n_hold:]
    return (X[train], Y[train]), (X[hold], Y[hold])


def principal_angles(A, B, S=None):
    """Cosines of principal angles between span(A) and span(B) under the S
    inner product (the plain one if S is None), nonincreasing in [0, 1]: the singular values of
    Ra (A' S B) Rb, Ra and Rb the inverse roots of the bases' k-by-k Grams, so that without an S
    nothing larger than A or B is formed."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1] != B.shape[1]:
        raise ValueError("A and B must have the same number of columns")
    SA, SB = (A, B) if S is None else (S @ A, S @ B)
    Ga, Gb = A.T @ SA, B.T @ SB
    for G, name in ((Ga, "A"), (Gb, "B")):
        w = eigh(0.5 * (G + G.T), eigvals_only=True)
        if w[0] < singular_floor(w):
            raise ValueError(f"columns of {name} are rank-deficient under S")
    Ra, Rb = sym_inv_sqrt(np.array([Ga, Gb]), floor=1e-300)
    s = svd(Ra @ (A.T @ SB) @ Rb, compute_uv=False)
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


# Serialized field order for trace records (wall time is deliberately omitted
# so identical config + seed reproduce byte-identical report files).
RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord) if f.name != "wall_time")
_RECORD_TYPES = {f.name: f.type for f in fields(IterationRecord)}


@dataclass
class RunReport:
    """Per-iteration trace plus the resolved configuration of a run; ``record`` builds each row."""

    solver: str
    seed: int
    config: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    final_state: object = None

    def record(self, t, flops, tcc_train, oracle_tcc, **fields):
        """Append row t with PCC ``pcc_of(tcc_train, oracle_tcc)``, NaN for oracle_tcc None."""
        pcc_train = float("nan") if oracle_tcc is None else pcc_of(tcc_train, oracle_tcc)
        self.records.append(IterationRecord(t=t, flops=flops, tcc_train=tcc_train,
                                            pcc_train=pcc_train, **fields))

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
            value = self.config[key]  # a numpy scalar is written as its Python scalar
            value = value.item() if isinstance(value, np.generic) else value
            lines.append(f"# config {key}={value!r}")
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
        """Columns are mapped by the ``# fields:`` line (``RECORD_FIELDS`` order if none);
        names that are not IterationRecord fields, as an older report's ``err``, are dropped."""
        solver, seed, config, records, names = "", 0, {}, [], RECORD_FIELDS
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
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
                    elif body.startswith("fields:"):
                        names = body[len("fields:"):].split()
                        if not {"t", "flops"} <= set(names):
                            raise ValueError(f"{path}:{lineno}: fields lack t or flops")
                    continue
                parts = line.split()
                if len(parts) != len(names):
                    raise ValueError(f"{path}:{lineno}: {len(parts)} fields, "
                                     f"expected {len(names)}")
                records.append(IterationRecord(**{name: _RECORD_TYPES[name](raw) for name, raw
                                                  in zip(names, parts) if name in _RECORD_TYPES}))
        return cls(solver=solver, seed=seed, config=config, records=records)
