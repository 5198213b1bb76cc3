"""Dataset and model file I/O.

Formats: dense CSV (comma-separated numerics, optional header row, rows are
samples), Matrix Market coordinate for sparse data, models as dense numeric
text with a one-line "rows cols" header.
"""

import itertools

import numpy as np
import scipy.io
import scipy.sparse as sp

from .linalg import DataMatrix


def _numeric(fields):
    try:
        for f in fields:
            float(f)
    except ValueError:
        return False
    return True


def _data_lines(fh, linenos):
    """Yield the data lines of an open CSV, appending each one's physical line
    number to ``linenos``. Blank and whitespace-only lines are skipped, and so
    is a non-numeric line 1, the header."""
    for lineno, line in enumerate(fh, start=1):
        if line.isspace() or (lineno == 1 and not _numeric(line.split(","))):
            continue
        linenos.append(lineno)
        yield line


def load_csv(path):
    """Dense CSV loader with line-numbered parse errors; a non-numeric first
    row is treated as a header and skipped.

    Fields are separated by commas and may carry spaces or tabs around them;
    ``#`` is not a comment. NaN and infinite fields are rejected."""
    linenos = []
    with open(path) as fh:
        lines = _data_lines(fh, linenos)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            A = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                           dtype=float, ndmin=2, comments=None)
        except ValueError as exc:
            # loadtxt reads one line at a time, so the last line handed to it
            # is the one it failed on.
            lineno = linenos[-1]
            fh.seek(0)
            fields = next(itertools.islice(fh, lineno - 1, None)).split(",")
            width = len(first.split(","))
            if not _numeric(fields):
                raise ValueError(f"{path}:{lineno}: non-numeric field in row") from exc
            if len(fields) != width:
                raise ValueError(
                    f"{path}:{lineno}: row has {len(fields)} fields, expected {width}"
                ) from exc
            raise ValueError(f"{path}: {exc}") from exc
    finite = np.isfinite(A).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{linenos[np.argmin(finite)]}: non-finite field in row")
    return DataMatrix(A)


def save_csv(path, X):
    A = X.toarray() if hasattr(X, "toarray") else np.asarray(X, dtype=float)
    with open(path, "w") as fh:
        np.savetxt(fh, A, fmt="%.17g", delimiter=",")


def load_matrix_market(path):
    M = scipy.io.mmread(path)
    if sp.issparse(M):
        return DataMatrix(M.tocsr())
    return DataMatrix(np.asarray(M, dtype=float))


def save_matrix_market(path, X):
    values = X.values if isinstance(X, DataMatrix) else X
    scipy.io.mmwrite(path, sp.coo_matrix(values))
    # scipy may or may not append .mtx depending on the suffix; callers pass .mtx


def load_dataset(path, fmt="csv"):
    """Load one view; ``fmt`` is 'csv' or 'matrix-market'."""
    if fmt == "csv":
        return load_csv(path)
    if fmt == "matrix-market":
        return load_matrix_market(path)
    raise ValueError(f"unknown format {fmt!r}")


def save_model_matrix(path, A):
    """Dense numeric text with a one-line header 'rows cols'."""
    A = np.asarray(A, dtype=float)
    with open(path, "w") as fh:
        np.savetxt(fh, A, fmt="%.17g", delimiter=" ",
                   header=f"{A.shape[0]} {A.shape[1]}", comments="")


def load_model_matrix(path):
    with open(path) as fh:
        header = fh.readline().split()
        rows, cols = int(header[0]), int(header[1])
        A = np.loadtxt(fh, ndmin=2)
    if A.shape != (rows, cols):
        raise ValueError(f"{path}: header says {(rows, cols)}, data is {A.shape}")
    return A
