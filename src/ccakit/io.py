"""Dataset and model file I/O.

Formats: dense CSV (comma-separated numerics, optional header row, rows are
samples), Matrix Market coordinate for sparse data, models as dense numeric
text with a one-line "rows cols" header.

Text rows are read and written on every usable CPU (``os.sched_getaffinity``), one range per CPU
and none below ``SPLIT_MIN_BYTES``: the caller handles range 0 and an ``os.fork``ed worker each
other range, sending its result through a pipe. ``_load_rows`` cuts a file at line starts and,
when every range parses and all are as wide, grows the caller's array in place to take the
workers' rows. A load error has one definition, the parse of the file as one range from byte 0:
when a range does not parse, the workers are stopped and that parse runs to raise its error, so an
error in a split file costs one extra parse. ``_save_rows`` cuts the rows; each worker formats its
range into its own memory, and the caller, after writing range 0, copies their bytes through one
``COPY_BYTES`` buffer. Values, errors and bytes written do not depend on the cut. Without
``os.fork`` a file is one range. A worker's memory is not part of the caller's RSS.
"""

import itertools
import os
import signal
from contextlib import contextmanager
from functools import partial
from io import BufferedReader, FileIO, TextIOWrapper

import numpy as np
import scipy.io
import scipy.sparse as sp

from .linalg import DataMatrix, as_matrix

# A range below this saves less than its worker costs. On a 2-vCPU host, prefixes of a
# 20000 x 100 save_csv file loaded faster in two ranges from about 1 MiB and saved faster
# from about 0.5 MiB; the bound keeps a margin over both.
SPLIT_MIN_BYTES = 2 << 20
COPY_BYTES = 64 << 10  # a Linux pipe holds 64 KiB, so one read returns no more


def _numeric(fields):
    try:
        for f in fields:
            float(f)
    except ValueError:
        return False
    return True


def _data_lines(fh, linenos, delimiter, header):
    """Yield the data lines of an open file, appending their line numbers, counted from 1, to
    ``linenos``; blank lines are skipped, and so is line 1 when it is a header: always if
    ``header`` is True, when non-numeric if False. None: line 1 is not the file's first line."""
    for lineno, line in enumerate(fh, start=1):
        if line.isspace() or (lineno == 1 and header is not None
                              and (header or not _numeric(line.split(delimiter)))):
            continue
        linenos.append(lineno)
        yield line


class _ByteRange(FileIO):
    """Bytes [begin, end) of a file to a BufferedReader, whose read1 and readline read through
    ``readinto``; ``readall`` is not bounded."""

    def __init__(self, path, begin, end):
        super().__init__(path)
        self.seek(begin)
        self._left = end - begin

    def readinto(self, buf):
        n = super().readinto(memoryview(buf)[: self._left])
        self._left -= n
        return n


def _text(path, begin, end):
    """Bytes [begin, end) of ``path``, decoded and split into lines as ``open(path)`` does."""
    return TextIOWrapper(BufferedReader(_ByteRange(path, begin, end)))


def _usable_cpus():
    """CPUs this process may run on; 1 where workers cannot be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def _forked(cuts, task):
    """The pipes of one forked worker per range [begin, end) of ``cuts`` after the first, in
    order. A worker runs ``task(begin, end, out)``, ``out`` its pipe's write end as a binary file,
    and exits. A failure in the block kills the workers still running; every worker is reaped
    when the block ends."""
    workers = []
    try:
        for begin, end in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's stack
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        task(begin, end, out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            workers.append((pid, open(r, "rb", buffering=0)))
        yield [pipe for _, pipe in workers]
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)


def _read_into(path, pipe, A, job):
    """Fill the contiguous array ``A`` from the pipe of a ``job`` worker."""
    view, got = A.reshape(-1).view(np.uint8), 0
    while got < view.size:
        n = pipe.readinto(view[got:])
        if not n:
            raise ChildProcessError(f"{path}: a {job} worker exited without sending its rows")
        got += n


def _cuts(path, size, ranges):
    """Offsets [0, cuts..., size] of at most ``ranges`` byte ranges: each cut is the first
    line start after an even share of the bytes."""
    cuts = [0]
    with open(path, "rb") as fh:
        for i in range(1, ranges):
            fh.seek(size * i // ranges - 1)
            fh.readline()  # a "\n" ends a line under universal newlines, "\r\n" included
            if cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return cuts + [size]


def _parse(path, begin, end, delimiter, header):
    """The rows of bytes [begin, end), an empty array if none; ``header`` as in ``_data_lines``.
    Or the one-range parse's error for them, lines counted from the range's first: the first row
    that does not parse, else the first row holding a non-finite field."""
    linenos = []
    with _text(path, begin, end) as fh:
        lines = _data_lines(fh, linenos, delimiter, header)
        first = next(lines, None)
        if first is None:
            return np.empty((0, 0))
        try:
            A = np.loadtxt(itertools.chain([first], lines), delimiter=delimiter,
                           dtype=float, ndmin=2, comments=None)
        except ValueError as exc:
            # loadtxt reads one line at a time, so the last line handed to it is the one it
            # failed on; the message counts rows from the range's first
            lineno, width = linenos[-1], len(first.split(delimiter))
            with _text(path, begin, end) as again:
                fields = next(itertools.islice(again, lineno - 1, None)).split(delimiter)
            if not _numeric(fields):
                raise ValueError(f"{path}:{lineno}: non-numeric field in row") from None
            if len(fields) != width:
                raise ValueError(f"{path}:{lineno}: row has {len(fields)} fields, "
                                 f"expected {width}") from None
            raise ValueError(f"{path}: {exc}") from None
    finite = np.isfinite(A).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{linenos[np.argmin(finite)]}: non-finite field in row")
    return A


class _NotClean(Exception):
    """A range of a split file holds an error, or its rows are not as wide as the others'."""


def _send_rows(path, delimiter, begin, end, out):
    """A parse worker: send the rows of bytes [begin, end), a range after the first, to ``out``
    as int64 (nrows, width) and the rows; (-1, -1) alone if ``_parse`` rejects the range."""
    try:
        A = _parse(path, begin, end, delimiter, None)
    except ValueError:
        out.write(np.array((-1, -1), np.int64))
        return
    out.write(np.array(A.shape, np.int64))
    out.write(A)


def _joined(path, cuts, delimiter, header):
    """The rows of the ranges that begin at ``cuts``, grown into range 0's array; _NotClean if
    the file is split and a range is rejected or the ranges' widths differ."""
    with _forked(cuts, partial(_send_rows, path, delimiter)) as pipes:
        try:
            A = _parse(path, 0, cuts[1], delimiter, header)
        except ValueError:
            if not pipes:  # range 0 is the whole file
                raise
            raise _NotClean from None
        heads = np.empty((len(pipes), 2), np.int64)
        for pipe, head in zip(pipes, heads):
            _read_into(path, pipe, head, "parse")
        widths = {w for n, w in [A.shape, *heads.tolist()] if n}
        if len(widths) > 1 or (heads < 0).any():
            raise _NotClean
        row = A.shape[0]
        # a realloc: the caller never holds two copies
        A.resize((row + int(heads[:, 0].sum()), max(widths, default=0)), refcheck=False)
        for pipe, (n, _) in zip(pipes, heads.tolist()):
            _read_into(path, pipe, A[row : row + n], "parse")
            row += n
    return A


def _load_rows(path, delimiter=",", header=False):
    """The rows of a text file, split over ``_usable_cpus()`` as the module docstring says.
    Fields are split at ``delimiter`` (None: whitespace) and may carry spaces or tabs; ``#`` is
    not a comment; physical line 1 is a header by ``_data_lines``'s rule. Errors, NaN and inf
    fields included, are those of the file parsed as one range and name the line; a worker that
    dies without a result raises ChildProcessError."""
    size = os.path.getsize(path)
    cuts = _cuts(path, size, min(_usable_cpus(), max(1, size // SPLIT_MIN_BYTES)))
    try:
        A = _joined(path, cuts, delimiter, header)
    except _NotClean:
        _parse(path, 0, size, delimiter, header)  # raises the file's error
        raise RuntimeError(f"{path}: a range of the split file was rejected, "
                           "but the whole file parses") from None
    if not A.size:
        raise ValueError(f"{path}: no data rows")
    return A


def _formatted(A, begin, end, row, block):
    """Rows [begin, end) of ``A`` (dense or CSR) as ``np.savetxt`` writes them, bytes of
    ``block`` rows at a time; ``row`` is the format of one row."""
    for i in range(begin, end, block):
        B = A[i : min(i + block, end)]
        B = B.toarray() if sp.issparse(B) else B
        yield (row * B.shape[0]) % tuple(B.ravel().tolist())


def _save_rows(path, A, delimiter, header=False):
    """Write ``A`` as ``np.savetxt(fmt="%.17g")`` does, after a "rows cols" line if ``header``,
    split over ``_usable_cpus()`` as the module docstring says; a worker that dies before it has
    sent its bytes raises ChildProcessError."""
    A = as_matrix(A)
    A = A.tocsr() if sp.issparse(A) else A
    n, p = A.shape
    row = delimiter.join(["%.17g"] * p).encode() + b"\n"
    width = len(next(_formatted(A, 0, min(n, 1), row, 1), b""))  # bytes of the first row
    ranges = min(_usable_cpus(), max(1, width * n // SPLIT_MIN_BYTES))
    cuts = [n * i // ranges for i in range(ranges + 1)]
    block = max(1, COPY_BYTES // max(width, 1))

    def send(begin, end, out):  # a worker formats its rows, then sends their byte count and bytes
        chunks = list(_formatted(A, begin, end, row, block))
        out.writelines([np.int64(sum(map(len, chunks))).tobytes(), *chunks])

    with _forked(cuts, send) as pipes, open(path, "wb") as fh:
        if header:
            fh.write(f"{n} {p}\n".encode())
        fh.writelines(_formatted(A, 0, cuts[1], row, block))
        buf, count = np.empty(COPY_BYTES, np.uint8), np.empty(1, np.int64)
        for pipe in pipes:
            _read_into(path, pipe, count, "write")
            for i in range(0, int(count[0]), COPY_BYTES):
                chunk = buf[: count[0] - i]
                _read_into(path, pipe, chunk, "write")
                fh.write(chunk)


def load_csv(path):
    """Dense CSV loader by the rules of ``_load_rows``; a non-numeric row 1 is a header."""
    return DataMatrix(_load_rows(path))


def save_csv(path, X):
    _save_rows(path, X, ",")


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
    """Dense numeric text with a one-line header 'rows cols', written by ``_save_rows``."""
    _save_rows(path, A, " ", header=True)


def load_model_matrix(path):
    """Read a ``save_model_matrix`` file by the rules of ``_load_rows``."""
    with open(path) as fh:
        line = fh.readline()
    try:
        rows, cols = map(int, line.split())
    except ValueError as exc:
        raise ValueError(f'{path}:1: header must be "rows cols"') from exc
    A = _load_rows(path, delimiter=None, header=True)
    if A.shape != (rows, cols):
        raise ValueError(f"{path}: header says {(rows, cols)}, data is {A.shape}")
    return A
