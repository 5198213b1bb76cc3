"""Dataset and model file I/O.

Formats: dense CSV (comma-separated numerics, optional header row, rows are
samples), Matrix Market coordinate for sparse data, models as dense numeric
text with a one-line "rows cols" header.

Text rows are read and written on every usable CPU (``os.sched_getaffinity``), one range per CPU
and none below ``SPLIT_MIN_BYTES``: the caller handles range 0 and an ``os.fork``ed worker each
other range, sending its result through a pipe. ``_load_rows`` cuts a file at line starts and
grows the caller's array in place to take the workers' rows. ``_save_rows`` cuts the rows; each
worker formats its range into its own memory, and the caller, after writing range 0, copies their
bytes through one ``COPY_BYTES`` buffer. Values, errors and bytes written do not depend on the
cut. Without ``os.fork`` a file is one range. A worker's memory is not part of the caller's RSS.
"""

import itertools
import os
import re
import signal
from contextlib import contextmanager
from dataclasses import dataclass
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


@dataclass
class _Part:
    """What the parse of one byte range found. Lines count from the range's first; 0 means none."""

    first: int = 0       # line of the range's first data row
    width: int = 0       # its field count
    nrows: int = 0
    nonfinite: int = 0   # line of the first row holding a non-finite field
    failed: int = 0      # line on which np.loadtxt failed
    failed_row: int = 0  # the range's data-row index there, which loadtxt's message counts
    message: str = ""    # loadtxt's message
    rows: np.ndarray = None


def _parse(path, begin, end, delimiter, header):
    """The _Part of bytes [begin, end); ``header`` as in ``_data_lines``."""
    part, linenos = _Part(), []
    with _text(path, begin, end) as fh:
        lines = _data_lines(fh, linenos, delimiter, header)
        first = next(lines, None)
        if first is None:
            return part
        part.first, part.width = linenos[0], len(first.split(delimiter))
        try:
            A = np.loadtxt(itertools.chain([first], lines), delimiter=delimiter,
                           dtype=float, ndmin=2, comments=None)
        except ValueError as exc:
            # loadtxt reads one line at a time, so the last line handed to it
            # is the one it failed on.
            part.failed, part.failed_row, part.message = linenos[-1], len(linenos) - 1, str(exc)
            return part
    finite = np.isfinite(A).all(axis=1)
    if not finite.all():
        part.nonfinite = linenos[np.argmin(finite)]
    part.rows, part.nrows = A, A.shape[0]
    return part


def _row_error(path, lineno, width, delimiter, message):
    """The error for a parse failure at physical line ``lineno`` of a file ``width`` fields wide."""
    with open(path) as fh:
        fields = next(itertools.islice(fh, lineno - 1, None)).split(delimiter)
    if not _numeric(fields):
        return ValueError(f"{path}:{lineno}: non-numeric field in row")
    if len(fields) != width:
        return ValueError(f"{path}:{lineno}: row has {len(fields)} fields, expected {width}")
    return ValueError(f"{path}: {message}")


def _send_part(path, delimiter, begin, end, out):
    """A parse worker: send the _Part of bytes [begin, end), a range after the first, to ``out``
    as six int64 header fields and the message length, the message, then the rows."""
    part = _parse(path, begin, end, delimiter, None)
    message = part.message.encode()
    out.write(np.array([part.first, part.width, part.nrows, part.nonfinite,
                        part.failed, part.failed_row, len(message)], np.int64))
    out.write(message)
    if part.rows is not None:
        out.write(part.rows)


def _receive(path, pipe):
    """The _Part a worker sends, its rows still in the pipe."""
    head = np.empty(7, np.int64)
    _read_into(path, pipe, head, "parse")
    message = np.empty(head[6], np.uint8)
    _read_into(path, pipe, message, "parse")
    return _Part(*map(int, head[:6]), message.tobytes().decode())


def _joined(path, cuts, parts, pipes, delimiter):
    """The rows of ``parts``, an iterator over the ranges that begin at ``cuts`` in file order,
    grown into range 0's array; or the serial parse's error: the earliest parse failure, else
    the earliest non-finite row. A part is taken only when no earlier range failed to parse."""
    def physical(begin, lineno):  # the line's number in the file, counted only to report it
        with _text(path, 0, begin) as fh:
            return lineno + sum(1 for _ in fh)

    seen, width, nrows = [], 0, 0
    for begin, p in zip(cuts, parts):
        seen.append(p)
        if not p.first:
            continue
        width = width or p.width
        if p.width != width or p.failed:
            # a range's loadtxt counts rows from its own start
            message = re.sub(r"at row \d+", f"at row {nrows + p.failed_row}", p.message, count=1)
            lineno = physical(begin, p.first if p.width != width else p.failed)
            raise _row_error(path, lineno, width, delimiter, message)
        nrows += p.nrows
    if not width:
        raise ValueError(f"{path}: no data rows")
    for begin, p in zip(cuts, seen):
        if p.nonfinite:
            raise ValueError(f"{path}:{physical(begin, p.nonfinite)}: non-finite field in row")
    A = seen[0].rows if seen[0].first else np.empty((0, width))
    row = A.shape[0]
    A.resize((nrows, width), refcheck=False)  # a realloc: the caller never holds two copies
    for p, pipe in zip(seen[1:], pipes):
        _read_into(path, pipe, A[row : row + p.nrows], "parse")
        row += p.nrows
    return A


def _load_rows(path, delimiter=",", header=False):
    """The rows of a text file, split over ``_usable_cpus()`` as the module docstring says.
    Fields are split at ``delimiter`` (None: whitespace) and may carry spaces or tabs; ``#`` is
    not a comment; physical line 1 is a header by ``_data_lines``'s rule. Errors, NaN and inf
    fields included, name the line; a worker that dies without a result raises ChildProcessError."""
    size = os.path.getsize(path)
    cuts = _cuts(path, size, min(_usable_cpus(), max(1, size // SPLIT_MIN_BYTES)))
    with _forked(cuts, partial(_send_part, path, delimiter)) as pipes:
        parts = itertools.chain([_parse(path, 0, cuts[1], delimiter, header)],
                                (_receive(path, pipe) for pipe in pipes))
        return _joined(path, cuts, parts, pipes, delimiter)


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
