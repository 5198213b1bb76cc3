"""CSV and model-file I/O: the accepted dialect, line-numbered errors,
bit-exact round trips, byte-exact writes, the loader's peak memory, and
the same results from a file cut into ranges parsed by forked workers."""

import os
import signal
import tempfile
import time
import warnings
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ccakit import io
from ccakit.linalg import DataMatrix, as_matrix
from conftest import peak_bytes


def load(path):
    """load_csv with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return io.load_csv(path).values


def write(tmp_path, text, name="x.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestAcceptedDialect:
    def test_header_only_on_physical_line_one(self, tmp_path):
        path = write(tmp_path, "\ncol_a,col_b\n1,2\n")
        with pytest.raises(ValueError, match=r"x\.csv:2: non-numeric field in row"):
            load(path)

    def test_blank_and_whitespace_lines_skipped_anywhere(self, tmp_path):
        path = write(tmp_path, "a,b\n\n1,2\n   \n\t\n3,4\n \t \n\n")
        assert np.array_equal(load(path), [[1.0, 2.0], [3.0, 4.0]])
        path = write(tmp_path, "  \n1,2\n\n3,4", name="lead.csv")
        assert np.array_equal(load(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n\r\n3,4\r\n")
        assert np.array_equal(load(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_spaces_and_tabs_around_fields(self, tmp_path):
        path = write(tmp_path, " 1 ,\t2\t\n\t3 , 4  \n")
        assert np.array_equal(load(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_one_row_and_one_column_stay_two_dimensional(self, tmp_path):
        row = load(write(tmp_path, "1,2,3\n", name="row.csv"))
        assert row.shape == (1, 3)
        col = load(write(tmp_path, "h\n1\n2\n3\n", name="col.csv"))
        assert col.shape == (3, 1)
        assert np.array_equal(col[:, 0], [1.0, 2.0, 3.0])

    def test_numeric_spellings(self, tmp_path):
        path = write(tmp_path, "+1,.5,-2.\n1e5,1E-3,-.5e+2\n")
        assert np.array_equal(load(path), [[1.0, 0.5, -2.0], [1e5, 1e-3, -50.0]])

    def test_hash_is_not_a_comment(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4#5\n")
        with pytest.raises(ValueError, match=r"x\.csv:2: non-numeric field in row"):
            load(path)

    @pytest.mark.parametrize("text, lineno", [
        ("1,2\n3,4,\n", 2),
        ("a,b\n1,2,\n3,4\n", 2),
        ("1,2\n3,4\n5,6,\n", 3),
    ])
    def test_trailing_comma_after_line_one_is_an_error(self, tmp_path, text, lineno):
        with pytest.raises(ValueError, match=rf"x\.csv:{lineno}: "):
            load(write(tmp_path, text))

    @pytest.mark.parametrize("text", ["", "\n", "a,b\n", "a,b\n\n  \n"])
    def test_no_data_rows(self, tmp_path, text):
        with pytest.raises(ValueError, match=r"x\.csv: no data rows"):
            load(write(tmp_path, text))

    def test_errors_deep_in_a_file_name_their_line(self, tmp_path):
        lines = ["1.5,2.5,3.5"] * 6000
        bad_token = lines.copy()
        bad_token[5000] = "1.5,oops,3.5"
        with pytest.raises(ValueError, match=r"x\.csv:5001: non-numeric field in row"):
            load(write(tmp_path, "\n".join(bad_token) + "\n"))
        ragged = lines.copy()
        ragged[5000] = "1.5,2.5"
        with pytest.raises(ValueError,
                           match=r"r\.csv:5001: row has 2 fields, expected 3"):
            load(write(tmp_path, "\n".join(ragged) + "\n", name="r.csv"))

    def test_ragged_row_message(self, tmp_path):
        with pytest.raises(ValueError, match=r"x\.csv:3: row has 3 fields, expected 2"):
            load(write(tmp_path, "a,b\n1,2\n3,4,5\n"))

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_field_names_file_and_line(self, tmp_path, token):
        path = write(tmp_path, f"a,b\n1,2\n\n3,{token}\n5,6\n")
        with pytest.raises(ValueError, match=r"x\.csv:4: non-finite field in row"):
            load(path)

    def test_python_only_spelling_rejected_with_the_file_name(self, tmp_path):
        path = write(tmp_path, "1,2\n1_000,3\n")
        with pytest.raises(ValueError, match=r"x\.csv"):
            load(path)


class TestExactWrites:
    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(5)
        A = np.array([
            [-0.0, 5e-324, 1.7976931348623157e308],
            [0.1 + 0.2, 1 / 3, -2.2250738585072014e-308],
            [-5e-324, -1.7976931348623157e308, 0.0],
        ])
        A = np.vstack([A, rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))])
        path = tmp_path / "x.csv"
        io.save_csv(path, A)
        back = load(path)
        assert back.view(np.uint64).tolist() == A.view(np.uint64).tolist()
        assert np.signbit(back[0, 0])

    def test_save_csv_matches_the_17g_formatter(self, tmp_path):
        A = np.random.default_rng(6).standard_normal((40, 7))
        A[0, :3] = (-0.0, 5e-324, 1e308)
        path = tmp_path / "x.csv"
        io.save_csv(path, A)
        assert path.read_text() == "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in A)

    def test_save_model_matrix_matches_the_17g_formatter(self, tmp_path):
        A = np.random.default_rng(7).standard_normal((9, 4))
        A[0, 0] = -0.0
        path = tmp_path / "phi.txt"
        io.save_model_matrix(path, A)
        golden = "9 4\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in A)
        assert path.read_text() == golden
        assert io.load_model_matrix(path).view(np.uint64).tolist() == A.view(np.uint64).tolist()

    def test_writers_accept_a_data_matrix(self, tmp_path):
        A = np.random.default_rng(9).standard_normal((30, 4))
        A[0, :2] = (-0.0, 5e-324)
        io.save_csv(tmp_path / "a.csv", A)
        io.save_csv(tmp_path / "b.csv", io.load_csv(tmp_path / "a.csv"))
        back = load(tmp_path / "b.csv")
        assert back.view(np.uint64).tolist() == A.view(np.uint64).tolist()
        io.save_model_matrix(tmp_path / "phi.txt", DataMatrix(A))
        assert np.array_equal(io.load_model_matrix(tmp_path / "phi.txt"), A)


class TestModelFiles:
    """load_model_matrix follows load_csv's rules, with whitespace-separated fields."""

    def load(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return io.load_model_matrix(write(tmp_path, text, name="phi.txt"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_its_line(self, tmp_path, token):
        with pytest.raises(ValueError, match=r"phi\.txt:2: non-finite field in row"):
            self.load(tmp_path, f"2 2\n1 {token}\n3 4\n")

    def test_non_numeric_field_names_its_physical_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"phi\.txt:3: non-numeric field in row"):
            self.load(tmp_path, "2 2\n1 2\noops 4\n")

    @pytest.mark.parametrize("text, lineno", [("2 2\n# note\n1 2\n3 4\n", 2),
                                               ("2 2\n1 2\n3 4 # note\n", 3)])
    def test_hash_is_not_a_comment(self, tmp_path, text, lineno):
        with pytest.raises(ValueError, match=rf"phi\.txt:{lineno}: non-numeric field in row"):
            self.load(tmp_path, text)

    def test_ragged_row_names_its_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"phi\.txt:4: row has 3 fields, expected 2"):
            self.load(tmp_path, "3 2\n1 2\n\n3 4 5\n6 7\n")

    @pytest.mark.parametrize("text", ["", "3\n1 2 3\n"])
    def test_malformed_header_names_line_one(self, tmp_path, text):
        with pytest.raises(ValueError, match=r'phi\.txt:1: header must be "rows cols"'):
            self.load(tmp_path, text)

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        A = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
                      [0.1 + 0.2, -1.7976931348623157e308]])
        path = tmp_path / "phi.txt"
        io.save_model_matrix(path, A)
        back = self.load(tmp_path, path.read_text())
        assert back.view(np.uint64).tolist() == A.view(np.uint64).tolist()


def test_load_peak_memory_is_at_most_twice_the_array(tmp_path):
    A = np.random.default_rng(8).standard_normal((2000, 50))
    path = tmp_path / "x.csv"
    io.save_csv(path, A)
    back, peak = peak_bytes(lambda: io.load_csv(path).values)
    assert np.array_equal(back, A)
    assert peak <= 2 * back.nbytes, f"peak {peak / back.nbytes:.2f}x the array"


@pytest.fixture
def ranges(monkeypatch):
    """``ranges(n)`` makes the loaders cut any file of at least n bytes into n ranges."""
    monkeypatch.setattr(io, "SPLIT_MIN_BYTES", 1)
    return lambda n: monkeypatch.setattr(io, "_usable_cpus", lambda: n)


@pytest.fixture
def sixteen_ranges(ranges):
    ranges(16)


# With 16 ranges the loaders cut the small files below at every line start that follows
# a probe, so each error case's bad line lies in a worker's range, not in the caller's.
@pytest.mark.usefixtures("sixteen_ranges")
class TestAcceptedDialectSplit(TestAcceptedDialect):
    pass


@pytest.mark.usefixtures("sixteen_ranges")
class TestExactWritesSplit(TestExactWrites):
    pass


@pytest.mark.usefixtures("sixteen_ranges")
class TestModelFilesSplit(TestModelFiles):
    pass


def outcome(path):
    """load(path)'s bits, or its error message."""
    try:
        return load(path).view(np.uint64).tolist()
    except ValueError as exc:
        return str(exc)


class TestSplitLoad:
    def test_values_match_the_one_range_parse(self, tmp_path, ranges):
        A = np.random.default_rng(10).standard_normal((300, 7)) * 10.0 ** np.arange(-3, 4)
        path = tmp_path / "x.csv"
        io.save_csv(path, A)
        for n in (2, 3, 7):
            ranges(n)
            assert len(io._cuts(path, path.stat().st_size, n)) == n + 1
            assert load(path).view(np.uint64).tolist() == A.view(np.uint64).tolist()

    def test_header_blank_lines_and_crlf_at_the_cuts(self, tmp_path, ranges):
        rows = [f"{i}.25, {-i}e-3\t\r\n" + ("\r\n" if i % 3 else " \t\r\n") for i in range(40)]
        path = tmp_path / "x.csv"
        path.write_bytes(("a,b\r\n\r\n" + "".join(rows)).encode())
        ranges(1)
        whole = outcome(path)
        assert len(whole) == 40
        for n in range(2, 12):
            ranges(n)
            assert outcome(path) == whole

    def test_a_range_of_header_and_blank_lines_only(self, tmp_path, ranges):
        path = write(tmp_path, "a,b\n" + "\n  \n" * 30 + "1,2\n3,4\n")
        ranges(2)
        assert io._cuts(path, path.stat().st_size, 2)[1] < path.read_text().index("1,2")
        assert np.array_equal(load(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("bad, message", [
        ("1,oops", r"x\.csv:33: non-numeric field in row$"),
        ("1,nan", r"x\.csv:33: non-finite field in row$"),
    ])
    def test_an_error_in_the_only_range_with_rows(self, tmp_path, ranges, bad, message):
        path = write(tmp_path, "a,b\n" + "\n" * 30 + "1,2\n" + bad + "\n")
        ranges(2)
        assert io._cuts(path, path.stat().st_size, 2)[1] < path.read_text().index("1,2")
        with pytest.raises(ValueError, match=message):
            load(path)

    def test_width_mismatch_at_a_worker_first_line(self, tmp_path, ranges):
        path = write(tmp_path, "1,2\n" * 15 + "1,2,3\n" * 10)
        ranges(2)
        assert io._cuts(path, 120, 2) == [0, 60, 120]  # the worker's rows all have 3 fields
        with pytest.raises(ValueError, match=r"x\.csv:16: row has 3 fields, expected 2$"):
            load(path)

    @pytest.mark.parametrize("bad, message", [
        ("1,oops", r"x\.csv:40: non-numeric field in row$"),
        ("1,2,3", r"x\.csv:40: row has 3 fields, expected 2$"),
    ])
    def test_a_parse_error_in_a_worker_beats_a_nan_in_range_0(self, tmp_path, ranges,
                                                               bad, message):
        path = write(tmp_path, "1,2\n1,nan\n" + "1,2\n" * 37 + bad + "\n1,2\n")
        for n in (1, 2):
            ranges(n)
            with pytest.raises(ValueError, match=message):
                load(path)

    def test_the_earliest_non_finite_row_wins(self, tmp_path, ranges):
        path = write(tmp_path, "1,2\n" * 20 + "1,inf\n" + "1,2\n" * 20 + "nan,2\n")
        for n in (1, 2, 5):
            ranges(n)
            with pytest.raises(ValueError, match=r"x\.csv:21: non-finite field in row$"):
                load(path)

    def test_numpy_message_counts_rows_from_the_file_start(self, tmp_path, ranges):
        path = write(tmp_path, "1,2\n" * 30 + "1_000,3\n")
        ranges(1)
        whole = outcome(path)
        assert "at row 30" in whole
        for n in (2, 5):
            ranges(n)
            assert outcome(path) == whole

    def test_a_worker_decodes_only_its_range(self, tmp_path, monkeypatch):
        # its lines are numbered from the range's start; the prefix is counted only on an error
        path = write(tmp_path, "a,b\n" + "1,2\n" * 40)
        begin, end = io._cuts(path, path.stat().st_size, 2)[1:]
        decoded, text = [], io._text
        monkeypatch.setattr(io, "_text", lambda p, b, e: decoded.append((b, e)) or text(p, b, e))
        io._send_rows(path, ",", begin, end, BytesIO())
        assert decoded == [(begin, end)]

    def test_a_range_rejected_in_a_clean_file_is_a_loader_bug(self, tmp_path, ranges,
                                                              monkeypatch):
        parse = io._parse

        def rejected_in_a_worker(path, begin, *args, **kwargs):
            if begin:
                raise ValueError("not clean")
            return parse(path, begin, *args, **kwargs)

        monkeypatch.setattr(io, "_parse", rejected_in_a_worker)
        path = write(tmp_path, "1,2\n" * 50)
        ranges(2)
        with pytest.raises(RuntimeError, match=r"x\.csv: a range of the split file was rejected"):
            load(path)

    def test_a_killed_worker_raises_a_typed_error(self, tmp_path, ranges, monkeypatch):
        parse = io._parse

        def killed_in_a_worker(path, begin, *args, **kwargs):
            if begin:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(path, begin, *args, **kwargs)

        monkeypatch.setattr(io, "_parse", killed_in_a_worker)
        path = write(tmp_path, "1,2\n" * 50)
        ranges(3)
        with pytest.raises(ChildProcessError, match=r"x\.csv: a parse worker exited"):
            load(path)

    def test_a_failure_in_range_0_stops_the_workers(self, tmp_path, ranges, monkeypatch):
        parse = io._parse

        def slow_in_a_worker(path, begin, *args, **kwargs):
            if begin:
                time.sleep(60)
            return parse(path, begin, *args, **kwargs)

        monkeypatch.setattr(io, "_parse", slow_in_a_worker)
        path = write(tmp_path, "1,2\n1,x\n" + "1,2\n" * 50)
        ranges(2)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"x\.csv:2: non-numeric field in row$"):
            load(path)
        assert time.perf_counter() - t0 < 30  # the autouse check sees both workers reaped

    def test_caller_peak_memory_is_at_most_1_25_times_the_array(self, tmp_path, ranges):
        A = np.random.default_rng(8).standard_normal((4000, 50))
        path = tmp_path / "x.csv"
        io.save_csv(path, A)
        ranges(2)
        back, peak = peak_bytes(lambda: io.load_csv(path).values)
        assert np.array_equal(back, A)
        assert peak <= 1.25 * back.nbytes, f"peak {peak / back.nbytes:.2f}x the array"


FIELDS = st.tuples(st.sampled_from(["", " ", "\t"]),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["", " "])).map("".join)
DEFECTS = ["oops", "ragged", "nan", "inf", "1_000", "trailing comma"]


@st.composite
def csv_texts(draw):
    """(A small CSV's bytes, its rows if it holds no defect): an optional header, blank,
    whitespace-only and CRLF lines, and at most one defect."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(FIELDS, min_size=width, max_size=width),
                         min_size=1, max_size=12))
    defect = draw(st.sampled_from([None, *DEFECTS]))
    if defect:
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        if defect in ("ragged", "trailing comma"):
            fields.append("1" if defect == "ragged" else "")
        else:
            fields[draw(st.integers(0, width - 1))] = defect
    lines = [",".join("abc"[:width])] if draw(st.booleans()) else []
    for fields in rows:
        lines += draw(st.lists(st.sampled_from(["", " ", " \t"]), max_size=2))
        lines.append(",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    text = text if draw(st.booleans()) else text.rstrip("\r\n")
    return text.encode(), None if defect else [[float(f) for f in r] for r in rows]


@given(csv_texts())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_cut_gives_the_one_range_outcome(case):
    # hypothesis runs one example at a time, so at most 7 workers exist at once
    data, rows = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "x.csv"
        path.write_bytes(data)
        mp.setattr(io, "SPLIT_MIN_BYTES", 1)
        mp.setattr(io, "_usable_cpus", lambda: 1)
        whole = outcome(path)
        if rows is not None:
            assert whole == np.array(rows).view(np.uint64).tolist()
        for n in (2, 3, 5, 8):
            mp.setattr(io, "_usable_cpus", lambda: n)
            assert outcome(path) == whole, n


def savetxt_bytes(A, delimiter=",", header=None):
    """np.savetxt(fmt="%.17g")'s bytes, the output every cut of a save must equal."""
    buf = BytesIO()
    np.savetxt(buf, A, fmt="%.17g", delimiter=delimiter,
               **({} if header is None else {"header": header, "comments": ""}))
    return buf.getvalue()


class TestSplitSave:
    A = np.random.default_rng(11).standard_normal((40, 6)) * 10.0 ** np.arange(-200, 400, 100)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("make", [np.asarray, sp.csr_matrix, DataMatrix],
                             ids=["dense", "csr", "data-matrix"])
    @pytest.mark.parametrize("rows", [40, 1])
    def test_bytes_match_savetxt(self, tmp_path, ranges, monkeypatch, n, make, rows):
        A = self.A[:rows].copy()
        A[0, :3] = (-0.0, 5e-324, -1.7976931348623157e308)  # CSR keeps no -0.0
        M, forks, fork = make(A), [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        ranges(n)
        io.save_csv(tmp_path / "x.csv", M)
        dense = as_matrix(M).toarray() if sp.issparse(M) else A
        assert (tmp_path / "x.csv").read_bytes() == savetxt_bytes(dense)
        assert len(forks) == n - 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_file_bytes_match_savetxt(self, tmp_path, ranges, n):
        ranges(n)
        io.save_model_matrix(tmp_path / "phi.txt", self.A)
        want = savetxt_bytes(self.A, " ", header=f"{self.A.shape[0]} {self.A.shape[1]}")
        assert (tmp_path / "phi.txt").read_bytes() == want

    @pytest.mark.parametrize("how", ["killed", "short"])
    def test_a_worker_that_sends_too_little_raises_a_typed_error(self, tmp_path, ranges,
                                                                monkeypatch, how):
        formatted = io._formatted

        class Short(bytes):
            def __len__(self):  # the worker announces a byte more than it sends
                return super().__len__() + 1

        def failing_in_a_worker(A, begin, *args):
            if begin and how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return (Short(b) if begin else b for b in formatted(A, begin, *args))

        monkeypatch.setattr(io, "_formatted", failing_in_a_worker)
        ranges(3)
        with pytest.raises(ChildProcessError, match=r"x\.csv: a write worker exited"):
            io.save_csv(tmp_path / "x.csv", self.A)

    def test_a_failure_in_the_caller_stops_the_workers(self, tmp_path, ranges, monkeypatch):
        formatted = io._formatted

        def slow_in_a_worker(A, begin, *args):
            if begin:
                time.sleep(60)
            return formatted(A, begin, *args)

        monkeypatch.setattr(io, "_formatted", slow_in_a_worker)
        ranges(2)
        t0 = time.perf_counter()
        with pytest.raises(FileNotFoundError):
            io.save_csv(tmp_path / "missing" / "x.csv", self.A)
        assert time.perf_counter() - t0 < 30  # the autouse check sees the worker reaped

    def test_caller_peak_memory_is_bounded_by_the_copy_buffer(self, tmp_path, ranges):
        A = np.random.default_rng(12).standard_normal((4000, 50))
        ranges(2)
        _, peak = peak_bytes(lambda: io.save_csv(tmp_path / "x.csv", A))
        size = (tmp_path / "x.csv").stat().st_size
        assert size > 16 * io.COPY_BYTES
        assert peak <= 6 * io.COPY_BYTES, f"peak {peak / io.COPY_BYTES:.2f}x the copy buffer"
