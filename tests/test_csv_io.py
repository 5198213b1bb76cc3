"""CSV and model-file I/O: the accepted dialect, line-numbered errors,
bit-exact round trips, byte-exact writes and the loader's peak memory."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ccakit import io


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


def test_load_peak_memory_is_at_most_twice_the_array(tmp_path):
    A = np.random.default_rng(8).standard_normal((2000, 50))
    path = tmp_path / "x.csv"
    io.save_csv(path, A)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        back = io.load_csv(path).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, A)
    assert peak <= 2 * back.nbytes, f"peak {peak / back.nbytes:.2f}x the array"
