"""``fileio.csv_chunks``, the one CSV writer, formats column by column; its
bytes must be those of a plain ``csv.writer`` writing row by row, whether
joined by ``csv_text`` or streamed to a file by ``write_csv``."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import awkward_text
from detkit import fileio
from detkit.fileio import atomic_write_text, csv_text, write_csv

# strings the writer must quote, double or leave alone; "" is quoted only as a lone field
awkward_str = st.one_of(st.sampled_from((",", '"', "\n", "\r", "\r\n", '""', "", " ", " a b ")), awkward_text)
floats = st.one_of(st.sampled_from((-0.0, 0.0, 1e300, -1e300, 5e-324)), st.floats())
ints = st.one_of(st.sampled_from((2**70, -(2**70), 2**63)), st.integers())
mixed = st.one_of(awkward_str, floats, ints, st.booleans(), st.none())


@st.composite
def tables(draw):
    """A header and 1-4 columns of 0-6 rows, each of strings (drawn from a
    few, so values repeat), floats, ints or mixed values."""
    n = draw(st.integers(0, 6))
    pool = draw(st.lists(awkward_str, min_size=1, max_size=3))
    kinds = draw(st.lists(st.sampled_from((st.sampled_from(pool), awkward_str, floats, ints, mixed)),
                          min_size=1, max_size=4))
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]
    return draw(st.lists(awkward_str, min_size=len(columns), max_size=len(columns))), columns


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from((1, 2, 3, fileio.CSV_CHUNK_ROWS)))
def test_matches_row_writer(table, chunk_rows):
    header, columns = table
    with mock.patch.object(fileio, "CSV_CHUNK_ROWS", chunk_rows):
        assert csv_text(header, columns) == oracles.csv_text(header, zip(*columns))


@pytest.mark.parametrize("value", ["", None, "\r", "a"])
def test_lone_field(value):
    assert csv_text(["h"], [[value, "x"]]) == oracles.csv_text(["h"], [(value,), ("x",)])


def test_columns_of_different_length_rejected():
    with pytest.raises(ValueError, match="CSV columns differ in length"):
        csv_text(["a", "b"], [[1, 2], [3]])


SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 0.1, 2.5)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((1, 2, 3, fileio.CSV_CHUNK_ROWS)))
def test_float_arrays_match_row_writer(data, chunk_rows):
    # float64 array columns are formatted once per distinct bit pattern in a
    # chunk; values repeat within and across chunk edges, and a string column
    # holding "\r" or a lone "" sends rows through the writer itself
    n = data.draw(st.integers(0, 9))
    pool = data.draw(st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), min_size=1, max_size=4))
    n_float = data.draw(st.integers(1, 3))
    columns = [np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.float64)
               for _ in range(n_float)]
    if data.draw(st.booleans()):
        columns.insert(data.draw(st.integers(0, n_float)), data.draw(st.lists(awkward_str, min_size=n, max_size=n)))
    header = [f"c{i}" for i in range(len(columns))]
    with mock.patch.object(fileio, "CSV_CHUNK_ROWS", chunk_rows):
        got = csv_text(header, columns)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    assert got == oracles.csv_text(header, rows)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, fileio.CSV_CHUNK_ROWS])
def test_special_floats_in_one_chunk(chunk_rows):
    values = np.array(SPECIAL_FLOATS * 2)
    column = values.tolist()
    with mock.patch.object(fileio, "CSV_CHUNK_ROWS", chunk_rows):
        assert csv_text(["v", "w"], [values, column]) == oracles.csv_text(["v", "w"], zip(column, column))
    assert csv_text(["v"], [values]).split("\n")[1:3] == ["0.0", "-0.0"]


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, fileio.CSV_CHUNK_ROWS])
def test_strided_columns(chunk_rows):
    # the columns of boxes.T are strided views, each anchor's box repeated
    rng = np.random.default_rng(0)
    boxes = np.repeat(rng.uniform(-1.0, 1.0, (5, 4)), 3, axis=0)
    boxes[::4, 1] = -0.0
    with mock.patch.object(fileio, "CSV_CHUNK_ROWS", chunk_rows):
        got = csv_text(list("abcd"), boxes.T)
    assert not boxes.T[0].flags.contiguous
    assert got == oracles.csv_text(list("abcd"), boxes.tolist())


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, fileio.CSV_CHUNK_ROWS])
def test_streamed_file_matches_text(tmp_path, chunk_rows):
    # several chunks, and rows the writer itself must spell ("\r", a lone
    # "") only in a later chunk, after chunks of plain joined lines
    n = 3 * chunk_rows + 1
    words = ["a", "b,c", 'd"e'] * n
    strings = words[:n - 2] + ["\r", ""]
    values = np.arange(n, dtype=np.float64) / 3.0
    for columns in ([strings, values, list(range(n))], [strings]):
        header = [f"c{i}" for i in range(len(columns))]
        with mock.patch.object(fileio, "CSV_CHUNK_ROWS", chunk_rows):
            text = csv_text(header, columns)
            write_csv(tmp_path / "t.csv", header, columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        assert text == oracles.csv_text(header, rows)
        assert (tmp_path / "t.csv").read_bytes() == text.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class _Unprintable:
    def __str__(self):
        raise RuntimeError("unprintable cell")


@pytest.mark.parametrize("existing", [None, "old text\n"])
def test_failure_mid_stream_leaves_no_file(tmp_path, existing):
    # the bad cell sits in the third chunk, after the header and two chunks went to the temp file
    target = tmp_path / "t.csv"
    if existing is not None:
        atomic_write_text(target, existing)
    column = ["a", 1, 2.5, None, "b", _Unprintable()]
    with mock.patch.object(fileio, "CSV_CHUNK_ROWS", 2), pytest.raises(RuntimeError, match="unprintable cell"):
        write_csv(target, ["h", "i"], [column, range(len(column))])
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["t.csv"])
    if existing is not None:
        assert target.read_text() == existing
