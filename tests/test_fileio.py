"""``fileio.csv_text``, the one CSV writer, formats column by column; its
bytes must be those of a plain ``csv.writer`` writing row by row."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import awkward_text
from detkit import fileio
from detkit.fileio import csv_text

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
