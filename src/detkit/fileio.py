"""Atomic, byte-deterministic file emission shared by the CLI and harness.

Floats are serialized with repr (shortest round-trip form), JSON with
sorted keys, and every write goes through a temp file + rename so
partially written artifacts never appear. The CSV writer formats a
float64 array column once per distinct bit pattern in each chunk of rows,
and ``write_csv`` sends each chunk's text to the temp file as it is made,
so a table's whole text is never held at once: the writer's memory is set
by ``CSV_CHUNK_ROWS``, not by the file's size.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

CSV_CHUNK_ROWS = 1024  # rows formatted and written at a time, which bounds the text held at once


def _atomic_write(path, chunks: Iterable[str]) -> None:
    """Write each text of ``chunks`` in turn to a temp file beside ``path``,
    then rename it onto ``path``; on any failure the temp file is removed
    and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, (text,))


def csv_chunks(header: list[str], columns) -> Iterator[str]:
    """The CSV text of ``header`` over equal-length ``columns`` (sequences
    or arrays), as ``csv.writer`` writes their rows: the header line, then
    the text of each ``CSV_CHUNK_ROWS`` rows.

    Each column is formatted once per chunk: floats by repr (a float64
    array once per distinct bit pattern) and ints by str, which is how the
    writer spells them, and each distinct string, or each value of a column
    of mixed types, by the writer itself in a row of two fields. The writer
    quotes a lone empty field, so a row of one empty field is left to it.
    It quotes a field holding "\n" but not one holding a bare "\r", which a
    reader then takes for a line break; such rows are written with every
    field quoted.
    """
    columns = list(columns)
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    w.writerow(header)
    yield buf.getvalue()
    for first in range(0, max(lengths, default=0), CSV_CHUNK_ROWS):
        # a float column's fields stand in for its values below: the writer
        # spells a float as its repr and never quotes one
        part, fields = zip(*(_csv_column(column[first:first + CSV_CHUNK_ROWS]) for column in columns))
        lines = list(map(",".join, zip(*fields)))
        body = "\n".join(lines)
        if "\r" not in body and "" not in lines:
            yield body + "\n"
            continue
        buf.seek(0)
        buf.truncate()
        for line, row in zip(lines, zip(*part)):
            if "\r" in line:
                quote_all.writerow(row)
            elif line:
                buf.write(line + "\n")
            else:
                w.writerow(row)
        yield buf.getvalue()


def csv_text(header: list[str], columns) -> str:
    """The whole text that ``csv_chunks`` yields."""
    return "".join(csv_chunks(header, columns))


def _csv_column(values) -> tuple[list, list[str]]:
    """A column chunk's values as the writer takes them, and their fields."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        fields = _float_fields(values)
        return fields, fields
    values = values.tolist() if hasattr(values, "tolist") else list(values)
    return values, _csv_fields(values)


def _float_fields(values: np.ndarray) -> list[str]:
    """The repr of each float, taken once per distinct bit pattern (which
    keeps 0.0 and -0.0 apart)."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)[inverse].tolist()


def _csv_fields(values: list) -> list[str]:
    """Each value as its field in a CSV row of several fields."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map(float.__repr__, values))
    if kinds <= {int}:
        return list(map(str, values))
    if kinds <= {str}:
        return list(map({v: _csv_field(v) for v in set(values)}.__getitem__, values))
    return list(map(_csv_field, values))


def _csv_field(value) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, ""))
    return buf.getvalue()[:-2]


def write_csv(path, header: list[str], columns) -> None:
    _atomic_write(path, csv_chunks(header, columns))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj))
