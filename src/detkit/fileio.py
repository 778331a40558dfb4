"""Atomic, byte-deterministic file emission shared by the CLI and harness.

Floats are serialized with repr (shortest round-trip form), JSON with
sorted keys, and every write goes through a temp file + rename so
partially written artifacts never appear.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path

CSV_CHUNK_ROWS = 4096  # rows formatted at a time, which bounds the field strings held at once


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], columns) -> str:
    """The CSV text of ``header`` over equal-length ``columns`` (sequences
    or arrays), as ``csv.writer`` writes their rows.

    Each column is formatted once per ``CSV_CHUNK_ROWS`` rows: floats by
    repr and ints by str, which is how the writer spells them, and each
    distinct string, or each value of a column of mixed types, by the writer
    itself in a row of two fields. The writer quotes a lone empty field, so
    a row of one empty field is left to it. It quotes a field holding "\n"
    but not one holding a bare "\r", which a reader then takes for a line
    break; such rows are written with every field quoted.
    """
    columns = list(columns)
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    w.writerow(header)
    for first in range(0, max(lengths, default=0), CSV_CHUNK_ROWS):
        part = [column[first:first + CSV_CHUNK_ROWS] for column in columns]
        part = [column.tolist() if hasattr(column, "tolist") else list(column) for column in part]
        lines = list(map(",".join, zip(*map(_csv_fields, part))))
        body = "\n".join(lines)
        if "\r" not in body and "" not in lines:
            buf.write(body + "\n")
            continue
        for line, row in zip(lines, zip(*part)):
            if "\r" in line:
                quote_all.writerow(row)
            elif line:
                buf.write(line + "\n")
            else:
                w.writerow(row)
    return buf.getvalue()


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
    atomic_write_text(path, csv_text(header, columns))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj))
