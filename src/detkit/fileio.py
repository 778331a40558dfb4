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
from collections.abc import Iterable
from pathlib import Path


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


def csv_text(header: list[str], rows: Iterable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    # the writer quotes a field holding "\n" but not one holding a bare
    # "\r", which a reader then takes for a line break; such rows are
    # written with every field quoted. The writer spells a float (numpy's
    # float64 too) as its repr and any other value but None as str.
    quote_all = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    w.writerow(header)
    for row in rows:
        (quote_all if "\r" in "".join([v for v in row if isinstance(v, str)]) else w).writerow(row)
    return buf.getvalue()


def write_csv(path, header: list[str], rows: Iterable) -> None:
    atomic_write_text(path, csv_text(header, rows))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj))
