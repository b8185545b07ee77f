"""Shared output helpers: fixed-precision number formatting, CSV
rendering and stable file writing.

Every numeric value leaving the package is serialized with 12 significant
digits so that repeated runs produce byte-identical files.  Every CSV file
the package writes quotes its fields by the one rule of csv_fields.
Per-row CSV files (events, homes, assignments) are rendered in blocks of
BLOCK_ROWS rows, so writing one holds at most one block of text.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

BLOCK_ROWS = 1 << 13  # rows rendered together; bounds a CSV writer's text in memory
_NEEDS_QUOTES = re.compile('[",\r\n]')

# a column of csv_blocks: the rendered fields of the rows [start, stop)
Column = Callable[[int, int], Iterable[str]]


def fmt_num(x: float | int) -> str:
    """Serialize a number with 12 significant digits (ints verbatim)."""
    if isinstance(x, bool):  # bool is an int subclass; keep it out of numerics
        raise TypeError("bool is not a serializable number")
    if isinstance(x, int):
        return str(x)
    if x == 0.0:
        return "0"  # avoid "-0"
    return format(x, ".12g")


def dumps_stable(obj) -> str:
    """JSON-encode with sorted keys and 12-significant-digit floats.

    json.dumps cannot emit custom float tokens, so this walks the structure
    itself.  Supports dict/list/tuple/str/int/float/bool/None.
    """
    return _encode(obj, indent=0) + "\n"


def _encode(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return fmt_num(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            items.append(f"{inner}{json.dumps(key, ensure_ascii=False)}: {_encode(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_encode(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as one field of a CSV row of several: a value holding a
    comma, a double quote, '\\r' or '\\n' is quoted, its quotes doubled.

    This is csv.writer's QUOTE_MINIMAL with '\\r\\n' line ends, spelled out
    so that the bytes do not depend on the csv module's version.
    """
    values = list(values)
    if not _NEEDS_QUOTES.search("".join(values)):
        return values
    return ['"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v) else v for v in values]


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text of ``header`` and ``rows``, each value as str() gives it and
    each line ended by '\\n'.  A row of one empty field is written '""', as
    csv.writer does, so that it does not read back as a blank line."""
    return "".join((",".join(csv_fields(map(str, row))) or '""') + "\n" for row in (header, *rows))


def coded_column(ids: Sequence[str], codes: np.ndarray, missing: str = "") -> Column:
    """The column of labels ``ids[c]`` for the codes ``c``, ``missing``
    where ``c`` is -1, from a tuple, a list or an ``events.Ids``; each
    block's distinct labels are rendered once, so no more are held as text."""
    table = np.array(ids, dtype=object) if isinstance(ids, (tuple, list)) else ids
    def column(start: int, stop: int) -> list[str]:
        used, at = np.unique(codes[start:stop], return_inverse=True)  # -1 first
        labels = [missing] * int(used[0] < 0) + list(table[used[used >= 0]])
        return np.array(csv_fields(labels), dtype=object)[at].tolist()
    return column


def csv_blocks(header: Sequence[str], n: int, columns: Sequence[Column]) -> Iterator[str]:
    """CSV text of ``header`` and ``n`` rows, rows joined from ``columns``:
    the header line first, then blocks of at most BLOCK_ROWS lines."""
    yield csv_text(header, ())
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        yield "\n".join(map(",".join, zip(*(column(start, stop) for column in columns)))) + "\n"


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write UTF-8 text, or its blocks in order, with fixed '\\n' line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
