"""Shared output helpers: fixed-precision number formatting, CSV
rendering and stable file writing.

Every numeric value leaving the package is serialized with 12 significant
digits so that repeated runs produce byte-identical files.  Every CSV file
the package writes quotes its fields by the one rule of csv_fields.
Per-row CSV files (events, homes, assignments) are rendered as bytes in
blocks of BLOCK_ROWS rows, so writing one holds at most one block.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK_ROWS = 1 << 13  # rows rendered together; bounds a CSV writer's bytes in memory
PAD = 0xFF  # pads the fields of a column to one width; no UTF-8 text holds this byte
_WIDE_BYTES = 1 << 20  # the most a column's padded fields may take, unless they are one row's
_NEEDS_QUOTES = re.compile('[",\r\n]')

# a column of csv_blocks: the fields of rows [start, stop) as padded uint8 rows, or None past _WIDE_BYTES
Column = Callable[[int, int], "np.ndarray | None"]


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


def padded_rows(text: np.ndarray) -> np.ndarray:
    """A ``U`` array of ASCII text as padded rows, its NULs made PAD."""
    rows = text.view(np.uint32).reshape(len(text), text.itemsize // 4).astype(np.uint8)
    rows[rows == 0] = PAD
    return rows


def decimal_rows(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as str gives them, as padded rows."""
    left, rows = values.astype(np.uint64), np.empty((len(values), len(str(values.max()))), dtype=np.uint8)
    for place in reversed(range(rows.shape[1])):
        left, rows[:, place] = np.divmod(left, 10)
    rows[:, :-1][np.logical_and.accumulate(rows[:, :-1] == 0, axis=1)] = PAD - ord("0")  # PAD once "0" is added
    return rows + ord("0")


def coded_column(ids: Sequence[str], codes: np.ndarray | None = None, missing: str = "") -> Column:
    """The column of labels ``ids[c]`` for the codes ``c``, ``missing`` for
    -1, or of ``ids`` in order without ``codes``; an ``events.Ids`` whose
    labels need no quotes is read where it lies."""
    if isinstance(ids, (tuple, list)) or missing or any(c in ids.data for c in (b'"', b",", b"\r", b"\n")):
        fields = [field.encode() for field in csv_fields([*ids, missing])]
        data, offsets = np.frombuffer(b"".join(fields), dtype=np.uint8), np.cumsum([0, *map(len, fields)])
    else:  # the empty field ends the labels
        data, offsets = np.frombuffer(ids.data, dtype=np.uint8), np.append(ids.offsets, ids.offsets[-1])

    def column(start: int, stop: int) -> np.ndarray | None:
        used, at = (np.arange(start, stop), None) if codes is None else np.unique(codes[start:stop], return_inverse=True)
        used %= len(offsets) - 1  # -1: the last field
        first, length = offsets[used], offsets[used + 1] - offsets[used]
        width = int(length.max(initial=0))
        if stop - start > 1 and (stop - start) * width > _WIDE_BYTES:
            return None
        if len(used) == 1:  # one field needs no padding
            rows = data[first[0] : first[0] + width].reshape(1, width)
        else:  # a field is read from the window at its start, or from the last window
            window = np.minimum(first, len(data) - width)
            rows, shift, place = sliding_window_view(data, width)[window], (first - window)[:, None], np.arange(width)
            rows[(place < shift) | (place >= shift + length[:, None])] = PAD
        return rows if at is None else rows[at]
    return column


def csv_blocks(header: Sequence[str], n: int, columns: Sequence[Column]) -> Iterator[bytes]:
    """The CSV bytes of ``header`` and ``n`` rows joined from ``columns``:
    the header line, then blocks of BLOCK_ROWS lines, fewer where too wide."""
    yield csv_text(header, ()).encode()
    blocks = [(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)][::-1]
    while blocks:
        start, stop = blocks.pop()
        parts = [column(start, stop) for column in columns]
        if any(part is None for part in parts):
            blocks += [((start + stop) // 2, stop), (start, (start + stop) // 2)]
            continue
        separators = np.full((stop - start, 1), ord(","), dtype=np.uint8)
        lines = np.concatenate([x for part in parts for x in (part, separators)], axis=1)
        del parts
        lines[:, -1] = ord("\n")
        yield lines[lines != PAD].tobytes()


def write_text(path: str | Path, text: str | Iterable[bytes]) -> None:
    """Write UTF-8 text, or the byte blocks of csv_blocks in order, as is."""
    with open(path, "wb") as fh:
        fh.writelines([text.encode()] if isinstance(text, str) else text)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
