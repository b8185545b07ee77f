"""Unified event schema and ingestion for geotagged activity records.

One record format covers all three activity styles (photo, tweet,
transaction): a user token, a UTC timestamp, a WGS84 point, an optional
declared origin country, and a dataset tag.  Files arrive as CSV (header
required) or JSONL with the same field names; malformed rows are counted
and skipped unless strict mode is on.

Parsed events live in one EventTable of numpy columns.  Ingest reads the
input as raw byte blocks of about BLOCK_BYTES, each cut at its last
newline (a text stream is encoded one read at a time), and validates it
in bounded chunks column by column.  ``_decide`` holds the row rules: it
gives every row of a chunk its rejection reason, or none, from columns
of raw field values.  Each format has one field reader that gives those
values, ``_row_fields`` for split CSV rows and ``_json_fields`` for
JSONL lines; it reads every row of a chunk on the list paths below, and
on the byte paths only the rows that the byte checks flag, re-read in
one batch per block.

A CSV block holding no quote, carriage return or NUL, no line longer
than csv's field size limit, exactly the header's number of commas on
every line and only UTF-8 is checked as one byte buffer, with no Python
string per line: numpy finds the field bounds, and user and tag fields
stay fixed-width ``S`` arrays until the table codes them with one sort.
That suits short ids and tags; a block's column with a field wider than
64 bytes is read as Python strings instead, so memory stays proportional
to the text.  A row with a field that may carry padding ``str.strip``
removes is flagged like any other, and only a flagged row's line is
decoded.  From the first other block on, ``csv.reader`` reads the rest
of the stream, decoded block by block.  Either way the accepted rows,
rejection reasons and line numbers are the same, and a
UnicodeDecodeError is raised only after the rows before the undecodable
bytes have been counted, or have failed strict mode.

A JSONL block holding no backslash, carriage return or NUL and only UTF-8
is checked as bytes too: its strings have no escapes, so numpy finds them
by their quotes and verifies the lines that hold one flat object of
string keys and string, number or null values (``_json_block``).  Any
other nonblank line is flagged and decoded by json's scanner.  Any other
block, and every block from the first one where most lines are not such
objects, is read line by line with that scanner, one dict per line.

Timestamps have one grammar, decoded a column at a time: ``_stamp_column``
rewrites the shorter and longer accepted forms to the canonical
YYYY-MM-DDTHH:MM:SSZ, and ``_decode_stamps`` checks the digits,
separators and calendar of every value in that form together, with
numpy's datetime64 as the calendar.  The byte paths decode canonical
stamps where they lie and flag the others.  The table keeps epoch seconds.
"""

from __future__ import annotations

import csv
import io
import json
import json.scanner
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import IO, Callable, Generator, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .output import coded_column, csv_blocks, dumps_stable, write_text

CANONICAL_COLUMNS = ("user_id", "timestamp", "lat", "lon", "origin_country", "dataset_tag")

CHUNK_ROWS = 1 << 13  # JSONL lines or csv.reader rows validated together; bounds the per-chunk memory
BLOCK_BYTES = 1 << 19  # input bytes read at a time; a CSV block of plain lines is validated together

CODE = np.int32  # dtype of the string-field codes

# the canonical YYYY-MM-DDTHH:MM:SSZ form: digit and separator positions
_STAMP_WIDTH = 20
_STAMP_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_STAMP_SEPARATORS = np.array([4, 7, 10, 13, 16, 19])
_STAMP_SEPARATOR_CODES = np.frombuffer(b"--T::Z", dtype=np.uint8)


class IngestError(ValueError):
    """Malformed input stream, or first bad row in strict mode."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.reason = message


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as columns, one entry per event in input row order.

    String fields are stored as codes into tuples of distinct values,
    sorted with Python's string order: ``user`` indexes ``user_ids``,
    ``tag`` indexes ``tag_ids``, and ``origin`` indexes ``origin_ids``,
    with -1 where the event declares no origin.  ``seconds`` is the epoch
    second of each timestamp.  The columns are read-only.
    """

    user: np.ndarray
    user_ids: tuple[str, ...]
    seconds: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    origin: np.ndarray
    origin_ids: tuple[str, ...]
    tag: np.ndarray
    tag_ids: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.user.shape[0])

    @classmethod
    def from_columns(cls, users, seconds, lat, lon, origins, tags) -> "EventTable":
        """A table of events given as columns of equal length: user ids,
        epoch seconds, coordinates, declared origins (None for none) and
        dataset tags, the string columns as sequences of str."""
        columns = (
            list(users),
            np.asarray(seconds, dtype=np.int64),
            np.asarray(lat, dtype=np.float64),
            np.asarray(lon, dtype=np.float64),
            list(origins),
            list(tags),
        )
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
        accumulator = _TableAccumulator()
        accumulator.append(*columns)
        return accumulator.table()


def labels_of(ids: Sequence, codes: np.ndarray, missing=None) -> list:
    """``ids[c]`` for each code ``c``, with ``missing`` where ``c`` is -1."""
    return np.array((*ids, missing), dtype=object)[codes].tolist()


@dataclass
class IngestReport:
    """Accepted/rejected tallies for one parsed stream."""

    accepted: int = 0
    rejected: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str, count: int = 1) -> None:
        self.rejected += count
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + count

    def to_json(self) -> str:
        return dumps_stable(
            {
                "accepted": self.accepted,
                "rejected": self.rejected,
                "rejection_reasons": dict(self.rejection_reasons),
            }
        )


# ---------------------------------------------------------------------------
# timestamps
#
# numpy's datetime64 is the one calendar: the decoder takes each month's
# first day and length from it, and ``events_csv_blocks`` formats with it.

def _stamp_column(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of timestamp strings, and the mask of valid ones.

    The accepted grammar is exactly ``YYYY-MM-DD`` (midnight),
    ``YYYY-MM-DDTHH:MMZ`` and ``YYYY-MM-DDTHH:MM:SS[.f+]Z`` with ASCII
    digits; sub-second digits are truncated.  Anything else, offsets other
    than the ``Z`` suffix included, is invalid.  Values not 20 characters
    long are rewritten to the canonical form first (``_canonical_stamp``);
    then every ASCII value of 20 characters goes to ``_decode_stamps``.
    """
    n = len(values)
    fixed = np.fromiter(map(len, values), np.intp, n) == _STAMP_WIDTH
    other = np.flatnonzero(~fixed).tolist()
    if other:
        values = list(values)
        for i in other:
            values[i] = _canonical_stamp(values[i])
            fixed[i] = len(values[i]) == _STAMP_WIDTH
    fixed &= np.fromiter(map(str.isascii, values), bool, n)
    text = "".join(compress(values, fixed.tolist()))
    return _decode_stamps(fixed, np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _STAMP_WIDTH))


def _canonical_stamp(value: str) -> str:
    """A value in one of the shorter or longer accepted forms rewritten to
    YYYY-MM-DDTHH:MM:SSZ, any other value as it is; ``_decode_stamps``
    checks the digits, separators and calendar of the result."""
    if len(value) == 10:
        return value + "T00:00:00Z"
    if len(value) == 17 and value[16] == "Z":
        return value[:16] + ":00Z"
    fraction = value[20:-1]
    if len(value) >= 22 and value[19] == "." and value[-1] == "Z" and fraction.isascii() and fraction.isdigit():
        return value[:19] + "Z"
    return value


def _decode_stamps(fixed: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each value in the canonical YYYY-MM-DDTHH:MM:SSZ
    form, and the mask of values that are valid in that form.

    ``raw`` holds the 20 bytes of each value that ``fixed`` marks, one row
    per value.  Values in the other accepted forms come out unmasked, like
    invalid ones; ``_stamp_column`` rewrites them to this form first.
    """
    digits = raw[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    d = [digits[:, k] * 10 + digits[:, k + 1] for k in range(0, 14, 2)]
    year, month, day, hour, minute, second = d[0] * 100 + d[1], *d[2:]
    # the first day of the month and of the next, as epoch day numbers
    months = ((year - 1970) * 12 + month - 1)[:, None] + np.arange(2)
    first, after = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64).T
    good = (
        ((digits >= 0) & (digits <= 9)).all(axis=1)
        & (raw[:, _STAMP_SEPARATORS] == _STAMP_SEPARATOR_CODES).all(axis=1)
        & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= after - first)
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )
    seconds = np.zeros(len(fixed), dtype=np.int64)
    seconds[fixed] = (first + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    ok = np.zeros(len(fixed), dtype=bool)
    ok[fixed] = good
    return seconds, ok


# ---------------------------------------------------------------------------
# row validation

# rejection reasons by code, in the order the rules apply; 0 accepts a row
_REASONS = (
    None, "bad json", "missing field", "bad timestamp", "bad coordinate", "lat out of range",
    "lon out of range", "bad origin country",
)


def _decide(fields: list[list], bad_json: np.ndarray | bool = False) -> tuple[list, np.ndarray]:
    """The columns of rows given as six raw field value lists, in
    CANONICAL_COLUMNS order, and each row's rejection reason code.

    A row is rejected for the first rule it breaks: the line holds no JSON
    object (``bad_json``); the user, tag or timestamp is not a non-empty
    string; the timestamp is outside ``_stamp_column``'s grammar; a
    coordinate is not a number (booleans included); lat, then lon, is out
    of range; the declared origin is neither falsy nor a country code.
    The columns hold epoch seconds, float coordinates and the declared
    origins with falsy values as None.
    """
    users, stamps, lats, lons, origins, tags = fields
    stamp_text = _text_ok(stamps)
    if not stamp_text.all():
        stamps = [v if ok else "" for v, ok in zip(stamps, stamp_text.tolist())]
    seconds, stamp_ok = _stamp_column(stamps)
    lat, lon = _float_column(lats), _float_column(lons)
    declared, origin_ok = _origin_column(origins)
    reason = np.select(
        [
            bad_json,
            ~(_text_ok(users) & _text_ok(tags) & stamp_text),
            ~stamp_ok,
            np.isnan(lat) | np.isnan(lon),
            ~((lat >= -90.0) & (lat <= 90.0)),
            ~((lon >= -180.0) & (lon <= 180.0)),
            ~origin_ok,
        ],
        list(range(1, len(_REASONS))),
    )
    return [users, seconds, lat, lon, declared, tags], reason


def _text_ok(values: list) -> np.ndarray:
    """Mask of the values that are non-empty strings."""
    n = len(values)
    return np.fromiter(map(isinstance, values, repeat(str)), bool, n) & np.fromiter(map(bool, values), bool, n)


_NUMERIC = {float, int, str}  # the types float() may accept; bool is not among them


def _float_column(values: list) -> np.ndarray:
    """``float(v)`` of each value, NaN where the value is not a number:
    one of another type than _NUMERIC (booleans included), or one that
    ``float`` rejects."""
    n = len(values)
    if set(map(type, values)) <= _NUMERIC:
        try:
            return np.fromiter(map(float, values), np.float64, n)
        except (ValueError, OverflowError):
            pass
    return np.fromiter(map(_float_or_nan, values), np.float64, n)


def _float_or_nan(value) -> float:
    if type(value) in _NUMERIC:
        try:
            return float(value)
        except (ValueError, OverflowError):  # OverflowError: a huge JSON integer
            pass
    return math.nan


def _origin_column(values: list) -> tuple[list, np.ndarray]:
    """Declared origins with falsy values as None, and the mask of values
    that are falsy or a valid country code."""
    if not set(map(type, values)) <= {str, type(None)}:
        values = [v if type(v) is str else "?" if v else None for v in values]  # "?" is no code
    valid = {v: not v or (len(v) == 2 and v.isalpha() and v.isupper() and v.isascii()) for v in dict.fromkeys(values)}
    ok = np.fromiter(map(valid.__getitem__, values), bool, len(values))
    if "" in valid:
        values = [v or None for v in values]
    return values, ok


class _TableAccumulator:
    """Accumulates validated chunks.  A string column arrives either as a
    list, whose values get provisional codes, one per distinct value, or
    as a UTF-8 ``S`` array from the byte path, with ``b""`` for a missing
    value.  ``table`` codes both to sorted order."""

    def __init__(self) -> None:
        self.codes: tuple[dict, dict, dict] = ({}, {None: -1}, {})  # user, origin, tag
        self.strings: tuple[list, list, list] = ([], [], [])  # parts of the user, origin, tag columns
        self.numbers: tuple[list, list, list] = ([], [], [])  # seconds, lat, lon

    @staticmethod
    def _encode(values: list | np.ndarray, codes: dict) -> np.ndarray:
        if isinstance(values, np.ndarray):
            return values
        codes.update(zip(set(values).difference(codes), count(len(codes))))
        return np.fromiter(map(codes.__getitem__, values), CODE, len(values))

    def append(self, users, seconds, lat, lon, origins, tags) -> None:
        for parts, values, codes in zip(self.strings, (users, origins, tags), self.codes):
            parts.append(self._encode(values, codes))
        for parts, values in zip(self.numbers, (seconds, lat, lon)):
            parts.append(values)

    def table(self) -> EventTable:
        """The rows appended so far; each column's parts are released as
        soon as they are joined, which bounds the peak memory."""
        (user_ids, user), (origin_ids, origin), (tag_ids, tag) = map(_sorted_codes, self.strings, self.codes)
        seconds, lat, lon = map(_joined, self.numbers, (np.int64, np.float64, np.float64))
        for column in (user, seconds, lat, lon, origin, tag):
            column.setflags(write=False)
        return EventTable(user, user_ids, seconds, lat, lon, origin, origin_ids, tag, tag_ids)


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    """The parts as one array; empties ``parts``."""
    column = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
    parts.clear()
    return column


def _sorted_codes(parts: list[np.ndarray], codes: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """One string column's distinct values in sorted order, and each row's
    rank among them, -1 where the value is missing; empties ``parts``.

    ``S`` parts are coded here together; the other parts hold provisional
    codes from ``codes``.
    """
    layout = [(p.dtype.kind == "S", len(p)) for p in parts]
    text_parts = iter([p for p in parts if p.dtype.kind != "S"])
    byte_parts = [p for p in parts if p.dtype.kind == "S"]
    parts.clear()
    byte_ids, byte_codes = _byte_codes(byte_parts)
    text_ids = sorted(v for v in codes if v is not None)
    rank = np.full(max(codes.values(), default=-1) + 2, -1, dtype=CODE)  # last slot serves code -1
    if text_ids and byte_ids:
        ids = sorted({*text_ids, *byte_ids})
        position = dict(zip(ids, count()))
        rank[[codes[v] for v in text_ids]] = [position[v] for v in text_ids]
        byte_codes = np.array([position[v] for v in byte_ids] + [-1], dtype=CODE)[byte_codes]
    else:
        ids = text_ids or byte_ids
        rank[[codes[v] for v in text_ids]] = np.arange(len(text_ids))
    columns, start = [], 0
    for from_bytes, n in layout:
        if from_bytes:
            columns.append(byte_codes[start : start + n])
            start += n
        else:
            columns.append(rank[next(text_parts)])
    return tuple(ids), _joined(columns, CODE)


def _byte_codes(parts: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The distinct values of UTF-8 ``S`` arrays, decoded, in sorted order,
    and each value's rank among them, -1 for ``b""``; empties ``parts``.

    One stable argsort orders the values; UTF-8 byte order is the code
    point order that Python sorts strings by.  The values hold no NUL,
    which ``S`` arrays would drop from their ends.  Neighbours in that
    order are compared, and distinct values decoded, CHUNK_ROWS at a time,
    so no sorted copy of the values is held.
    """
    values = _joined(parts, "S1")
    order = np.argsort(values, kind="stable")
    first = np.ones(len(values), dtype=bool)
    for start in range(1, len(values), CHUNK_ROWS):
        run = values[order[start - 1 : start + CHUNK_ROWS]]
        first[start : start + CHUNK_ROWS] = run[1:] != run[:-1]
    distinct = values[order[first]]
    del values
    ids = [v.decode() for start in range(0, len(distinct), CHUNK_ROWS) for v in distinct[start : start + CHUNK_ROWS].tolist()]
    del distinct
    rank = np.cumsum(first, dtype=CODE)
    rank -= 1
    if ids and not ids[0]:
        ids.pop(0)
        rank -= 1
    codes = np.empty(len(rank), dtype=CODE)
    codes[order] = rank
    return ids, codes


# ---------------------------------------------------------------------------
# parsing

def _blocks(source) -> Iterator[bytes]:
    """The stream as UTF-8 bytes in blocks of about BLOCK_BYTES, each ending
    at a newline save perhaps the last.  A text stream is encoded one read
    at a time, a lone surrogate passed through for ``_lines`` to restore."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _blocks(fh)
        return
    read = source.read
    if isinstance(source, io.TextIOBase):
        read = lambda n: source.read(n).encode("utf-8", "surrogatepass")  # noqa: E731
    rest: list[bytes] = []
    while data := read(BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join((*rest, data[:cut]))
            rest.clear()
        rest.append(data[cut:])
    if any(rest):
        yield b"".join(rest)


def _lines(blocks: Iterable[bytes], text: bool) -> Iterator[str]:
    """The text lines of the blocks, split as a text stream's iteration
    splits them (``text``) or as a file opened with ``newline=""`` does.
    Before raising a UnicodeDecodeError it yields every whole line in front
    of the undecodable bytes."""
    errors, newline = ("surrogatepass", "\n") if text else ("strict", "")
    for data in blocks:
        try:
            decoded = data.decode("utf-8", errors)
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            yield from io.StringIO(head[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1].decode(), newline=newline)
            raise
        yield from io.StringIO(decoded, newline=newline)


# A chunk of input rows after the column checks: (line numbers; the users,
# epoch seconds, lat, lon, declared origins and tags, a string column being
# a list, or a UTF-8 ``S`` array on the byte paths; each row's rejection
# reason code, 0 for an accepted row).
Chunk = tuple[Sequence[int], list, np.ndarray]


def parse_events(
    source: str | Path | IO[bytes] | IO[str],
    format: str = "csv",
    strict: bool = False,
) -> tuple[EventTable, IngestReport]:
    """Parse a CSV or JSONL stream into a table of validated events.

    Returns the accepted events in input order plus an IngestReport whose
    accepted + rejected counts add up to the number of data rows seen.
    Non-strict mode counts and skips malformed rows; strict mode raises
    IngestError at the first one.  Blank lines are ignored.
    """
    chunks = {"csv": _csv_chunks, "jsonl": _jsonl_chunks}.get(format)
    if chunks is None:
        raise IngestError(f"unknown format: {format!r}")
    accumulator = _TableAccumulator()
    report = IngestReport()
    for chunk in chunks(_blocks(source), isinstance(source, io.TextIOBase)):
        _commit(chunk, strict, report, accumulator)
    return accumulator.table(), report


def _commit(chunk: Chunk, strict: bool, report: IngestReport, accumulator: _TableAccumulator) -> None:
    """Count a chunk's rejected rows by reason, or in strict mode raise at
    the first one in row order, then append the accepted rows to the
    table."""
    line_nos, columns, reason = chunk
    rejected = np.flatnonzero(reason)
    if len(rejected) and strict:
        raise IngestError(_REASONS[reason[rejected[0]]], line=int(line_nos[rejected[0]]))
    for code, n in zip(*np.unique(reason[rejected], return_counts=True)):
        report.reject(_REASONS[code], int(n))
    keep = reason == 0
    kept = keep.tolist()
    report.accepted += len(kept) - len(rejected)
    accumulator.append(
        *(column[keep] if isinstance(column, np.ndarray) else list(compress(column, kept)) for column in columns)
    )


def _second_look(data: bytes, start: np.ndarray, end: np.ndarray, columns: list, flagged: np.ndarray, read: Callable) -> tuple[list, np.ndarray]:
    """A byte block's columns and rejection reasons once the lines
    ``data[start:end]`` of its ``flagged`` rows are decoded and decided
    again, together, by the format's field reader ``read``."""
    rows = np.flatnonzero(flagged)
    reason = np.zeros(len(flagged), dtype=np.int64)
    if len(rows):
        lines = b"\n".join([data[s:e] for s, e in zip(start[rows].tolist(), end[rows].tolist())]).decode().split("\n")
        values, reason[rows] = read(lines)
        accepted = reason[rows] == 0
        columns = [_patched(column, rows[accepted], value, accepted) for column, value in zip(columns, values)]
    return columns, reason


def _patched(column: list | np.ndarray, at: np.ndarray, values: list | np.ndarray, accepted: np.ndarray) -> list | np.ndarray:
    """``column`` with rows ``at`` set to the ``accepted`` values; an ``S``
    column too narrow for one's UTF-8 bytes becomes a list of str (None
    for ``b""``)."""
    if isinstance(values, np.ndarray):
        column[at] = values[accepted]
        return column
    values = list(compress(values, accepted.tolist()))
    if isinstance(column, np.ndarray):
        raw = [v.encode() if v else b"" for v in values]
        if max(map(len, raw), default=0) <= column.itemsize:
            column[at] = raw
            return column
        column = [v.decode() or None for v in column.tolist()]
    for i, value in zip(at.tolist(), values):
        column[i] = value
    return column


def _list_chunks(items: Iterator, line_no: int, blank: Callable, read: Callable) -> Generator[Chunk, None, int]:
    """Chunks of up to CHUNK_ROWS items, ``csv.reader`` rows or JSONL
    lines, numbered from ``line_no + 1``: the items that are not
    ``blank``, decided together by the field reader ``read``; returns the
    number of the last item.  An error reading the items is raised once
    the items before it are committed, so a bad row still fails before an
    error later in the input."""
    while True:
        block, error = [], None
        try:
            block.extend(islice(items, CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            error = exc
        nonblank = [k for k, item in enumerate(block) if not blank(item)]
        if nonblank:
            yield (np.array(nonblank) + line_no + 1, *read([block[k] for k in nonblank]))
        line_no += len(block)
        if error is not None:
            raise error
        if len(block) < CHUNK_ROWS:
            return line_no


_UPPER = (np.arange(256) >= ord("A")) & (np.arange(256) <= ord("Z"))  # by byte value

# the widest user, tag or coordinate field that a chunk keeps as fixed-width
# bytes; a column with a wider field is read as Python strings, so a chunk's
# memory stays proportional to its text
_BYTE_WIDTH = 64


def _padded(data: bytes) -> np.ndarray:
    """``data`` as bytes followed by _BYTE_WIDTH zero bytes, so that every
    field read as bytes fits a window of the buffer that starts at it."""
    return np.frombuffer(data + bytes(_BYTE_WIDTH), dtype=np.uint8)


def _plain_chunk(data: bytes, first_line: int, columns: list[int], commas: int) -> Chunk | None:
    """Check a block of CSV lines as one UTF-8 byte buffer, or None when it
    holds a quote, a carriage return, a NUL, a line longer than csv's field
    size limit or with other than ``commas`` commas, or is not UTF-8.

    Such lines split on commas exactly as ``csv.reader`` splits them.  A
    row is flagged when a column check fails, or when a field's first or
    last character may be whitespace that ``str.strip`` removes: a byte
    up to the space (ASCII whitespace is among them), or any non-ASCII
    character.  The flagged lines are then decoded, split and read
    together by ``_row_fields``.
    """
    if b'"' in data or b"\r" in data or b"\0" in data or not _is_utf8(data):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    padded = _padded(data)
    buf = padded[: len(data)]
    n, width = data.count(b"\n"), commas + 1
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    # n newlines in all, so with one at the end of every width-th field,
    # every line has ``commas`` commas
    if len(ends) != n * width or (buf[ends[commas::width]] != ord("\n")).any():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(n, width)
    if (ends[commas::width] - starts[:, 0] >= csv.field_size_limit()).any():
        return None
    start = starts[:, columns]
    end = ends.reshape(n, width)[:, columns]
    length = end - start
    first, last = buf[start], buf[end - 1]
    flagged = ((length > 0) & ((first <= ord(" ")) | (last <= ord(" ")) | ((first | last) >= 0x80))).any(axis=1)
    block = _byte_columns(data, padded, start, length, flagged)
    read = lambda lines: _row_fields([line.split(",") for line in lines], columns)  # noqa: E731
    return range(first_line, first_line + n), *_second_look(data, starts[:, 0], ends[commas::width], block, flagged, read)


def _byte_columns(data: bytes, padded: np.ndarray, start: np.ndarray, length: np.ndarray, flagged: np.ndarray) -> list:
    """The six columns of rows whose fields, in CANONICAL_COLUMNS order,
    are ``data[start:start + length]`` (``padded`` is ``_padded(data)``).

    Flags in ``flagged`` each row with an empty user or tag, a timestamp
    not in the canonical form, a coordinate that is empty, not a number or
    out of range, or an origin that is neither empty nor two capital
    letters.  User and tag columns are ``_field_bytes``; origins are
    ``S2``, ``b""`` where empty (``S1`` when all are).
    """
    flagged |= (length[:, 0] == 0) | (length[:, 5] == 0)
    fixed = length[:, 1] == _STAMP_WIDTH
    seconds, ok = _decode_stamps(fixed, sliding_window_view(padded, _STAMP_WIDTH)[start[fixed, 1]])
    flagged |= ~ok
    lat, lon = (_byte_floats(data, padded, start[:, k], length[:, k]) for k in (2, 3))
    flagged |= ~((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0))  # NaN included
    pair = np.stack((padded[start[:, 4]], padded[start[:, 4] + 1]), axis=1)
    two = length[:, 4] == 2
    flagged |= ~((length[:, 4] == 0) | (two & _UPPER[pair].all(axis=1)))
    pair[~two] = 0
    users, tags = (_field_bytes(data, padded, start[:, k], length[:, k]) for k in (0, 5))
    origins = pair.view("S2").ravel() if length[:, 4].any() else np.zeros(len(start), dtype="S1")
    return [users, seconds, lat, lon, origins, tags]


def _field_bytes(data: bytes, padded: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray | list[str]:
    """The fields ``data[start:start + length]`` as a fixed-width ``S``
    array, or as a list of str when one is wider than _BYTE_WIDTH bytes;
    ``padded`` is ``_padded(data)``."""
    width = int(length.max(initial=0))
    if width > _BYTE_WIDTH:
        return [data[s:e].decode() for s, e in zip(start.tolist(), (start + length).tolist())]
    width = max(width, 1)
    chars = sliding_window_view(padded, width)[start]
    chars *= np.less.outer(np.arange(width), length).T
    return chars.view(f"S{width}").ravel()


def _byte_floats(data: bytes, padded: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``float`` of each field ``data[start:start + length]``, NaN where
    the field is empty or ``float`` raises.

    numpy's cast parses each value as Python's ``float`` does, and raises
    ValueError for the whole array at the first value it cannot parse,
    non-ASCII ones included; the values are then parsed one by one.
    """
    floats = np.full(len(start), math.nan)
    some = length > 0
    values = _field_bytes(data, padded, start[some], length[some])
    if isinstance(values, list):
        floats[some] = _float_column(values)
        return floats
    try:
        floats[some] = values.astype(np.float64)
    except ValueError:
        floats[some] = np.fromiter((_float_or_nan(v.decode()) for v in values.tolist()), np.float64, len(values))
    return floats


def _is_utf8(data: bytes) -> bool:
    try:
        data.isascii() or data.decode()
    except UnicodeDecodeError:
        return False
    return True


def _csv_chunks(blocks: Iterator[bytes], text: bool) -> Iterator[Chunk]:
    """Chunks of a CSV stream; line numbers count rows, as ``csv.reader``
    yields them.

    Blocks whose lines ``_plain_chunk`` takes, after a header line without
    quotes or carriage returns, are checked as bytes.  From the first other
    block on, ``csv.reader`` reads the rest, so that a quoted field may span
    lines.
    """
    line_no, columns = 0, None
    for data in blocks:
        if columns is None:
            start = len(data) - len(data.lstrip(b"\n"))  # blank lines before the header
            end = data.find(b"\n", start) + 1 or len(data)
            head = data[start:end].rstrip(b"\n")
            if not head:
                line_no += start
                continue
            if b'"' in head or b"\r" in head or len(head) >= csv.field_size_limit() or not _is_utf8(head):
                break
            line_no += start + 1
            columns, commas = _header_columns(head.decode().split(","), line_no)
            data = data[end:]
            if not data:
                continue
        chunk = _plain_chunk(data, line_no + 1, columns, commas)
        if chunk is None:
            break
        yield chunk
        line_no += len(chunk[0])
    else:
        return
    reader = csv.reader(_lines(chain((data,), blocks), text))
    if columns is None:
        for header in reader:
            line_no += 1
            if header:
                break
        else:
            return
        columns, _ = _header_columns(header, line_no)
    yield from _list_chunks(reader, line_no, operator.not_, lambda rows: _row_fields(rows, columns))


def _header_columns(header: list[str], line_no: int) -> tuple[list[int], int]:
    """The positions of CANONICAL_COLUMNS in a header row, and its number
    of commas."""
    names = [c.strip() for c in header]
    missing = [c for c in CANONICAL_COLUMNS if c not in names]
    if missing:
        raise IngestError(f"header is missing column(s): {', '.join(missing)}", line=line_no)
    return [names.index(c) for c in CANONICAL_COLUMNS], len(header) - 1


def _row_fields(rows: list[list[str]], columns: list[int]) -> tuple[list, np.ndarray]:
    """``_decide`` of the stripped fields of split rows at the positions
    ``columns``; a row too short to hold them all has only empty fields,
    so it is missing a field."""
    width = max(columns) + 1
    rows = [row if len(row) >= width else [""] * width for row in rows]
    return _decide([list(map(str.strip, map(operator.itemgetter(c), rows))) for c in columns])


# stands in for a line that is not a JSON object, and marks it; its numbers
# keep the coordinate columns on their fast path
_JSON_PLACEHOLDER = {"lat": 0.0, "lon": 0.0}

# json.loads of a stripped line, minus its per-call Python overhead: the
# decoder's own scanner, with "extra data" after the value checked here
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def _json_object(text: str) -> dict | None:
    """The object a stripped line holds, or None when it holds another
    value or no JSON at all."""
    try:
        obj, end = _scan_json(text, 0)
    except (StopIteration, ValueError, RecursionError):  # ValueError: also an integer past int's digit limit
        return None
    return obj if end == len(text) and isinstance(obj, dict) else None


def _json_fields(lines: list[str]) -> tuple[list, np.ndarray]:
    """``_decide`` of the fields of JSONL lines, ``dict.get`` of the object
    each line holds; a line that holds none is bad json."""
    objects = [_JSON_PLACEHOLDER if obj is None else obj for obj in map(_json_object, map(str.strip, lines))]
    bad = np.fromiter(map(operator.is_, objects, repeat(_JSON_PLACEHOLDER)), bool, len(objects))
    return _decide([list(map(dict.get, objects, repeat(c))) for c in CANONICAL_COLUMNS], bad)


def _jsonl_chunks(blocks: Iterator[bytes], text: bool) -> Iterator[Chunk]:
    """Chunks of a JSONL stream: a block holding no backslash, carriage
    return or NUL, and only UTF-8, is checked as bytes, and any other block
    is read line by line, as is every block after one that ``_json_block``
    declines."""
    line_no, checked = 0, True
    for data in blocks:
        plain = checked and b"\\" not in data and b"\r" not in data and b"\0" not in data and _is_utf8(data)
        chunk = _json_block(data, line_no + 1) if plain else None
        if chunk is None:
            checked &= not plain
            line_no = yield from _list_chunks(_lines((data,), text), line_no, str.isspace, _json_fields)
        else:
            yield chunk
            line_no += data.count(b"\n") + (not data.endswith(b"\n"))


# byte classes of the JSONL byte path, 0 for the other bytes, and the two
# kinds of closing quote that the tokens outside strings tell apart
_QUOTE, _OPEN, _CLOSE, _COLON, _COMMA, _NEWLINE, _SPACE, _TAB, _CONTROL, _KEY_END, _VALUE_END = range(1, 12)
_JSON_CLASS = np.zeros(256, dtype=np.uint8)
_JSON_CLASS[:32] = _CONTROL
_JSON_CLASS[np.frombuffer(b'"{}:,\n \t', dtype=np.uint8)] = np.arange(_QUOTE, _CONTROL)

# by pair of neighbouring tokens on a line holding one flat object: 1 where
# only spaces or tabs may lie between them, 2 where one number must (after
# a colon), 0 where the pair may not occur; indexed by 12 * first + second
_PAIRS = np.zeros(144, dtype=np.uint8)
_PAIRS[
    [
        12 * _NEWLINE + _OPEN, 12 * _NEWLINE + _NEWLINE, 12 * _OPEN + _QUOTE, 12 * _OPEN + _CLOSE,
        12 * _QUOTE + _KEY_END, 12 * _QUOTE + _VALUE_END, 12 * _KEY_END + _COLON, 12 * _COLON + _QUOTE,
        12 * _VALUE_END + _COMMA, 12 * _VALUE_END + _CLOSE, 12 * _COMMA + _QUOTE, 12 * _CLOSE + _NEWLINE,
    ]
] = 1
_PAIRS[[12 * _COLON + _COMMA, 12 * _COLON + _CLOSE]] = 2

# the JSON number grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?,
# as an automaton over byte classes: 0 for the zero bytes past a token's
# end, then "0", "1"-"9", "-", "+", ".", "e" or "E", and 7 for any other
# byte; state 9 is dead, and the table is indexed by 8 * state + class
_NUMBER_CLASS = np.full(256, 7, dtype=np.uint8)
_NUMBER_CLASS[np.frombuffer(b"\x000123456789-+.eE", dtype=np.uint8)] = [0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 5, 6, 6]
_NUMBER_STEP = np.array(
    [
        [0, 2, 3, 1, 9, 9, 9, 9],  # start
        [1, 2, 3, 9, 9, 9, 9, 9],  # after the minus sign
        [2, 9, 9, 9, 9, 4, 6, 9],  # after a leading zero
        [3, 3, 3, 9, 9, 4, 6, 9],  # in the integer digits
        [4, 5, 5, 9, 9, 9, 9, 9],  # after the point
        [5, 5, 5, 9, 9, 9, 6, 9],  # in the fraction digits
        [6, 8, 8, 7, 7, 9, 9, 9],  # after the exponent mark
        [7, 8, 8, 9, 9, 9, 9, 9],  # after the exponent sign
        [8, 8, 8, 9, 9, 9, 9, 9],  # in the exponent digits
        [9, 9, 9, 9, 9, 9, 9, 9],
    ],
    dtype=np.uint8,
).ravel()
_NUMBER_DONE = np.zeros(10, dtype=bool)
_NUMBER_DONE[[2, 3, 5, 8]] = True  # the states a number may end in

# keys are compared as two little-endian 8-byte words, zero past their end
_KEY_LOW, _KEY_HIGH = np.array([c.encode() for c in CANONICAL_COLUMNS], dtype="S16").view("<u8").reshape(-1, 2).T
_KEY_ORDER = np.argsort(_KEY_LOW)  # the first words differ
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(8)] + [(1 << 64) - 1], dtype=np.uint64)
_NULL = int.from_bytes(b"null", "little")


# a block where more than half the lines, and more than this many, are not
# the flat objects that _json_block verifies is declined: decoding each such
# line on its own costs about twice what reading it as a dict does
_DECLINE_LINES = 64


def _json_block(data: bytes, first_line: int) -> Chunk | None:
    """Check a block of UTF-8 JSONL lines holding no backslash, carriage
    return or NUL as one byte buffer, or None when it is declined (see
    _DECLINE_LINES).

    Such a block's strings are their bytes between quotes, and its lines
    end at newlines alone.  numpy finds the quotes and, outside strings,
    the bytes ``{ } : ,``, spaces, tabs and newlines, and verifies that a
    line holds one flat object: string keys, and values that are strings
    holding no control byte, JSON numbers of at most _BYTE_WIDTH bytes or
    null, with spaces and tabs between tokens, and no CANONICAL_COLUMNS key
    twice.  Any other nonblank line is flagged, and so is a row whose user,
    timestamp, origin or tag is a number, or whose coordinate is a negative
    zero (json reads the integer -0 as +0.0); the flagged lines are then
    decoded with json's scanner and decided together.
    """
    # a newline put before the block starts the first line like the others
    data = b"\n" + data + b"\n"[data.endswith(b"\n") :]
    padded = _padded(data)
    buf = padded[: len(data)]
    where = np.flatnonzero(
        (buf <= ord(" ")) | (buf == ord('"')) | (buf == ord(",")) | (buf == ord(":")) | (buf == ord("{")) | (buf == ord("}"))
    )
    kind = np.take(_JSON_CLASS, buf[where])
    newline = kind == _NEWLINE
    ends = np.compress(newline, where)
    starts, ends = ends[:-1] + 1, ends[1:]
    n = len(ends)
    bad = np.zeros(n, dtype=bool)  # lines the checks cannot verify

    # quotes pair up within a line; a line with an odd number of them is
    # bad, and its newline counts as a quote, so the next line starts even
    quote = kind == _QUOTE
    count = np.cumsum(quote, dtype=np.int32)
    odd = np.diff(np.compress(newline, count)) & 1 == 1
    if odd.any():
        bad |= odd
        quote[np.searchsorted(where, ends[odd])] = True
        count = np.cumsum(quote, dtype=np.int32)
    after_open = (count - quote) & 1 == 1  # inside a string, or its closing quote
    outer = quote | ~after_open
    if (kind >= _TAB).any():  # a tab between tokens is a space; any other control byte is bad
        bad[np.searchsorted(ends, where[(kind == _CONTROL) | (~outer & (kind == _TAB))])] = True
        kind[kind == _TAB] = _SPACE

    # the tokens outside strings; a number fills the gap after a colon
    kind += (after_open & (kind == _QUOTE)) * np.uint8(_VALUE_END - _QUOTE)  # closing quotes
    t, pos = np.compress(outer, kind), np.compress(outer, where)
    gap = np.diff(pos) - 1
    number_pair = np.flatnonzero((gap > 0) & (t[:-1] != _QUOTE))  # bytes outside strings
    number_start, number_length = pos[number_pair] + 1, gap[number_pair]
    solid = t != _SPACE
    if not solid.all():
        number_pair = (np.cumsum(solid, dtype=np.int32) - 1)[number_pair]
        t, pos = np.compress(solid, t), np.compress(solid, pos)
    key_end = t == _VALUE_END
    key_end[2:] &= (t[:-2] == _OPEN) | (t[:-2] == _COMMA)  # its string opens after { or ,
    t[key_end] = _KEY_END

    rule = np.take(_PAIRS, 12 * t[:-1] + t[1:])
    ok = rule == 1
    short = number_length <= _BYTE_WIDTH
    null = (number_length == 4) & (_words(padded)[number_start] & 0xFFFFFFFF == _NULL)
    ok[number_pair[short]] = _json_numbers(padded, number_start[short], number_length[short]) | null[short]
    ok[number_pair] &= rule[number_pair] == 2
    ok[number_pair[1:][np.diff(number_pair) == 0]] = False  # two numbers in one gap
    bad[np.searchsorted(ends, pos[1:][~ok])] = True
    if np.count_nonzero(bad) > max(n // 2, _DECLINE_LINES):
        return None
    blank = np.zeros(n, dtype=bool)
    blank[np.searchsorted(ends, pos[1:][(t[:-1] == _NEWLINE) & (t[1:] == _NEWLINE)])] = True

    # the values of canonical keys: a string after the colon, or a number or
    # null, which reads as an absent key
    key = np.flatnonzero(key_end)
    column_of = np.full(len(t), -1, dtype=np.int8)
    column_of[key] = _canonical_keys(padded, pos[key - 1] + 1, pos[key] - pos[key - 1] - 1)
    string = np.flatnonzero((t[:-1] == _COLON) & (t[1:] == _QUOTE)) + 1
    value_key = np.concatenate((string - 2, number_pair - 1))
    value_start = np.concatenate((pos[string] + 1, number_start))
    value_end = np.concatenate((pos[string + 1], np.where(null, number_start, number_start + number_length)))
    column = column_of[value_key]
    line = np.searchsorted(ends, pos[value_key])
    known = (column >= 0) & ~bad[line]
    cell = np.compress(known, line * 6 + column)
    bad[np.flatnonzero(np.bincount(cell, minlength=6 * n) > 1) // 6] = True  # a canonical key twice
    start = np.zeros(6 * n, dtype=np.int64)
    start[cell] = np.compress(known, value_start)
    length = np.zeros(6 * n, dtype=np.int64)
    length[cell] = np.compress(known, value_end) - start[cell]
    number = np.zeros(6 * n, dtype=bool)
    number[cell] = np.compress(known, np.concatenate((np.zeros(len(string), dtype=bool), ~null)))
    start, length, number = start.reshape(n, 6), length.reshape(n, 6), number.reshape(n, 6)
    length[bad] = 0

    for i in np.flatnonzero(bad).tolist():
        blank[i] = not data[starts[i] : ends[i]].decode().strip()
    rows = np.flatnonzero(~blank)
    flagged = bad[rows] | number[rows][:, [0, 1, 4, 5]].any(axis=1)
    columns = _byte_columns(data, padded, start[rows], length[rows], flagged)
    for coordinate in columns[2:4]:
        flagged |= (coordinate == 0) & np.signbit(coordinate)
    return (rows + first_line).tolist(), *_second_look(data, starts[rows], ends[rows], columns, flagged, _json_fields)


def _words(padded: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word starting at each byte of ``padded``."""
    return np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))


def _canonical_keys(padded: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The CANONICAL_COLUMNS index of each key ``padded[start:start +
    length]``, -1 for any other key."""
    words = _words(padded)
    low = words[start] & _LOW_BYTES[np.minimum(length, 8)]
    high = words[start + 8] & _LOW_BYTES[np.clip(length - 8, 0, 8)]
    k = np.take(_KEY_ORDER, np.searchsorted(_KEY_LOW[_KEY_ORDER], low), mode="clip")
    return np.where((np.take(_KEY_LOW, k) == low) & (np.take(_KEY_HIGH, k) == high), k, -1)


def _json_numbers(padded: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Mask of the tokens ``padded[start:start + length]``, none wider than
    _BYTE_WIDTH bytes, that are JSON numbers."""
    width = int(length.max(initial=1))
    chars = sliding_window_view(padded, width)[start]
    chars *= np.less.outer(np.arange(width), length).T
    state = np.zeros(len(start), dtype=np.uint8)
    for classes in np.ascontiguousarray(np.take(_NUMBER_CLASS, chars).T):
        state = np.take(_NUMBER_STEP, 8 * state + classes)
    return np.take(_NUMBER_DONE, state)


# ---------------------------------------------------------------------------
# writing

def events_csv_blocks(table: EventTable) -> Iterator[str]:
    """The canonical CSV text of the events (round-trip safe), in row blocks."""
    # repr keeps the shortest exact representation: re-parsing must
    # reproduce the events bit-for-bit
    return csv_blocks(
        CANONICAL_COLUMNS,
        len(table),
        (
            coded_column(table.user_ids, table.user),
            lambda start, stop: np.datetime_as_string(table.seconds[start:stop].view("datetime64[s]"), timezone="UTC").tolist(),
            lambda start, stop: map(repr, table.lat[start:stop].tolist()),
            lambda start, stop: map(repr, table.lon[start:stop].tolist()),
            coded_column(table.origin_ids, table.origin),
            coded_column(table.tag_ids, table.tag),
        ),
    )


def write_events_csv(table: EventTable, path: str | Path) -> None:
    write_text(path, events_csv_blocks(table))
