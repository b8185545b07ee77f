"""Unified event schema and ingestion for geotagged activity records.

One record format covers all three activity styles (photo, tweet,
transaction): a user token, a UTC timestamp, a WGS84 point, an optional
declared origin country, and a dataset tag.  Files arrive as CSV (header
required) or JSONL with the same field names; malformed rows are counted
and skipped unless strict mode is on.

Parsed events live in one EventTable of numpy columns.  Ingest reads the
input, a text stream encoded one read at a time, as raw byte blocks of
about BLOCK_BYTES, each cut at its last newline, and validates it in
bounded chunks column by column.  The format, not the source, sets the line
rule: a CSV line ends at LF, CR or CRLF, as csv reads a file opened with
``newline=""``, and a JSONL line at LF alone, as JSON Lines has it.  Bytes
that are not UTF-8, such as a text stream's lone surrogate, fail where they
lie.  ``_decide`` holds the row rules: it gives every row of a chunk its
rejection reason, or none, from columns of raw field values.  Each format
has one field reader that gives those values, ``_row_fields`` for split CSV
rows and ``_json_fields`` for JSONL lines; it reads every row of a chunk on
the list paths below, and on the byte paths only the rows that the byte
checks flag, re-read in one batch per block.

A CSV block holding no quote, carriage return or NUL, no line longer
than csv's field size limit, exactly the header's number of commas on
every line and only UTF-8 is checked as one byte buffer, with no Python
string per line: numpy finds the field bounds, plain decimal coordinates
are decoded from 8-byte words (``_decimals``), and user, origin and tag
fields stay fixed-width ``S`` arrays, copied into one growing buffer per
column that the table codes where it lies: with one sort, or with one
comparison when the column holds one value.  That suits short ids and
tags; a block's column with a field wider than 64 bytes is read as
Python strings instead, so memory stays proportional to the text.  A
row with a field that may carry padding ``str.strip`` removes is flagged
like any other, and only a flagged row's line is decoded.  From the
first other block on, ``csv.reader`` reads the rest of the stream,
decoded block by block; a field past its size limit is an IngestError.
Either way the accepted rows, rejection reasons and line numbers are the
same, and an error reading the rows is raised only after the rows before
it have been counted, or have failed strict mode.

A JSONL block holding no backslash and only UTF-8 is checked as bytes
too: its strings have no escapes, so numpy finds them by their quotes,
and checks its lines against a few layouts, the bytes around the strings
of a flat object, learned from the block's own lines (``_json_block``).
Any other nonblank line, one with a NUL or of a layout past the block's
first _LAYOUTS say, is flagged and decoded by json's scanner.  Any other
block, and every block from the first one where most lines match no
layout, is read line by line with that scanner, one dict per line.

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
import re
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat
from pathlib import Path
from typing import IO, Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .output import PAD, coded_column, csv_blocks, dumps_stable, padded_rows, write_text

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


class Ids(Sequence[str]):
    """Read-only strings held as one UTF-8 byte string and the offsets of
    each value's bytes in it (Arrow's variable-size binary layout), decoded
    on access; built from str or UTF-8 bytes values, or from an ``S`` array
    whose values hold no NUL.  A slice gives a tuple of str; iteration
    decodes CHUNK_ROWS values at a time; it equals an Ids or tuple of the
    same strings.  The bytes are UTF-8, so a writer copies them as they lie."""

    def __init__(self, values: Iterable[str] | np.ndarray = ()):
        if isinstance(values, np.ndarray):
            self.data, lengths = values.tobytes().replace(b"\0", b""), np.char.str_len(values)
        else:
            raw = [v if isinstance(v, bytes) else v.encode() for v in values]
            self.data, lengths = b"".join(raw), list(map(len, raw))
        self.offsets = np.zeros(len(lengths) + 1, dtype=np.int32 if len(self.data) < 2**31 else np.int64)
        np.cumsum(lengths, dtype=self.offsets.dtype, out=self.offsets[1:])
        self.offsets.setflags(write=False)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        rows = range(len(self))[i]  # IndexError past either end
        if isinstance(rows, int):
            return self.data[self.offsets[rows] : self.offsets[rows + 1]].decode()
        i = np.arange(rows.start, rows.stop, rows.step)
        return tuple(self.data[a:b].decode() for a, b in zip(self.offsets[i].tolist(), self.offsets[i + 1].tolist()))

    def __iter__(self) -> Iterator[str]:
        for start in range(0, len(self), CHUNK_ROWS):
            yield from self[start : start + CHUNK_ROWS]

    def __eq__(self, other) -> bool:
        if isinstance(other, Ids):  # UTF-8 is one-to-one, so equal bytes and offsets are equal strings
            return other is self or (self.data == other.data and np.array_equal(self.offsets, other.offsets))
        if not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as columns, one entry per event in input row order.

    String fields are codes into Ids of distinct values, sorted with
    Python's string order: ``user`` indexes ``user_ids``, ``tag`` indexes
    ``tag_ids``, and ``origin`` indexes ``origin_ids``, with -1 where the
    event declares no origin.  ``seconds`` is the epoch second of each
    timestamp.  The columns are read-only; one of one value has stride 0.
    """

    user: np.ndarray
    user_ids: Sequence[str]
    seconds: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    origin: np.ndarray
    origin_ids: Sequence[str]
    tag: np.ndarray
    tag_ids: Sequence[str]

    def __post_init__(self) -> None:
        for column in (self.user, self.seconds, self.lat, self.lon, self.origin, self.tag):
            column.setflags(write=False)

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
        return dumps_stable(asdict(self))


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
    months = (year - 1970) * 12 + month - 1
    good = (
        ((digits >= 0) & (digits <= 9)).all(axis=1)
        & (raw[:, _STAMP_SEPARATORS] == _STAMP_SEPARATOR_CODES).all(axis=1)
        & (year >= 1) & (month >= 1) & (month <= 12)
    )
    # the first day of the month and of the next, as epoch day numbers, from
    # one cast over the months the good rows span (at most 9999 years)
    known = months[good]
    low, high = (int(known.min()), int(known.max())) if known.shape[0] else (0, 0)
    days = np.arange(low, high + 2).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    at = np.where(good, months - low, 0)
    first, after = days[at], days[at + 1]
    good &= (day >= 1) & (day <= after - first) & (hour <= 23) & (minute <= 59) & (second <= 59)
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


_FIRST_CAPACITY = 1 << 16  # rows of each column's first buffer


class _TableAccumulator:
    """Accumulates validated chunks in one buffer per column.

    Each buffer is filled in place: from _FIRST_CAPACITY rows on it grows
    by doubling, and ``table`` trims it once.  Joining per-chunk parts
    instead would leave the parts' freed memory as holes under the joined
    columns, which the allocator keeps resident.

    A string column arrives either as a UTF-8 ``S`` array from the byte
    path, with ``b""`` for a missing value, or as a list.  ``S`` values go
    into the column's ``S`` buffer, widened to the widest value so far.  A
    list's values get provisional codes, one per distinct value, kept
    beside the buffer with the list's first row; its rows stay ``b""`` in
    the buffer.  ``table`` codes both to sorted order where they lie, a
    buffer of one value without a sort."""

    def __init__(self) -> None:
        self.codes: tuple[dict, dict, dict] = ({}, {None: -1}, {})  # user, origin, tag
        self.strings = [np.empty(0, "S1") for _ in range(3)]  # user, origin, tag
        self.texts: tuple[list, list, list] = ([], [], [])  # (first row, provisional codes) of each list
        self.numbers = (np.empty(0, np.int64), np.empty(0, np.float64), np.empty(0, np.float64))  # seconds, lat, lon
        self.rows = 0  # the filled length of each buffer

    def append(self, users, seconds, lat, lon, origins, tags) -> None:
        rows = self.rows + len(seconds)
        capacity = len(self.numbers[0])
        if rows > capacity:
            capacity = max(capacity, _FIRST_CAPACITY)
            while capacity < rows:
                capacity *= 2
            for column in (*self.numbers, *self.strings):  # realloc: no second copy; new rows are zeros, b""
                column.resize(capacity, refcheck=False)
        for column, values in zip(self.numbers, (seconds, lat, lon)):
            column[self.rows : rows] = values
        for k, (values, codes) in enumerate(zip((users, origins, tags), self.codes)):
            if isinstance(values, np.ndarray):
                if values.itemsize > self.strings[k].itemsize:
                    self.strings[k] = self.strings[k].astype(values.dtype)
                self.strings[k][self.rows : rows] = values
            else:
                codes.update(zip(set(values).difference(codes), count(len(codes))))
                self.texts[k].append((self.rows, np.fromiter(map(codes.__getitem__, values), CODE, len(values))))
        self.rows = rows

    def table(self) -> EventTable:
        """The rows appended so far; each string buffer is released as soon
        as it is coded, which bounds the peak memory."""
        for column in (*self.numbers, *self.strings):
            column.resize(self.rows, refcheck=False)
        strings, self.strings = self.strings, []
        (user_ids, user), (origin_ids, origin), (tag_ids, tag) = (
            _sorted_codes(strings, texts, codes) for texts, codes in zip(self.texts, self.codes)
        )
        seconds, lat, lon = self.numbers
        return EventTable(user, user_ids, seconds, lat, lon, origin, origin_ids, tag, tag_ids)


def _sorted_codes(strings: list[np.ndarray], texts: list, codes: dict) -> tuple[Ids, np.ndarray]:
    """One string column's distinct values in sorted order, and each row's
    rank among them, -1 where the value is missing.

    The column's one ``S`` buffer, the first of ``strings``, is coded where
    it lies by ``_byte_codes``, with no sort when it holds one value; then
    the rows of each list in ``texts`` get the ranks of their provisional
    codes from ``codes``.  Takes the buffer off ``strings`` and empties
    ``texts``.
    """
    byte_ids, column = _byte_codes(strings)
    text_ids = sorted(v for v in codes if v is not None)
    rank = np.full(max(codes.values(), default=-1) + 2, -1, dtype=CODE)  # last slot serves code -1
    if text_ids and len(byte_ids):
        ids = sorted({*(v.encode() for v in text_ids), *byte_ids.tolist()})
        position = dict(zip(ids, count()))
        rank[[codes[v] for v in text_ids]] = [position[v.encode()] for v in text_ids]
        column = np.array([position[v] for v in byte_ids.tolist()] + [-1], dtype=CODE)[column]
    else:
        ids = text_ids or byte_ids
        rank[[codes[v] for v in text_ids]] = np.arange(len(text_ids))
    column = column.copy() if texts and not column.flags.writeable else column  # a stride-0 column
    for row, part in texts:
        column[row : row + len(part)] = rank[part]
    texts.clear()
    return Ids(ids), column


def _byte_codes(strings: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the UTF-8 ``S`` array that is the first of
    ``strings`` in sorted order, ``b""`` left out, and each value's rank
    among them, -1 for ``b""``; takes the array off ``strings``.

    A column of one value, or of none, is coded from one comparison with its
    first value, as a stride-0 view.  Otherwise one stable argsort orders
    the values; UTF-8 byte order is the code point order that Python sorts
    strings by.  The values hold no NUL, which ``S`` arrays would drop from
    their ends.  Neighbours in that order are compared CHUNK_ROWS at a time,
    so no sorted copy of the values is held.
    """
    values = strings.pop(0)
    if not (values != values[:1]).any():
        ids = values[:1][values[:1] != b""]
        return ids, np.broadcast_to(CODE(len(ids) - 1), len(values))
    order = np.argsort(values, kind="stable")
    first = np.ones(len(values), dtype=bool)
    for start in range(1, len(values), CHUNK_ROWS):
        run = values[order[start - 1 : start + CHUNK_ROWS]]
        first[start : start + CHUNK_ROWS] = run[1:] != run[:-1]
    ids = values[order[first]]
    del values
    rank = np.cumsum(first, dtype=CODE)
    rank -= 1
    if ids[0] == b"":
        ids = ids[1:]
        rank -= 1
    codes = np.empty(len(rank), dtype=CODE)
    codes[order] = rank
    return ids, codes


# ---------------------------------------------------------------------------
# parsing

def _blocks(source) -> Iterator[bytes]:
    """The stream as UTF-8 bytes in blocks of about BLOCK_BYTES, each ending
    at a newline save perhaps the last.  A text stream is encoded one read
    at a time, a lone surrogate passed through as bytes that are not UTF-8,
    so it fails where it lies, like undecodable bytes of a file."""
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


def _lines(blocks: Iterable[bytes], newline: str) -> Iterator[str]:
    """The lines of the blocks, decoded as strict UTF-8 and split as a file
    opened with the format's ``newline`` splits them: ``"\\n"`` for JSONL,
    whose lines end at LF alone, ``""`` for CSV, whose lines end at LF, CR
    or CRLF.  Before raising a UnicodeDecodeError it yields every whole
    line in front of the undecodable bytes."""
    for data in blocks:
        try:
            yield from io.StringIO(data.decode(), newline=newline)
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            cut = head.rfind(b"\n") if newline else max(head.rfind(b"\n"), head.rfind(b"\r"))
            yield from io.StringIO(head[: cut + 1].decode(), newline=newline)
            raise


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
    chunks = FORMATS.get(format)
    if chunks is None:
        raise IngestError(f"unknown format: {format!r}")
    accumulator = _TableAccumulator()
    report = IngestReport()
    for chunk in chunks(_blocks(source)):
        _commit(chunk, strict, report, accumulator)
    return accumulator.table(), report


def _commit(chunk: Chunk, strict: bool, report: IngestReport, accumulator: _TableAccumulator) -> None:
    """Count a chunk's rejected rows by reason, or in strict mode raise at
    the first one in row order, then append the accepted rows to the
    table: all the columns as they are when no row is rejected."""
    line_nos, columns, reason = chunk
    rejected = np.flatnonzero(reason)
    if len(rejected):
        if strict:
            raise IngestError(_REASONS[reason[rejected[0]]], line=int(line_nos[rejected[0]]))
        for code, n in zip(*np.unique(reason[rejected], return_counts=True)):
            report.reject(_REASONS[code], int(n))
        keep = reason == 0
        kept = keep.tolist()
        columns = [column[keep] if isinstance(column, np.ndarray) else list(compress(column, kept)) for column in columns]
    report.accepted += len(reason) - len(rejected)
    accumulator.append(*columns)


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
    number of the last item.  An error reading the items, a csv.Error as
    an IngestError at the row being read, is raised once the items before
    it are committed, so a bad row still fails before an error later on."""
    while True:
        block, error = [], None
        try:
            block.extend(islice(items, CHUNK_ROWS))
        except csv.Error as exc:  # a field past csv's size limit
            error = IngestError(str(exc), line=line_no + len(block) + 1)
        except UnicodeDecodeError as exc:
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
    newline = buf == ord("\n")
    n, width = int(np.count_nonzero(newline)), commas + 1
    ends = np.flatnonzero((buf == ord(",")) | newline)
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
    lat, lon = _byte_floats(data, padded, start[:, 2:4].ravel(), length[:, 2:4].ravel()).reshape(-1, 2).T
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

    ``_decimals`` decodes the plain decimals that make up nearly every
    coordinate.  The other fields go to numpy's cast, which parses each
    value as Python's ``float`` does, and raises ValueError for the whole
    array at the first value it cannot parse, non-ASCII ones included;
    the values are then parsed one by one.
    """
    floats = np.full(len(start), math.nan)
    decoded, values = _decimals(padded, start, length)
    floats[decoded] = values
    rest = ~decoded & (length > 0)
    if not rest.any():
        return floats
    values = _field_bytes(data, padded, start[rest], length[rest])
    if isinstance(values, list):
        floats[rest] = _float_column(values)
        return floats
    try:
        floats[rest] = values.astype(np.float64)
    except ValueError:
        floats[rest] = np.fromiter((_float_or_nan(v.decode()) for v in values.tolist()), np.float64, len(values))
    return floats


# 8-byte words of one repeated byte, for tests on every byte of a word at once
_REPEAT = np.uint64(0x0101010101010101)
_ZEROS, _DOTS, _HIGH_BITS, _HIGH_NIBBLES, _SIXES = (_REPEAT * np.uint64(b) for b in (0x30, 0x2E, 0x80, 0xF0, 6))

# _quotient's mantissas are below 10**19 < 2**64, and its divisors are powers
# of ten up to 10**19; a significand of 64 bits or more holds both exactly,
# and IEEE division rounds their quotient once.  Only x87 extended (63 stored
# mantissa bits) and IEEE quad (112) are taken: elsewhere, float64 or ppc64's
# double-double, every value takes numpy's cast and every written float repr.
_EXACT_QUOTIENT = np.finfo(np.longdouble).nmant in (63, 112)
_POWERS = np.uint64(10) ** np.arange(20, dtype=np.uint64)
_LONG_POWERS = _POWERS.astype(np.longdouble)
# each group of four digits as ASCII, the first in the low byte, and its trailing '0's (18 for 0000)
_QUADS = sum(np.ix_(*(np.arange(ord("0"), ord("9") + 1, dtype="<u4") << shift for shift in (0, 8, 16, 24)))).ravel()
_TRAILING_ZEROS = np.where(np.arange(10**4) == 0, 18, sum(np.arange(10**4) % 10**n == 0 for n in range(1, 4)))
_LOW_CHARS = np.array([(1 << 8 * n) - 1 for n in range(5)], dtype="<u4")  # the masks of a group's n first bytes


def _decimals(padded: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the fields ``padded[start:start + length]`` decoded
    here, and ``float`` of each of them.

    A field is decoded when it matches ``-?D{1,8}\\.D{1,16}`` with at most
    19 ASCII digits D in all, from 8-byte words.  The dot is the first
    zero byte of the word after the first digit once that word is XORed
    with dots.  The integer digits, the first eight fraction digits and
    the rest each fill one word, shifted to its high end behind '0' bytes;
    every byte is checked to be a digit, and the word is folded into a
    number by multiplying pairs of digits, then pairs of pairs.  The
    digits make one integer ``m`` below 10**19 and the value is
    ``m / 10**b`` for ``b`` fraction digits (``_quotient``); a field whose
    quotient may be rounded twice is left to the cast.  The sign is
    applied last, so ``-0.0`` keeps it.
    """
    decoded = np.zeros(len(start), dtype=bool)
    if not _EXACT_QUOTIENT:
        return decoded, np.zeros(0)
    words = _words(padded)
    minus = padded[start] == ord("-")
    first = start + minus
    dots = words[first + 1] ^ _DOTS
    dot_bits = (dots - _REPEAT) & ~dots & _HIGH_BITS  # the lowest is the first dot's
    # the lowest bit is 2**(8 * whole - 1), and frexp's exponent 8 * whole
    whole = np.frexp((dot_bits & (~dot_bits + np.uint64(1))).astype(np.float64))[1] // 8  # 0: no dot
    fraction = length - minus - whole - 1
    rows = np.flatnonzero((whole >= 1) & (fraction >= 1) & (fraction <= 16) & (whole + fraction <= 19))
    first, whole, fraction = first[rows], whole[rows], fraction[rows]
    head = np.minimum(fraction, 8)
    groups = [
        _digit_group(words[at], n)
        for at, n in ((first, whole), (first + whole + 1, head), (first + whole + 9, fraction - head))
    ]
    digits = np.ones(len(rows), dtype=bool)
    for group in groups:
        digits &= ((group & _HIGH_NIBBLES) == _ZEROS) & (((group + _SIXES) & _HIGH_NIBBLES) == _ZEROS)
    whole_part, head_part, tail_part = map(_eight_digits, groups)
    mantissa = whole_part * _POWERS[fraction] + head_part * _POWERS[fraction - head] + tail_part
    value, once = _quotient(mantissa, fraction)
    digits &= once
    rows = rows[digits]
    decoded[rows] = True
    value = value[digits]
    np.negative(value, out=value, where=minus[rows])
    return decoded, value


def _quotient(mantissa: np.ndarray, places: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 of each ``mantissa / 10**places``, taken in longdouble, and
    the mask of the values surely rounded once: rounding twice differs only
    where the longdouble quotient lies halfway between two float64 values."""
    quotient = mantissa / _LONG_POWERS[places]
    value = quotient.astype(np.float64)
    twice = 2 * (quotient - value).astype(np.float64)  # exact for x87; a rounded one only masks more
    return value, (value + twice - value != twice) | (twice == 0)  # halfway: a float64 lies twice as far


def _float_rows(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``x``, as padded rows.

    repr writes the shortest decimal that reads back, the closest where
    several are as short.  One of at most 15 digits is the correctly
    rounded 15-digit decimal with zeros added (half a unit in its 15th
    digit exceeds half an ulp), a longer one the correctly rounded 16- or
    17-digit one.  So for |x| in [1e-3, 1e15) the digits are the first of
    those roundings ``N / 10**s``, N = rint(|x| * 10**s) in longdouble,
    that ``_quotient`` maps back to x, trailing zeros dropped.  repr writes
    the rest: products that round to a tie, quotients ``_quotient`` cannot
    settle, values outside that range, and every row without
    ``_EXACT_QUOTIENT``.
    """
    a = np.abs(x)
    fast = (a >= 1e-3) & (a < 1e15) & _EXACT_QUOTIENT
    a[~fast] = 1.0  # a placeholder, so that every row is computed
    exponent = np.clip(np.floor(np.log10(a)), -3, 14).astype(np.intp)
    seventeen = a * _LONG_POWERS[16 - exponent]  # log10 may be one off next to a power of ten
    exponent += (seventeen >= _LONG_POWERS[17]).astype(np.intp) - (seventeen < _LONG_POWERS[16])
    places = 14 - exponent + np.arange(3)[:, None]  # fraction digits of the 15-, 16- and 17-digit forms
    scaled = a * _LONG_POWERS[places]
    mantissa = np.rint(scaled)
    value, sure = _quotient(mantissa, places)
    # rounding is monotone and half-integers below 2**nmant > 10**17 are exact:
    # a product not rounded onto a tie has the nearest integer of |x| * 10**s
    sure &= np.abs(scaled - mantissa) != 0.5
    back = value == a
    fast &= sure[0] & (back[0] | sure[1] & (back[1] | sure[2] & back[2]))
    form = np.where(back[0], 0, 2 - back[1])[None]
    mantissa, places = (np.take_along_axis(column, form, 0)[0] for column in (mantissa, places))
    # the sign, then groups of four digits, PAD for leading and trailing zeros
    whole, fraction = np.divmod(mantissa.astype(np.uint64), _POWERS[places])
    fraction *= _POWERS[19 - places]  # 19 fraction digits
    wide = np.maximum(np.searchsorted(_POWERS, whole, side="right"), 1)  # whole digits
    quads = -(-int(wide.max(initial=1)) // 4)
    groups = np.concatenate([whole // _POWERS[4 * np.arange(quads - 1, -1, -1), None], fraction // _POWERS[[16, 12, 8, 4, 0], None]])
    groups = (groups % _POWERS[4]).astype(np.intp)
    shown = np.maximum((4 * np.arange(5)[:, None] + 3 - _TRAILING_ZEROS[groups[quads:]]).max(axis=0), 1)  # fraction digits
    lead, kept = 4 * np.arange(quads, 0, -1)[:, None] - wide, shown + 1 - 4 * np.arange(5)[:, None]
    text = _QUADS[groups] | np.concatenate([_LOW_CHARS[np.clip(lead, 0, 4)], ~_LOW_CHARS[np.clip(kept, 0, 4)]])
    text[quads] -= np.uint32(ord("0") - ord("."))  # the first fraction group is below 1000: "0ddd" to ".ddd"
    rows = np.concatenate([np.where(x < 0, ord("-"), PAD).astype(np.uint8)[:, None], text.T.copy().view(np.uint8)], axis=1)
    if not fast.all():  # repr's at most 24 bytes fit in the 25 or more of a row
        spelled = padded_rows(np.array([repr(v) for v in x[~fast].tolist()]))
        rows[~fast] = PAD
        rows[~fast, : spelled.shape[1]] = spelled
    return rows


def _digit_group(word: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The words' ``n`` low bytes (``n`` up to 8) shifted to their high end,
    behind '0' bytes: as text, the same ``n`` characters with leading
    zeros.  numpy shifts a uint64 by 64 to 0."""
    bits = n.astype(np.uint64) << np.uint64(3)
    return (word << (np.uint64(64) - bits)) | (_ZEROS >> bits)


def _eight_digits(group: np.ndarray) -> np.ndarray:
    """The number that each word of eight ASCII digits, the first in the
    low byte, spells."""
    group = group - _ZEROS
    group = group * np.uint64(10) + (group >> np.uint64(8))  # pairs, in bytes 0, 2, 4, 6
    pairs = np.uint64(0x000000FF000000FF)
    return (
        (group & pairs) * np.uint64(100 + (1_000_000 << 32))
        + ((group >> np.uint64(16)) & pairs) * np.uint64(1 + (10_000 << 32))
    ) >> np.uint64(32)


def _is_utf8(data: bytes) -> bool:
    try:
        data.isascii() or data.decode()
    except UnicodeDecodeError:
        return False
    return True


def _csv_chunks(blocks: Iterator[bytes]) -> Iterator[Chunk]:
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
    reader = csv.reader(_lines(chain((data,), blocks), ""))
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
    value or no JSON at all, or when a string value holds a lone surrogate:
    only an escape gives one, and no UTF-8 text holds it (RFC 8259 8.2)."""
    try:
        obj, end = _scan_json(text, 0)
    except (StopIteration, ValueError, RecursionError):  # ValueError: also an integer past int's digit limit
        return None
    lone = isinstance(obj, dict) and "\\" in text and any(isinstance(v, str) and re.search("[\ud800-\udfff]", v) for v in obj.values())
    return obj if end == len(text) and isinstance(obj, dict) and not lone else None


def _json_fields(lines: list[str]) -> tuple[list, np.ndarray]:
    """``_decide`` of the fields of JSONL lines, ``dict.get`` of the object
    each line holds; a line that holds none is bad json."""
    objects = [_JSON_PLACEHOLDER if obj is None else obj for obj in map(_json_object, map(str.strip, lines))]
    bad = np.fromiter(map(operator.is_, objects, repeat(_JSON_PLACEHOLDER)), bool, len(objects))
    return _decide([list(map(dict.get, objects, repeat(c))) for c in CANONICAL_COLUMNS], bad)


def _jsonl_chunks(blocks: Iterator[bytes]) -> Iterator[Chunk]:
    """Chunks of a JSONL stream: a block holding no backslash, and only
    UTF-8, is checked as bytes, and any other block is read line by line, as
    is every block after one that ``_json_block`` declines."""
    line_no, checked = 0, True
    for data in blocks:
        plain = checked and b"\\" not in data and _is_utf8(data)
        chunk = _json_block(data, line_no + 1) if plain else None
        if chunk is None:
            checked &= not plain
            line_no = yield from _list_chunks(_lines((data,), "\n"), line_no, str.isspace, _json_fields)
        else:
            yield chunk
            line_no += data.count(b"\n") + (not data.endswith(b"\n"))


# the event file formats by name, each with its chunk reader
FORMATS = {"csv": _csv_chunks, "jsonl": _jsonl_chunks}


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

# a flat object: "{", then key and value pairs, each ending in "," or "}",
# with spaces, tabs and carriage returns between tokens; a value is a
# string, a JSON number or null
_SPACES = rb"[ \t\r]*"
_OPENING = re.compile(_SPACES + rb"\{")
_NUMBER = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|null"
_PAIR = re.compile(_SPACES.join([b"", rb'"([^"]*)"', b":", rb'(?:"([^"]*)"|(' + _NUMBER + b"))", b"([,}])", b""]))
_KEY_COLUMNS = {c.encode(): k for k, c in enumerate(CANONICAL_COLUMNS)}

# the most lines of a block that are read as layouts; a block with more
# layouts leaves the lines of the later ones to json's scanner
_LAYOUTS = 16

# a block where more than half the lines, and more than this many, match no
# layout is declined: decoding such lines costs 1.5 times reading them as dicts
_DECLINE_LINES = 64


class _Layout(NamedTuple):
    """The bytes of a JSONL line around its values, placed from anchors:
    the newline before the line, its ``quotes`` quotes and the newline
    after it, numbered from 0.  Each place is ``offset`` bytes from anchor
    ``anchor``: first the 8-byte words (``mask`` of ``value``) that cover
    each run of literal bytes, from the run's first anchor, then the start
    and then the end of each value, a string's bytes between its quotes or
    a number or null ``token``.  ``column`` is each value's key's index in
    CANONICAL_COLUMNS, -1 for none, and ``pick`` each column's value."""

    quotes: int
    anchor: np.ndarray
    offset: np.ndarray
    mask: np.ndarray
    value: np.ndarray
    token: np.ndarray
    column: np.ndarray
    pick: np.ndarray


def _layout(line: bytes) -> _Layout | None:
    """The layout of a line holding no backslash, or None unless it holds
    one flat object of string keys and values that are strings, JSON
    numbers or null, with no CANONICAL_COLUMNS key twice."""
    match, values = _OPENING.match(line), []  # (start, end, token, column) in b"\n" + line + b"\n"
    while match and (not values or match[4] == b","):
        match = _PAIR.match(line, match.end())
        if match:
            at = 2 if match[2] is not None else 3
            values.append((match.start(at) + 1, match.end(at) + 1, at == 3, _KEY_COLUMNS.get(match[1], -1)))
    column = [v[3] for v in values if v[3] >= 0]
    if not match or line[match.end() :].strip(b" \t\r") or len(set(column)) < len(column):
        return None
    text, anchors = b"\n" + line + b"\n", [0, *accumulate(len(part) + 1 for part in line.split(b'"'))]
    bounds = [0, *chain.from_iterable(v[:2] for v in values), len(text)]
    runs = [bisect_left(anchors, a) for a in bounds[::2]]  # the first anchor of each literal run
    words = [(k, o - anchors[k], text[o : min(o + 8, b)]) for k, a, b in zip(runs, bounds[::2], bounds[1::2]) for o in range(a, b, 8)]
    start, end, token, column = map(np.array, zip(*values))
    pick = np.full(len(CANONICAL_COLUMNS), -1)
    pick[column[column >= 0]] = np.flatnonzero(column >= 0)
    return _Layout(
        len(anchors) - 2,
        np.array([k for k, _, _ in words] + runs[:-1] + runs[1:]),
        np.array([o for _, o, _ in words] + [*(start - np.take(anchors, runs[:-1])), *(end - np.take(anchors, runs[1:]))]),
        np.array([(1 << 8 * len(w)) - 1 for *_, w in words], dtype=np.uint64),
        np.array([int.from_bytes(w, "little") for *_, w in words], dtype=np.uint64),
        token,
        column,
        pick,
    )


def _json_block(data: bytes, first_line: int) -> Chunk | None:
    """Check a block of UTF-8 JSONL lines holding no backslash as one byte
    buffer, or None when it is declined (see _DECLINE_LINES).

    Such a block's strings are their bytes between quotes, and its lines
    end at newlines alone.  Up to _LAYOUTS times, the first line that no
    layout has taken yet is read as one (``_layout``), and the other lines
    with as many quotes are checked against it: their literal bytes, as
    8-byte words at the places their quotes give, which place their values
    too.  A line with an odd number of quotes or a control byte in
    a string takes no layout.  Number tokens must follow the JSON grammar
    and be at most _BYTE_WIDTH bytes long; null reads as an absent key.
    The other nonblank lines are flagged, and so is a row whose user,
    timestamp, origin or tag is a number, or whose coordinate is a negative
    zero (json reads the integer -0 as +0.0): json's scanner then decodes
    and decides the flagged lines together."""
    # a newline put before the block starts the first line like the others
    data = b"\n" + data + b"\n"[data.endswith(b"\n") :]
    padded = _padded(data)
    buf, words = padded[: len(data)], _words(padded)
    marks = np.flatnonzero((buf == ord("\n")) | (buf == ord('"')))  # the anchors of every line, in order
    base = np.flatnonzero(buf[marks] == ord("\n"))  # line k's anchor j is marks[base[k] + j]
    starts, ends, n = marks[base[:-1]] + 1, marks[base[1:]], len(base) - 1
    count, base = np.diff(base) - 1, base[:-1]  # quotes per line
    bad = count % 2 == 1  # lines that no layout takes
    control = np.flatnonzero((buf < ord(" ")) & (buf != ord("\n")))
    line = np.searchsorted(ends, control)
    bad[line[(np.searchsorted(marks, control) - base[line]) % 2 == 0]] = True  # in a string
    blank = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(count == 0).tolist():
        blank[i] = not data[starts[i] : ends[i]].decode().strip()
    bad |= (count == 0) & ~blank

    start, length = np.zeros((2, n, 6), dtype=np.int64)
    tokens = []  # (line, start, length, column) of the number and null tokens
    waiting = ~bad & ~blank
    for _ in range(_LAYOUTS):
        lines = np.flatnonzero(waiting)
        if not len(lines):
            break
        layout = _layout(data[starts[lines[0]] : ends[lines[0]]])
        if layout is None:
            bad[lines[0]], waiting[lines[0]] = True, False
            continue
        lines, w, s = lines[count[lines] == layout.quotes], len(layout.mask), len(layout.token)
        lines = lines[words[marks[base[lines]] + layout.offset[0]] & layout.mask[0] == layout.value[0]]  # the first word alone, then all
        at = np.minimum(marks[base[lines, None] + layout.anchor[:w]] + layout.offset[:w], len(words) - 1)  # past the end: no match
        lines = lines[((words[at] & layout.mask) == layout.value).all(axis=1)]
        at = marks[base[lines, None] + layout.anchor[w:]] + layout.offset[w:]
        value_start, value_length = at[:, :s], at[:, s:] - at[:, :s]  # a token that is empty, or overlaps, is no number
        waiting[lines] = False
        start[lines], length[lines] = value_start[:, layout.pick], value_length[:, layout.pick] * (layout.pick >= 0)
        k = layout.token
        tokens.append((np.repeat(lines, k.sum()), value_start[:, k].ravel(), value_length[:, k].ravel(), np.tile(layout.column[k], len(lines))))
    bad |= waiting
    if np.count_nonzero(bad) > max(n // 2, _DECLINE_LINES):
        return None
    if tokens:
        line, token_start, token_length, column = map(np.concatenate, zip(*tokens))
        null = (token_length == 4) & (words[token_start] & 0xFFFFFFFF == int.from_bytes(b"null", "little"))
        number = (token_length <= _BYTE_WIDTH) & _json_numbers(padded, token_start, np.minimum(token_length, _BYTE_WIDTH))
        bad[line[~(null | number) | (number & np.isin(column, (0, 1, 4, 5)))]] = True  # a number where a string belongs
        length[line[null & (column >= 0)], column[null & (column >= 0)]] = 0
    length[bad] = 0

    rows = np.flatnonzero(~blank)
    flagged = bad[rows]
    columns = _byte_columns(data, padded, start[rows], length[rows], flagged)
    for coordinate in columns[2:4]:
        flagged |= (coordinate == 0) & np.signbit(coordinate)
    return (rows + first_line).tolist(), *_second_look(data, starts[rows], ends[rows], columns, flagged, _json_fields)


def _words(padded: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word starting at each byte of ``padded``."""
    return np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))


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

def events_csv_blocks(table: EventTable) -> Iterator[bytes]:
    """The canonical CSV bytes of the events (round-trip safe), in row blocks."""
    # coordinates as repr writes them, so that re-parsing gives the same floats
    return csv_blocks(
        CANONICAL_COLUMNS,
        len(table),
        (
            coded_column(table.user_ids, table.user),
            lambda start, stop: _stamp_rows(table.seconds[start:stop]),
            lambda start, stop: _float_rows(table.lat[start:stop]),
            lambda start, stop: _float_rows(table.lon[start:stop]),
            coded_column(table.origin_ids, table.origin),
            coded_column(table.tag_ids, table.tag),
        ),
    )


def _stamp_rows(seconds: np.ndarray) -> np.ndarray:
    """``np.datetime_as_string`` of epoch ``seconds`` in UTC, as padded rows:
    the block's range of days is formatted once, unless it is wider than the
    block, and the time of day is built from its digits."""
    days, clock = np.divmod(seconds, 86_400)
    first, last = days.min(), days.max()
    if last - first >= len(days):
        return padded_rows(np.datetime_as_string(seconds.view("datetime64[s]"), timezone="UTC"))
    dates = padded_rows(np.datetime_as_string(np.arange(first, last + 1).astype("datetime64[D]")))[days - first]
    times = np.tile(np.frombuffer(b"T00:00:00Z", dtype=np.uint8), (len(clock), 1))
    fields = times[:, 1:].reshape(-1, 3, 3)  # "HH:", "MM:" and "SSZ" of each row, in place
    parts = np.stack([clock // 3600, clock // 60 % 60, clock % 60], axis=1).astype(np.uint8)
    fields[:, :, :2] += np.stack([parts // 10, parts % 10], axis=2)
    return np.concatenate([dates, times], axis=1)


def write_events_csv(table: EventTable, path: str | Path) -> None:
    write_text(path, events_csv_blocks(table))
