"""Unified event schema and ingestion for geotagged activity records.

One record format covers all three activity styles (photo, tweet,
transaction): a user token, a UTC timestamp, a WGS84 point, an optional
declared origin country, and a dataset tag.  Files arrive as CSV (header
required) or JSONL with the same field names; malformed rows are counted
and skipped unless strict mode is on.

Parsed events live in one EventTable of numpy columns.  Ingest reads the
input in bounded chunks and validates each chunk column by column; any
row a column check flags is re-validated on its own by ``_make_record``,
which alone decides rejection reasons, so the columnar checks only ever
decide which rows need that second look.
"""

from __future__ import annotations

import csv
import io
import json
import json.scanner
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .output import dumps_stable

CANONICAL_COLUMNS = ("user_id", "timestamp", "lat", "lon", "origin_country", "dataset_tag")

CHUNK_ROWS = 1 << 13  # input rows validated together; bounds the per-chunk memory

CODE = np.int32  # dtype of the string-field codes

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY = 86400

# the canonical YYYY-MM-DDTHH:MM:SSZ form: digit and separator positions
_STAMP_WIDTH = 20
_STAMP_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_STAMP_SEPARATORS = np.array([4, 7, 10, 13, 16, 19])
_STAMP_SEPARATOR_CODES = np.frombuffer(b"--T::Z", dtype=np.uint8)
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])


class IngestError(ValueError):
    """Malformed input stream, or first bad row in strict mode."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.reason = message


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One geotagged activity instance.

    ``timestamp`` is timezone-aware UTC with seconds precision;
    ``origin_country`` is an ISO-3166-1 alpha-2 code or None when the
    source does not declare one.
    """

    user_id: str
    timestamp: datetime
    lat: float
    lon: float
    origin_country: str | None
    dataset_tag: str


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as columns, one entry per event in input row order.

    String fields are stored as codes into tuples of distinct values,
    sorted with Python's string order: ``user`` indexes ``user_ids``,
    ``tag`` indexes ``tag_ids``, and ``origin`` indexes ``origin_ids``,
    with -1 where the event declares no origin.  ``seconds`` is the epoch
    second of each timestamp and ``month`` its UTC calendar month (1-12).
    Iterating yields EventRecord rows.
    """

    user: np.ndarray
    user_ids: tuple[str, ...]
    seconds: np.ndarray
    month: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    origin: np.ndarray
    origin_ids: tuple[str, ...]
    tag: np.ndarray
    tag_ids: tuple[str, ...]

    def __len__(self) -> int:
        return int(self.user.shape[0])

    def __getitem__(self, i: int) -> EventRecord:
        origin = int(self.origin[i])
        return EventRecord(
            self.user_ids[self.user[i]],
            _EPOCH + timedelta(seconds=int(self.seconds[i])),
            float(self.lat[i]),
            float(self.lon[i]),
            self.origin_ids[origin] if origin >= 0 else None,
            self.tag_ids[self.tag[i]],
        )

    def __iter__(self) -> Iterator[EventRecord]:
        return (self[i] for i in range(len(self)))

    @classmethod
    def from_records(cls, records: Iterable[EventRecord]) -> "EventTable":
        records = list(records)
        accumulator = _TableAccumulator()
        accumulator.append(
            [r.user_id for r in records],
            np.fromiter((_seconds_of(r.timestamp) for r in records), np.int64, len(records)),
            np.fromiter((r.lat for r in records), np.float64, len(records)),
            np.fromiter((r.lon for r in records), np.float64, len(records)),
            [r.origin_country for r in records],
            [r.dataset_tag for r in records],
        )
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

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1

    def merge(self, other: "IngestReport") -> None:
        self.accepted += other.accepted
        self.rejected += other.rejected
        for reason, count in other.rejection_reasons.items():
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
# The calendar helpers below use only integer arithmetic and elementwise
# operators, so the scalar parser and the column parser run the very same
# expressions on ints and on int arrays.

def _valid_instant(year, month, day, hour, minute, second):
    """Whether the fields name a real UTC instant in years 1-9999."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 13)] + ((month == 2) & leap)
    return (
        (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        & (hour <= 23) & (minute <= 59) & (second <= 59)
    )


def _epoch_seconds(year, month, day, hour, minute, second):
    """Epoch seconds of a proleptic-Gregorian UTC instant (H. Hinnant's
    days_from_civil)."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    days = era * 146097 + doe - 719468
    return days * _DAY + hour * 3600 + minute * 60 + second


def _civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month and day of epoch day numbers (inverse of the above)."""
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    return yoe + era * 400 + (month <= 2), month, day


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def timestamp_seconds(value: str) -> int:
    """Epoch seconds of an ISO-8601 UTC instant.

    The accepted grammar is exactly ``YYYY-MM-DD`` (midnight),
    ``YYYY-MM-DDTHH:MMZ`` and ``YYYY-MM-DDTHH:MM:SS[.f+]Z`` with ASCII
    digits; sub-second digits are truncated.  Anything else, offsets other
    than the ``Z`` suffix included, raises ValueError.
    """
    if len(value) == 10:
        date, clock = value, "00:00:00"
    elif value[10:11] == "T" and value.endswith("Z"):
        date, clock = value[:10], value[11:-1]
        if len(clock) == 5:
            clock += ":00"
        elif len(clock) > 8 and clock[8] == "." and _is_digits(clock[9:]):
            clock = clock[:8]
        elif len(clock) != 8:
            raise ValueError(f"timestamp must be UTC with Z suffix: {value!r}")
    else:
        raise ValueError(f"timestamp must be UTC with Z suffix: {value!r}")
    parts = (date[0:4], date[5:7], date[8:10], clock[0:2], clock[3:5], clock[6:8])
    if date[4] + date[7] + clock[2] + clock[5] != "--::" or not all(map(_is_digits, parts)):
        raise ValueError(f"not a valid timestamp: {value!r}")
    fields = [int(p) for p in parts]
    if not _valid_instant(*fields):
        raise ValueError(f"not a valid timestamp: {value!r}")
    return int(_epoch_seconds(*fields))


def parse_timestamp(value: str) -> datetime:
    """The instant of ``timestamp_seconds`` as a timezone-aware UTC datetime."""
    return _EPOCH + timedelta(seconds=timestamp_seconds(value))


def _seconds_of(dt: datetime) -> int:
    return (dt - _EPOCH) // timedelta(seconds=1)


def _stamp_column(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each value in the canonical YYYY-MM-DDTHH:MM:SSZ
    form, and the mask of values that are valid in that form.

    Values in the other accepted forms come out unmasked, like invalid
    ones, and are left to ``timestamp_seconds``.
    """
    n = len(values)
    seconds = np.zeros(n, dtype=np.int64)
    fixed = (np.fromiter(map(len, values), np.intp, n) == _STAMP_WIDTH) & np.fromiter(map(str.isascii, values), bool, n)
    text = "".join(compress(values, fixed.tolist()))
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, _STAMP_WIDTH)
    digits = raw[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    d = [digits[:, k] * 10 + digits[:, k + 1] for k in range(0, 14, 2)]
    fields = (d[0] * 100 + d[1], d[2], d[3], d[4], d[5], d[6])
    good = (
        ((digits >= 0) & (digits <= 9)).all(axis=1)
        & (raw[:, _STAMP_SEPARATORS] == _STAMP_SEPARATOR_CODES).all(axis=1)
        & _valid_instant(*fields)
    )
    seconds[fixed] = _epoch_seconds(*fields)
    ok = np.zeros(n, dtype=bool)
    ok[fixed] = good
    return seconds, ok


def _format_seconds(seconds: np.ndarray) -> list[str]:
    """Epoch seconds as canonical YYYY-MM-DDTHH:MM:SSZ strings."""
    days, secs = np.divmod(np.asarray(seconds, dtype=np.int64), _DAY)
    year, month, day = _civil_from_days(days)
    numbers = (year // 100, year % 100, month, day, secs // 3600, secs // 60 % 60, secs % 60)
    chars = np.empty((len(days), _STAMP_WIDTH), dtype=np.uint8)
    for k, number in enumerate(numbers):
        chars[:, _STAMP_DIGITS[2 * k]] = number // 10 + ord("0")
        chars[:, _STAMP_DIGITS[2 * k + 1]] = number % 10 + ord("0")
    chars[:, _STAMP_SEPARATORS] = _STAMP_SEPARATOR_CODES
    return chars.view(f"S{_STAMP_WIDTH}").ravel().astype(str).tolist()


def format_timestamp(dt: datetime) -> str:
    return _format_seconds(np.array([_seconds_of(dt)]))[0]


# ---------------------------------------------------------------------------
# row validation

def _make_record(
    user_id,
    timestamp,
    lat,
    lon,
    origin_country,
    dataset_tag,
) -> EventRecord | str:
    """Validate field values; return an EventRecord or a rejection reason."""
    if not isinstance(user_id, str) or not user_id:
        return "missing field"
    if not isinstance(dataset_tag, str) or not dataset_tag:
        return "missing field"
    if not isinstance(timestamp, str) or not timestamp:
        return "missing field"
    try:
        ts = parse_timestamp(timestamp)
    except ValueError:
        return "bad timestamp"
    try:
        lat_f = float(lat) if not isinstance(lat, bool) else None
        lon_f = float(lon) if not isinstance(lon, bool) else None
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge JSON integer
        return "bad coordinate"
    if lat_f is None or lon_f is None or lat_f != lat_f or lon_f != lon_f:
        return "bad coordinate"
    if not -90.0 <= lat_f <= 90.0:
        return "lat out of range"
    if not -180.0 <= lon_f <= 180.0:
        return "lon out of range"
    origin = origin_country if origin_country else None
    if origin is not None and not _valid_origin(origin):
        return "bad origin country"
    return EventRecord(user_id, ts, lat_f, lon_f, origin, dataset_tag)


def _valid_origin(origin) -> bool:
    return (
        isinstance(origin, str)
        and len(origin) == 2
        and origin.isalpha()
        and origin.isupper()
        and origin.isascii()
    )


def _text_ok(values: list) -> np.ndarray:
    """Mask of the values that are non-empty strings."""
    n = len(values)
    return np.fromiter(map(isinstance, values, repeat(str)), bool, n) & np.fromiter(map(bool, values), bool, n)


_NUMERIC = {float, int, str}  # the types float() may accept; bool is not among them


def _float_column(values: list) -> np.ndarray:
    """``float(v)`` of each value, NaN where ``_make_record`` would not
    take the value as a coordinate number (booleans included)."""
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
        except (ValueError, OverflowError):
            pass
    return math.nan


def _origin_column(values: list) -> tuple[list, np.ndarray]:
    """Declared origins with empty values as None, and the mask of values
    that are empty or a valid country code."""
    if not set(map(type, values)) <= {str, type(None)}:
        values = [v if type(v) is str or v is None else "?" for v in values]
    valid = {v: not v or _valid_origin(v) for v in dict.fromkeys(values)}
    ok = np.fromiter(map(valid.__getitem__, values), bool, len(values))
    if "" in valid:
        values = [v or None for v in values]
    return values, ok


class _TableAccumulator:
    """Accumulates validated chunks.  String fields get provisional codes,
    one per distinct value, re-coded to sorted order at the end."""

    def __init__(self) -> None:
        self.codes: tuple[dict, dict, dict] = ({}, {None: -1}, {})  # user, origin, tag
        self.parts: list[tuple[np.ndarray, ...]] = []

    @staticmethod
    def _encode(values: list, codes: dict) -> np.ndarray:
        codes.update(zip(set(values).difference(codes), count(len(codes))))
        return np.fromiter(map(codes.__getitem__, values), CODE, len(values))

    def append(self, users, seconds, lat, lon, origins, tags) -> None:
        user_codes, origin_codes, tag_codes = self.codes
        self.parts.append(
            (
                self._encode(users, user_codes),
                seconds,
                _civil_from_days(seconds // _DAY)[1].astype(np.int8),
                lat,
                lon,
                self._encode(origins, origin_codes),
                self._encode(tags, tag_codes),
            )
        )

    def table(self) -> EventTable:
        dtypes = (CODE, np.int64, np.int8, np.float64, np.float64, CODE, CODE)
        user, seconds, month, lat, lon, origin, tag = (
            np.concatenate([p[k] for p in self.parts]) if self.parts else np.zeros(0, dtype=dtype)
            for k, dtype in enumerate(dtypes)
        )
        self.parts.clear()
        (user_ids, user), (origin_ids, origin), (tag_ids, tag) = (
            _sorted_codes(codes, provisional)
            for codes, provisional in zip(self.codes, (user, origin, tag))
        )
        return EventTable(user, user_ids, seconds, month, lat, lon, origin, origin_ids, tag, tag_ids)


def _sorted_codes(codes: dict, provisional: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Re-code values to their rank in sorted order; None keeps code -1."""
    ids = sorted(v for v in codes if v is not None)
    rank = np.full(max(codes.values(), default=-1) + 2, -1, dtype=CODE)  # last slot serves code -1
    rank[[codes[v] for v in ids]] = np.arange(len(ids))
    return tuple(ids), rank[provisional]


# ---------------------------------------------------------------------------
# parsing

def _text_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield from fh
        return
    if not isinstance(source, io.TextIOBase):  # byte stream
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    yield from source


def _read_chunk(items: Iterator, errors: type[Exception] | tuple[type[Exception], ...]) -> tuple[list, Exception | None]:
    """Up to CHUNK_ROWS items, and the error of ``errors`` that cut the
    chunk short, if any.  The caller settles the items read before raising
    it, so a bad row still fails before an error later in the input."""
    chunk: list = []
    try:
        chunk.extend(islice(items, CHUNK_ROWS))
    except errors as exc:
        return chunk, exc
    return chunk, None


def _raise_after(items: list, error: Exception) -> Iterator:
    yield from items
    raise error


# A chunk is (line numbers, the six raw field columns in CANONICAL_COLUMNS
# order, {row: reason} for rows rejected before field validation).
Chunk = tuple[Sequence[int], list[list], dict[int, str]]


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
    if format == "csv":
        chunks = _csv_chunks
    elif format == "jsonl":
        chunks = _jsonl_chunks
    else:
        raise IngestError(f"unknown format: {format!r}")
    accumulator = _TableAccumulator()
    report = IngestReport()
    for line_nos, fields, rejected in chunks(_text_lines(source)):
        _validate_chunk(line_nos, fields, rejected, strict, report, accumulator)
    return accumulator.table(), report


def _validate_chunk(
    line_nos: Sequence[int],
    fields: list[list],
    rejected: dict[int, str],
    strict: bool,
    report: IngestReport,
    accumulator: _TableAccumulator,
) -> None:
    """Check a chunk column by column, then settle each flagged row with
    ``_make_record`` in row order."""
    users, stamps, lats, lons, origins, tags = fields
    flagged = ~(_text_ok(users) & _text_ok(tags))
    flagged[list(rejected)] = True
    stamp_text = _text_ok(stamps)
    if not stamp_text.all():
        stamps = [v if ok else "" for v, ok in zip(stamps, stamp_text.tolist())]
    seconds, ok = _stamp_column(stamps)
    flagged |= ~ok
    lat = _float_column(lats)
    flagged |= ~((lat >= -90.0) & (lat <= 90.0))
    lon = _float_column(lons)
    flagged |= ~((lon >= -180.0) & (lon <= 180.0))
    declared, ok = _origin_column(origins)
    flagged |= ~ok

    keep = ~flagged
    for i in np.flatnonzero(flagged).tolist():
        outcome = rejected.get(i) or _make_record(*(column[i] for column in fields))
        if isinstance(outcome, str):
            if strict:
                raise IngestError(outcome, line=line_nos[i])
            report.reject(outcome)
            continue
        keep[i] = True
        users[i], tags[i], declared[i] = outcome.user_id, outcome.dataset_tag, outcome.origin_country
        seconds[i], lat[i], lon[i] = _seconds_of(outcome.timestamp), outcome.lat, outcome.lon
    kept = keep.tolist()
    report.accepted += sum(kept)
    accumulator.append(
        list(compress(users, kept)),
        seconds[keep],
        lat[keep],
        lon[keep],
        list(compress(declared, kept)),
        list(compress(tags, kept)),
    )


def _csv_chunks(lines: Iterator[str]) -> Iterator[Chunk]:
    """Chunks of a CSV stream; line numbers count rows, as ``csv.reader``
    yields them.

    While every line of a chunk holds as many commas as the header and
    none holds a quote, a carriage return, a NUL or more characters than
    csv's field size limit, the lines are split on commas, which is what
    ``csv.reader`` does with them.  From the first other chunk on,
    ``csv.reader`` reads the rest, so that a quoted field may span chunks.
    """
    reader = csv.reader(lines)
    line_no = 0
    for header in reader:
        line_no += 1
        if header:
            break
    else:
        return
    names = [c.strip() for c in header]
    missing = [c for c in CANONICAL_COLUMNS if c not in names]
    if missing:
        raise IngestError(f"header is missing column(s): {', '.join(missing)}", line=line_no)
    columns = [names.index(c) for c in CANONICAL_COLUMNS]
    width = max(columns) + 1
    commas = len(header) - 1
    while True:
        block, error = _read_chunk(lines, UnicodeDecodeError)
        text = "".join(block)
        if (
            error is not None
            or not block
            or '"' in text or "\r" in text or "\0" in text
            or max(map(len, block)) > csv.field_size_limit()
            or set(map(str.count, block, repeat(","))) != {commas}
        ):
            break
        fields = text.replace("\n", ",").split(",")[: len(block) * len(header)]
        yield (
            range(line_no + 1, line_no + 1 + len(block)),
            [list(map(str.strip, fields[c :: len(header)])) for c in columns],
            {},
        )
        line_no += len(block)
    reader = csv.reader(chain(block, lines) if error is None else _raise_after(block, error))
    while True:
        rows, error = _read_chunk(reader, (csv.Error, UnicodeDecodeError))
        line_nos: Sequence[int] = range(line_no + 1, line_no + 1 + len(rows))
        line_no += len(rows)
        nonblank = [k for k, row in enumerate(rows) if row]
        if nonblank:
            yield (
                [line_nos[k] for k in nonblank],
                *_row_fields([rows[k] for k in nonblank], columns, width),
            )
        if error is not None:
            raise error
        if len(rows) < CHUNK_ROWS:
            return


def _row_fields(rows: list[list[str]], columns: list[int], width: int) -> tuple[list[list], dict[int, str]]:
    """Stripped field columns of split rows; rows too short to hold every
    column are rejected as missing a field."""
    rejected = {}
    if min(map(len, rows)) < width:
        placeholder = [""] * width
        for k, row in enumerate(rows):
            if len(row) < width:
                rejected[k] = "missing field"
                rows[k] = placeholder
    return [list(map(str.strip, map(itemgetter(c), rows))) for c in columns], rejected


# stands in for a line that is not a JSON object; its numbers keep the
# coordinate columns on their fast path
_JSON_PLACEHOLDER = {"lat": 0.0, "lon": 0.0}

# json.loads of a stripped line, minus its per-call Python overhead: the
# decoder's own scanner, with "extra data" after the value checked here
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def _jsonl_chunks(lines: Iterator[str]) -> Iterator[Chunk]:
    line_no = 0
    while True:
        block, error = _read_chunk(lines, UnicodeDecodeError)
        line_nos: list[int] = []
        objects: list[dict] = []
        rejected: dict[int, str] = {}
        for line in block:
            line_no += 1
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj, end = _scan_json(stripped, 0)
            except (StopIteration, json.JSONDecodeError):
                obj, end = None, 0
            if end != len(stripped) or not isinstance(obj, dict):
                rejected[len(objects)] = "bad json"
                obj = _JSON_PLACEHOLDER
            line_nos.append(line_no)
            objects.append(obj)
        if objects:
            yield line_nos, [list(map(dict.get, objects, repeat(c))) for c in CANONICAL_COLUMNS], rejected
        if error is not None:
            raise error
        if len(block) < CHUNK_ROWS:
            return


# ---------------------------------------------------------------------------
# writing

def events_to_csv(table: EventTable) -> str:
    """Serialize events to the canonical CSV format (round-trip safe)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    # repr keeps the shortest exact representation: re-parsing must
    # reproduce the events bit-for-bit
    writer.writerows(
        zip(
            labels_of(table.user_ids, table.user),
            _format_seconds(table.seconds),
            map(repr, table.lat.tolist()),
            map(repr, table.lon.tolist()),
            labels_of(table.origin_ids, table.origin, ""),
            labels_of(table.tag_ids, table.tag),
        )
    )
    return buf.getvalue()


def write_events_csv(table: EventTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(events_to_csv(table))
