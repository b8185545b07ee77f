"""Ingestion: field validation, rejection accounting, round-trips."""

import calendar
import csv
import io
import json
import math
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import compress

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

import cityattract.events as events_module
from cityattract.events import (
    CANONICAL_COLUMNS,
    EventTable,
    IngestError,
    IngestReport,
    parse_events,
)

import oracles
from conftest import events_csv
from oracles import EventRecord, format_timestamp, parse_timestamp, table_of

HEADER = ",".join(CANONICAL_COLUMNS)


def csv_stream(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join((HEADER,) + rows) + "\n")


def parse_rows(source, **kwargs) -> tuple[list[EventRecord], IngestReport]:
    """parse_events, with the table given as rows."""
    table, report = parse_events(source, **kwargs)
    return oracles.records(table), report


def test_accepts_well_formed_row():
    records, report = parse_rows(csv_stream("u1,2012-06-01T12:00:00Z,40.4,-3.7,,tweet"))
    assert report.accepted == 1 and report.rejected == 0
    (rec,) = records
    assert rec.user_id == "u1"
    assert rec.timestamp == datetime(2012, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
    assert rec.lat == 40.4 and rec.lon == -3.7
    assert rec.origin_country is None
    assert rec.dataset_tag == "tweet"


def test_latitude_out_of_range_is_rejected():
    records, report = parse_events(csv_stream("u1,2012-06-01T12:00:00Z,91.0,-3.7,,tweet"))
    assert len(records) == 0
    assert report.rejection_reasons == {"lat out of range": 1}


def test_mixed_stream_keeps_good_rows():
    stream = csv_stream(
        "u1,2012-06-01T12:00:00Z,40.4,-3.7,ES,photo",
        "u2,not-a-time,40.4,-3.7,,photo",
        "u3,2012-06-02T00:00:00Z,41.0,2.1,FR,photo",
    )
    records, report = parse_rows(stream)
    assert [r.user_id for r in records] == ["u1", "u3"]
    assert report.accepted == 2
    assert report.rejected == 1
    assert report.rejection_reasons == {"bad timestamp": 1}


def test_strict_mode_raises_with_line_number():
    stream = csv_stream(
        "u1,2012-06-01T12:00:00Z,40.4,-3.7,,photo",
        "u2,2012-06-01T12:00:00Z,200.0,-3.7,,photo",
    )
    with pytest.raises(IngestError) as exc:
        parse_events(stream, strict=True)
    # header is line 1, so the bad row is line 3
    assert exc.value.line == 3
    assert exc.value.reason == "lat out of range"
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
@pytest.mark.parametrize("from_path", [True, False])
def test_bad_row_fails_before_later_undecodable_bytes(tmp_path, format, from_path):
    good = {"user_id": "u1", "timestamp": "2012-06-01T12:00:00Z", "lat": 40.4, "lon": -3.7, "dataset_tag": "t"}
    bad = dict(good, lat=200.0)
    if format == "csv":
        rows = [HEADER] + [f"u1,2012-06-01T12:00:00Z,{r['lat']},-3.7,,t" for r in (good, bad)]
    else:
        rows = [json.dumps(good), json.dumps(bad)]
    # the undecodable bytes lie well past the first read of the text decoder
    data = ("\n".join(rows + rows[-2:-1] * 500) + "\n").encode() + b"\xff\xfe\n"
    path = tmp_path / "events"
    path.write_bytes(data)
    bad_line = 3 if format == "csv" else 2

    def parse(strict):
        return parse_events(path if from_path else io.BytesIO(data), format=format, strict=strict)

    with pytest.raises(IngestError) as exc:
        parse(strict=True)
    assert exc.value.line == bad_line and exc.value.reason == "lat out of range"
    with pytest.raises(UnicodeDecodeError):
        parse(strict=False)


@pytest.mark.parametrize(
    "row,reason",
    [
        (",2012-06-01T12:00:00Z,40.4,-3.7,,photo", "missing field"),
        ("u1,2012-06-01T12:00:00Z,40.4,-3.7,,", "missing field"),
        ("u1,,40.4,-3.7,,photo", "missing field"),
        ("u1,2012-06-01 12:00:00,40.4,-3.7,,photo", "bad timestamp"),
        ("u1,2012-06-01T12:00:00+02:00,40.4,-3.7,,photo", "bad timestamp"),
        ("u1,2012-13-01T12:00:00Z,40.4,-3.7,,photo", "bad timestamp"),
        ("u1,2012-06-01T12:00:00Z,abc,-3.7,,photo", "bad coordinate"),
        ("u1,2012-06-01T12:00:00Z,nan,-3.7,,photo", "bad coordinate"),
        ("u1,2012-06-01T12:00:00Z,-90.5,-3.7,,photo", "lat out of range"),
        ("u1,2012-06-01T12:00:00Z,40.4,180.5,,photo", "lon out of range"),
        ("u1,2012-06-01T12:00:00Z,40.4,-3.7,Spain,photo", "bad origin country"),
        ("u1,2012-06-01T12:00:00Z,40.4,-3.7,es,photo", "bad origin country"),
        ("u1,2012-06-01T12:00:00Z,40.4,-3.7,E1,photo", "bad origin country"),
    ],
)
def test_rejection_reasons(row, reason):
    records, report = parse_events(csv_stream(row))
    assert len(records) == 0
    assert report.rejection_reasons == {reason: 1}


def test_short_row_is_missing_field():
    records, report = parse_events(csv_stream("u1,2012-06-01T12:00:00Z,40.4"))
    assert len(records) == 0
    assert report.rejection_reasons == {"missing field": 1}


def test_header_required_and_column_order_free():
    with pytest.raises(IngestError) as exc:
        parse_events(io.StringIO("u1,2012-06-01T12:00:00Z,40.4,-3.7,,photo\n"))
    assert "header" in str(exc.value)

    shuffled = "dataset_tag,lon,lat,origin_country,timestamp,user_id\n"
    shuffled += "photo,-3.7,40.4,ES,2012-06-01T12:00:00Z,u1\n"
    records, report = parse_rows(io.StringIO(shuffled))
    assert report.accepted == 1
    assert records[0].lat == 40.4 and records[0].origin_country == "ES"


def test_blank_lines_ignored():
    stream = io.StringIO(HEADER + "\n\nu1,2012-06-01T12:00:00Z,40.4,-3.7,,photo\n\n")
    records, report = parse_events(stream)
    assert report.accepted == 1 and report.rejected == 0


def test_unknown_format_rejected():
    with pytest.raises(IngestError):
        parse_events(io.StringIO(""), format="parquet")


@pytest.mark.parametrize(
    "value,expected",
    [
        ("2012-06-01T12:00:00Z", datetime(2012, 6, 1, 12, 0, 0, tzinfo=timezone.utc)),
        ("2012-06-01T12:00Z", datetime(2012, 6, 1, 12, 0, 0, tzinfo=timezone.utc)),
        ("2012-06-01", datetime(2012, 6, 1, 0, 0, 0, tzinfo=timezone.utc)),
        ("2012-06-01T12:00:00.999999Z", datetime(2012, 6, 1, 12, 0, 0, tzinfo=timezone.utc)),
        ("2012-06-01T12:00:00.5Z", datetime(2012, 6, 1, 12, 0, 0, tzinfo=timezone.utc)),
        ("2012-06-01T12:00:00.1234567890Z", datetime(2012, 6, 1, 12, 0, 0, tzinfo=timezone.utc)),
        ("2012-02-29T23:59:59Z", datetime(2012, 2, 29, 23, 59, 59, tzinfo=timezone.utc)),
        ("2000-02-29", datetime(2000, 2, 29, tzinfo=timezone.utc)),
        ("0001-01-01", datetime(1, 1, 1, tzinfo=timezone.utc)),
        ("9999-12-31T23:59:59Z", datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)),
        ("1969-12-31T23:59:59Z", datetime(1969, 12, 31, 23, 59, 59, tzinfo=timezone.utc)),
    ],
)
def test_timestamp_forms(value, expected):
    assert parse_timestamp(value) == expected
    for row in (f"u1,{value},0,0,,t", f'"u1",{value},0,0,,t'):  # a quote sends the block to csv.reader
        table, report = parse_events(csv_stream(row))
        assert report.accepted == 1 and table.seconds.tolist() == [int(expected.timestamp())], row


def test_timestamp_rejects_offsets_and_bare_times():
    # outside YYYY-MM-DD, YYYY-MM-DDTHH:MMZ and YYYY-MM-DDTHH:MM:SS[.f+]Z;
    # the last group was accepted through datetime.fromisoformat on
    # Python 3.11 but not on 3.10
    for bad in (
        "2012-06-01T12:00:00", "2012-06-01T12:00:00+00:00Z", "12:00:00Z",
        "2012-06-01T12:00:00+02:00", "2012-06-01T12:00:00z", "2012-06-01t12:00:00Z",
        "2012-06-01T12:00:00.Z", "2012-06-01T12:00:60Z", "2012-06-01T24:00Z",
        "2013-02-29", "1900-02-29", "2012-13-01", "2012-00-10", "0000-01-01",
        "2012-6-1", "+2012-06-01", "2012-06-01Z", "２０１２-06-01", "2012-06-0١",
        "2012-W22-5Z", "20120601T120000Z", "2012-06-01 12:00:00Z", "2012-06-01T12Z",
        "2012-06-01T12:00:00,5Z",
    ):
        with pytest.raises(ValueError):
            parse_timestamp(bad)
        row = {"user_id": "u1", "timestamp": bad, "lat": 40.4, "lon": -3.7, "dataset_tag": "t"}
        records, report = parse_events(io.StringIO(json.dumps(row)), format="jsonl")
        assert len(records) == 0 and report.rejection_reasons == {"bad timestamp": 1}, bad


@pytest.mark.parametrize("year", [1, 4, 100, 400, 1900, 2000, 2012, 2013, 9999])
def test_month_lengths_follow_the_calendar(year):
    # the date-only form is rewritten to the canonical one, which the
    # column check decodes on the byte path; the oracle asks datetime
    dates = [f"{year:04d}-{month:02d}-{day:02d}" for month in range(14) for day in range(33)]
    valid = [
        1 <= int(d[5:7]) <= 12 and 1 <= int(d[8:]) <= calendar.monthrange(year, int(d[5:7]))[1]
        for d in dates
    ]
    for date, ok in zip(dates, valid):
        try:
            parse_timestamp(date)
            assert ok, date
        except ValueError:
            assert not ok, date
    for suffix in ("T00:00:00Z", ""):
        records, _ = parse_rows(csv_stream(*(f"u1,{d}{suffix},0,0,,t" for d in dates)))
        assert [format_timestamp(r.timestamp)[:10] for r in records] == list(compress(dates, valid))


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
def test_timestamp_column_path_matches_oracle(dt):
    # the fixed-width form goes through the column decoder, which must agree
    # with the oracle grammar, and the writer must give the stamp back
    expected = dt.replace(microsecond=0, tzinfo=timezone.utc)
    stamp = format_timestamp(expected)
    table, report = parse_events(csv_stream(f"u1,{stamp},0,0,,t"))
    assert report.accepted == 1
    assert oracles.records(table)[0].timestamp == expected
    assert events_csv(table).splitlines()[1].split(",")[1] == stamp


def test_jsonl_matches_csv_semantics():
    rows = [
        {"user_id": "u1", "timestamp": "2012-06-01T12:00:00Z", "lat": 40.4,
         "lon": -3.7, "origin_country": "ES", "dataset_tag": "photo"},
        {"user_id": "u2", "timestamp": "2012-06-01T12:00:00Z", "lat": 99.0,
         "lon": -3.7, "origin_country": None, "dataset_tag": "photo"},
        {"user_id": "u3", "timestamp": "2012-06-01T12:00:00Z", "lat": "41.2",
         "lon": 2.1, "dataset_tag": "photo"},
    ]
    text = "\n".join(json.dumps(r) for r in rows) + "\n"
    records, report = parse_rows(io.StringIO(text), format="jsonl")
    assert [r.user_id for r in records] == ["u1", "u3"]
    assert report.rejection_reasons == {"lat out of range": 1}
    # numeric strings coerce the same way the CSV path does
    assert records[1].lat == 41.2


def test_jsonl_bad_lines():
    text = "{not json}\n[1,2,3]\ntrue\n"
    records, report = parse_events(io.StringIO(text), format="jsonl")
    assert len(records) == 0
    assert report.rejected == 3
    assert report.rejection_reasons == {"bad json": 3}


def test_jsonl_boolean_coordinate_rejected():
    row = {"user_id": "u1", "timestamp": "2012-06-01T12:00:00Z", "lat": True,
           "lon": -3.7, "dataset_tag": "photo"}
    records, report = parse_events(io.StringIO(json.dumps(row)), format="jsonl")
    assert report.rejection_reasons == {"bad coordinate": 1}


def test_jsonl_huge_integer_coordinate_rejected():
    # float() of an integer beyond the double range raises OverflowError,
    # which once escaped ingest instead of rejecting the row
    row = '{"user_id": "u1", "timestamp": "2012-06-01", "lat": 1%s, "lon": 0, "dataset_tag": "t"}' % ("0" * 400)
    records, report = parse_events(io.StringIO(row + "\n"), format="jsonl")
    assert len(records) == 0
    assert report.rejection_reasons == {"bad coordinate": 1}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("key", ["lat", "extra"])
def test_jsonl_integer_past_the_digit_limit_is_bad_json(key, strict):
    # json's scanner raises a plain ValueError for an integer of more than
    # 4,300 digits (Python's int-string limit), which once escaped ingest
    fields = {"user_id": '"u1"', "timestamp": '"2012-06-01T12:00:00Z"', "lat": "40.5", "lon": "-3.7", "dataset_tag": '"t"'}
    good = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    fields[key] = "1" * 5000
    bad = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    text = "\n".join([good, bad, good]) + "\n"
    _same_outcome(text, "jsonl", strict)
    if strict:
        with pytest.raises(IngestError) as exc:
            parse_events(io.StringIO(text), format="jsonl", strict=True)
        assert (exc.value.line, exc.value.reason) == (2, "bad json")
    else:
        _, report = parse_events(io.StringIO(text), format="jsonl")
        assert (report.accepted, report.rejection_reasons) == (2, {"bad json": 1})


# a value nested deeper than the interpreter's recursion limit
DEEP_LINE = '{"a":' + "[" * 100_000


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("escaped", [False, True])  # a backslash sends the block to the line-by-line reader
def test_jsonl_line_nested_past_the_recursion_limit_is_bad_json(strict, escaped):
    # json's scanner raises RecursionError for such a line, which once
    # escaped ingest as a traceback
    good = '{"user_id": "u%s", "timestamp": "2012-06-01T12:00:00Z", "lat": 40.5, "lon": -3.7, "dataset_tag": "t"}'
    text = "\n".join([good % 1, DEEP_LINE, good % ("\\u00e9" if escaped else 2)]) + "\n"
    _same_outcome(text, "jsonl", strict)
    if strict:
        with pytest.raises(IngestError) as exc:
            parse_events(io.StringIO(text), format="jsonl", strict=True)
        assert (exc.value.line, exc.value.reason) == (2, "bad json")
    else:
        _, report = parse_events(io.StringIO(text), format="jsonl")
        assert (report.accepted, report.rejection_reasons) == (2, {"bad json": 1})


# --- the JSONL byte path's hazards --------------------------------------------

JSON_GOOD = '{"user_id":"u%s","timestamp":"2012-06-01T12:00:00Z","lat":40.5,"lon":-3.7,"dataset_tag":"t"}'


def test_jsonl_integer_minus_zero_is_positive_zero():
    # json reads the integer -0 as int 0, so the coordinate is +0.0; the
    # float -0.0 and the string "-0" stay negative
    text = '{"user_id":"u1","timestamp":"2012-06-01T12:00:00Z","lat":-0,"lon":-0.0,"dataset_tag":"t"}\n'
    text += '{"user_id":"u2","timestamp":"2012-06-01T12:00:00Z","lat":"-0","lon":-0,"dataset_tag":"t"}\n'
    table, _ = parse_events(io.StringIO(text), format="jsonl")
    assert [math.copysign(1, v) for v in table.lat.tolist() + table.lon.tolist()] == [1, -1, -1, 1]
    _same_outcome(text, "jsonl", False)


def test_jsonl_duplicate_canonical_key_takes_the_last_value():
    text = '{"user_id":"u1","lat":99,"timestamp":"2012-06-01T12:00:00Z","lat":40.5,"lon":-3.7,"dataset_tag":"t","user_id":"u2"}\n'
    table, report = parse_events(io.StringIO(text), format="jsonl")
    assert report.accepted == 1
    first = oracles.records(table)[0]
    assert (first.user_id, first.lat) == ("u2", 40.5)
    _same_outcome(text, "jsonl", False)


@pytest.mark.parametrize(
    "value",
    ["01", "1.", ".5", "+1", "-", "1e", "1e5e5", "0x1", "1 2", "\t1 \t2", "NaN", "-Infinity", "tru", "nul", "null",
     "true", "false", '"u\tv"', '"\x01"', '"a" "b"', '{"n": 1}', "[1]", "1" * 65, "-0", "1E400"],
)
def test_jsonl_unknown_key_value_parses_as_the_reference(value):
    # in a line json would otherwise accept, an unknown key's value decides
    # between an accepted row and bad json; the byte checks verify only
    # values they can tell apart, and leave the others to json's scanner
    for line in ((JSON_GOOD % 1)[:-1] + ',"x":' + value + "}", (JSON_GOOD % 1)[:-1] + ', "x": ' + value + " }"):
        _same_outcome(line + "\n", "jsonl", False)


def test_jsonl_infinite_latitude_is_out_of_range():
    # json reads 1e400 as float("inf"), a number, not a bad coordinate
    text = (JSON_GOOD % 1).replace("40.5", "1e400") + "\n"
    _, report = parse_events(io.StringIO(text), format="jsonl")
    assert report.rejection_reasons == {"lat out of range": 1}
    _same_outcome(text, "jsonl", False)


@pytest.mark.parametrize(
    "origin,reason",
    [("0", None), ("false", None), ("[]", None), ("{}", None), ('""', None), ("null", None), ('"ES"', None),
     ("1", "bad origin country"), ("true", "bad origin country"), ("[1]", "bad origin country"), ('"es"', "bad origin country")],
)
def test_jsonl_falsy_origin_declares_none(origin, reason):
    line = (JSON_GOOD % 1)[:-1] + ',"origin_country":%s}' % origin
    table, report = parse_events(io.StringIO(line + "\n"), format="jsonl")
    assert report.rejection_reasons == ({reason: 1} if reason else {})
    assert [e.origin_country for e in oracles.records(table)] == ([] if reason else ["ES" if origin == '"ES"' else None])
    _same_outcome(line + "\n", "jsonl", False)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(events_module, name)
    monkeypatch.setattr(events_module, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("strict", [False, True])
def test_jsonl_block_with_a_backslash_line_is_read_line_by_line(monkeypatch, strict):
    # an escape anywhere sends the whole block to json's scanner, line by line
    lines = [JSON_GOOD % i for i in range(20)]
    lines[7] = lines[7].replace('"u7"', '"u\\u00e9\\"7"')
    lines[12] = lines[12].replace("40.5", "200")
    text = "\n".join(lines) + "\n"
    calls = _count_calls(monkeypatch, "_list_chunks")
    _same_outcome(text, "jsonl", strict)
    assert calls
    table, _ = parse_events(io.StringIO(text), format="jsonl")
    assert oracles.records(table)[7].user_id == 'u\u00e9"7'


@pytest.mark.parametrize("block_bytes", [1, 16, 1 << 19])
def test_jsonl_strict_line_number_counts_blank_lines(monkeypatch, block_bytes):
    monkeypatch.setattr(events_module, "BLOCK_BYTES", block_bytes)
    bad = (JSON_GOOD % 9).replace("40.5", "200")
    text = "\n".join(["", JSON_GOOD % 1, "", "  ", "\t", JSON_GOOD % 2, "", bad, JSON_GOOD % 3]) + "\n"
    with pytest.raises(IngestError) as exc:
        parse_events(io.StringIO(text), format="jsonl", strict=True)
    assert (exc.value.line, exc.value.reason) == (8, "lat out of range")
    _same_outcome(text, "jsonl", True)


@pytest.mark.parametrize("strict", [False, True])
def test_jsonl_lines_longer_than_a_block_parse_as_the_reference(monkeypatch, strict):
    # a block ends at the first newline past BLOCK_BYTES, so each line here
    # is a block of its own; wide values take the list columns
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 32)
    lines = [JSON_GOOD % i for i in range(6)]
    lines[1] = lines[1].replace('"u1"', '"' + "w" * 100 + '"')
    lines[3] = lines[3].replace("40.5", "4" + "0" * 80 + ".5")
    lines[4] = lines[4].replace('"t"}', '"t","extra":[1, 2]}')
    text = "\n".join(lines) + "\n" + (JSON_GOOD % 6)[:30]
    _same_outcome(text, "jsonl", strict)


def test_settled_row_wider_than_its_block_column():
    # a row the checks cannot verify (a true value) but json accepts keeps
    # a user and tag wider than any verified one of its block
    long_line = (JSON_GOOD % ("_long_user_" * 3)).replace('"t"}', '"tag_longer","x":true}')
    text = "\n".join([JSON_GOOD % 1, long_line, JSON_GOOD % 2]) + "\n"
    table, _ = parse_events(io.StringIO(text), format="jsonl")
    assert [e.user_id for e in oracles.records(table)] == ["u1", "u_long_user__long_user__long_user_", "u2"]
    assert [e.dataset_tag for e in oracles.records(table)] == ["t", "tag_longer", "t"]
    _same_outcome(text, "jsonl", False)


def test_jsonl_of_nested_objects_is_read_as_dicts(monkeypatch):
    # most lines of the first block are not flat objects, so it is declined,
    # and the flat lines after it are read as dicts too
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 1 << 14)  # about 140 lines
    nested = [(JSON_GOOD % i).replace('"t"}', '"t","geo":{"n":%d}}' % i) for i in range(200)]
    text = "\n".join(nested + [JSON_GOOD % i for i in range(200, 400)]) + "\n"
    checked = _count_calls(monkeypatch, "_json_block")
    _same_outcome(text, "jsonl", False)
    assert len(checked) == 1


def test_clean_compact_jsonl_stays_on_the_byte_path(monkeypatch):
    # blocks without backslashes, carriage returns or NULs never reach the
    # line-by-line reader, whatever their rows; falling off the byte path
    # changes no output, so only this test would show it
    lines = [JSON_GOOD % i for i in range(40)]
    lines[3] = lines[3].replace("2012-06-01T12:00:00Z", "not-a-time")
    lines[5] = lines[5].replace("40.5", "95.5")
    lines[8] = lines[8].replace('"user_id":"u8",', "")
    lines[11] = lines[11][:40]  # cut off
    lines[14] = lines[14].replace('"t"}', '"t","origin_country":"ES"}')
    lines[17] = lines[17].replace('"u17"', '"ü用户"')
    lines[20] = lines[20].replace("40.5", '"41.2"')
    lines[23] = lines[23].replace("2012-06-01T12:00:00Z", "2012-06-01")
    lines[26] = lines[26].replace('"t"}', '"t","origin_country":"es"}')
    lines[29] = lines[29].replace('"u29"', "29")
    lines[32] = lines[32].replace('"t"}', '"t","origin_country":null}')
    text = "\n".join(lines) + "\n"
    want = oracles.parse_events(text, format="jsonl")
    assert want[1].accepted and want[1].rejected
    def refuse(*args):
        raise AssertionError("the line-by-line reader was called")

    monkeypatch.setattr(events_module, "_list_chunks", refuse)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 512)  # blocks of five or six lines
    looks = _count_calls(monkeypatch, "_second_look")
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        looks.clear()
        table, report = parse_events(source, format="jsonl")
        assert (oracles.records(table), report) == want
        # the lines handed to the second look: 3, 5, 8, 11, 23, 26 and 29;
        # the byte checks take the others
        assert sum(np.count_nonzero(flagged) for *_, flagged, _ in looks) == 7


def test_csv_round_trip_is_exact():
    stream = csv_stream(
        "u1,2012-06-01T12:00:00Z,40.123456789012345,-3.700000000000001,ES,photo",
        "u2,2012-12-31T23:59:59Z,-89.99999999999999,179.99999999999997,,photo",
    )
    table, _ = parse_events(stream)
    again, report = parse_events(io.StringIO(events_csv(table)))
    assert report.rejected == 0
    assert oracles.records(again) == oracles.records(table)


def test_report_json_shape():
    _, report = parse_events(csv_stream("u1,x,40.4,-3.7,,photo"))
    data = json.loads(report.to_json())
    assert data == {"accepted": 0, "rejected": 1, "rejection_reasons": {"bad timestamp": 1}}


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh0123456789_", min_size=1, max_size=8),
            st.integers(min_value=0, max_value=2**31 - 1),
            st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
            st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
            st.sampled_from([None, "ES", "FR", "US"]),
        ),
        max_size=30,
    )
)
def test_round_trip_property(raw):
    records = [
        EventRecord(
            uid,
            datetime.fromtimestamp(ts, tz=timezone.utc).replace(microsecond=0),
            lat,
            lon,
            origin,
            "synOK",
        )
        for uid, ts, lat, lon, origin in raw
    ]
    again, report = parse_events(io.StringIO(events_csv(table_of(records))))
    assert report.rejected == 0
    assert oracles.records(again) == records


def test_format_timestamp_round_trip():
    dt = datetime(2012, 2, 29, 23, 59, 59, tzinfo=timezone.utc)
    assert parse_timestamp(format_timestamp(dt)) == dt
    text = events_csv(table_of([EventRecord("u1", dt, 0.0, 0.0, None, "t")]))
    assert text.splitlines()[1].split(",")[1] == format_timestamp(dt)


# the accepted forms, mutated by up to three replacements, insertions or
# deletions of characters that a timestamp holds or that resemble them
STAMP_FORMS = ("2012-06-01", "2012-06-01T12:34Z", "2012-06-01T12:34:56Z", "2000-02-29T23:59:59.123456Z", "1900-02-28T00:00:00.5Z")
STAMP_CHARS = "0123456789-:TZz.+ \t\u0661\uff12"


def mutated_stamps(rnd: random.Random, n: int) -> list[str]:
    """n accepted forms, each mutated at uniformly drawn positions."""
    stamps = []
    for _ in range(n):
        value = rnd.choice(STAMP_FORMS)
        for _ in range(rnd.randint(0, 3)):
            i, char = rnd.randint(0, len(value)), rnd.choice(STAMP_CHARS)
            value = rnd.choice([value[:i] + char + value[i + 1 :], value[:i] + char + value[i:], value[:i] + value[i + 1 :]])
        stamps.append(value)
    return stamps


def _oracle_seconds(value: str) -> int | None:
    try:
        return (parse_timestamp(value) - oracles.EPOCH) // timedelta(seconds=1)
    except ValueError:
        return None


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_ingest_accepts_exactly_the_oracle_timestamps(rnd, ensure_ascii):
    # CSV fields are stripped; a quoted user sends CSV to csv.reader, and
    # escapes (tabs, or non-ASCII under ensure_ascii) send JSONL line by line
    stamps = mutated_stamps(rnd, 200)
    plain = "".join(f"u{i},{s},0,0,,t\n" for i, s in enumerate(stamps))
    quoted = "".join(f'"u{i}",{s},0,0,,t\n' for i, s in enumerate(stamps))
    jsonl = "".join(
        json.dumps({"user_id": f"u{i}", "timestamp": s, "lat": 0, "lon": 0, "dataset_tag": "t"}, ensure_ascii=ensure_ascii) + "\n"
        for i, s in enumerate(stamps)
    )
    stripped = [s.strip() for s in stamps]
    for format, text, values in (
        ("csv", f"{HEADER}\n{plain}", stripped), ("csv", f"{HEADER}\n{quoted}", stripped), ("jsonl", jsonl, stamps),
    ):
        table, report = parse_events(io.StringIO(text), format=format)
        want = {f"u{i}": seconds for i, v in enumerate(values) if (seconds := _oracle_seconds(v)) is not None}
        assert dict(zip((table.user_ids[u] for u in table.user.tolist()), table.seconds.tolist())) == want
        assert report.rejection_reasons.get("bad timestamp", 0) == sum(map(bool, values)) - len(want)


# --- columnar ingest against the row-by-row reference ---------------------------

# edge cases of the CSV byte path: multi-byte characters at field edges,
# and padding that str.strip removes but an ASCII whitespace test misses
EDGES = ["é", "ué", "\x1cu7", "u8\x85", " u9", "u\u3000"]
USERS = st.sampled_from(["u1", "u2", "u\x00", "u", "u\x00\x00", " u3 ", "", "ü", "u,4", 'u"5', "u6\r", *EDGES])
CANONICAL_STAMPS = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda dt: dt.strftime("%Y-%m-%dT%H:%M:%SZ").rjust(20, "0")
)
STAMPS = st.one_of(
    CANONICAL_STAMPS,
    st.sampled_from([
        "2012-06-01T12:00Z", "2012-06-01", "2012-06-01T12:00:00.25Z", " 2012-06-01T12:00:00Z ",
        "2012-13-01T00:00:00Z", "2012-02-30T00:00:00Z", "2012-06-01T12:00:00+0Z",
        "２０１２-06-01T12:00:00Z", "2012-06-01T12:0a:00Z", "not-a-time", "", "2012-06-01T12Z",
    ]),
)
NUMBER_EDGES = [
    "nan", "inf", "-0.0", "1e400", "abc", "", " 1.5", "1_0", "91", "-180", "0x10",
    "+.5e-3", "5.", ".5", "1e-400", "00012", "1e", "-",
]
NUMBERS = st.one_of(st.floats(min_value=-200, max_value=200).map(repr), st.sampled_from(NUMBER_EDGES))
ORIGINS = st.sampled_from(["", "ES", "FR", "es", "E1", "ESP", " DE "])
TAGS = st.sampled_from(["t", "photo", "", " t", *EDGES])
CSV_ROWS = st.lists(
    st.one_of(
        st.tuples(USERS, STAMPS, NUMBERS, NUMBERS, ORIGINS, TAGS).map(list),
        st.just([]),  # blank line
        st.lists(st.sampled_from(["u1", "2012-06-01", "1"]), max_size=3),  # short row
    ),
    max_size=40,
)
JSON_VALUES = st.one_of(
    st.floats(allow_nan=False, min_value=-200, max_value=200),
    st.integers(-200, 200),
    st.just(10**400),
    st.booleans(),
    st.none(),
    st.sampled_from(["1.5", "abc", "", "ES", "es", "2012-06-01T12:00:00Z", [], {}]),
)


class Raw(str):
    """A JSON text put into a line as it is, not through json.dumps."""


# number tokens as they may appear in a file: json reads "-0" as the int 0
RAW_NUMBERS = st.sampled_from(
    ["-0", "0", "-0.0", "12", "-7", "1e400", "-1E400", "4.05e1", "0.5e-3", "1e-400", "9" * 64, "1" + "0" * 300]
).map(Raw)
RAW_STRINGS = st.sampled_from(['"u\tv"', '"\x01"', '"t\x1f"', '"ES\t"']).map(Raw)  # control bytes json rejects
# values outside the JSON number grammar; json accepts NaN and -Infinity
RAW_OTHERS = st.sampled_from(
    ["01", "1.", ".5", "+1", "-", "1e", "0x1", "1_0", "1 2", "1e5e5", "1.2.3", "--1", "tru", "[1", "NaN", "-Infinity"]
).map(Raw)
COORDINATES = st.one_of(
    st.floats(-200, 200), st.integers(-200, 200), RAW_NUMBERS, RAW_OTHERS,
    st.sampled_from(["41.2", "-0", " 1.5", "nan", "1e400"]),
)
EXTRA_VALUES = st.one_of(
    JSON_VALUES, RAW_NUMBERS, RAW_STRINGS, RAW_OTHERS, st.just({"a": [1, {"b": None}]}), st.text(max_size=4), st.integers()
)
EXTRA_KEYS = st.sampled_from([*CANONICAL_COLUMNS, "text", "id", "lat ", "\u00fc", "user_id2"])
SEPARATORS = st.sampled_from([(", ", ": "), (",", ":"), (" , ", " : "), ("\t,", ":\t"), (",  ", ":")])
PADDING = st.sampled_from(["", " ", "\t", " \t "])
GOOD_FIELDS = st.fixed_dictionaries(
    {
        "user_id": st.sampled_from(["u1", "u2", "ü", " u3 ", "用户", "u\x85"]),
        "timestamp": st.one_of(CANONICAL_STAMPS, STAMPS),
        "lat": st.one_of(st.floats(-90, 90), st.integers(-90, 90), st.sampled_from(["-0", "0", "4.05e1"]).map(Raw)),
        "lon": st.one_of(st.floats(-180, 180), st.sampled_from(["-7", "-0.0", "1e-400"]).map(Raw), st.just("41.2")),
        "dataset_tag": st.sampled_from(["t", "photo", "é"]),
    },
    optional={"origin_country": st.sampled_from(["", "ES", "FR", None])},
)
ANY_FIELDS = st.fixed_dictionaries(
    {},
    optional={
        "user_id": st.one_of(USERS, JSON_VALUES, RAW_STRINGS),
        "timestamp": st.one_of(STAMPS, JSON_VALUES),
        "lat": st.one_of(st.floats(-100, 100), COORDINATES, JSON_VALUES),
        "lon": st.one_of(st.floats(-200, 200), COORDINATES, JSON_VALUES),
        "origin_country": st.one_of(ORIGINS, JSON_VALUES, RAW_STRINGS),
        "dataset_tag": st.one_of(TAGS, JSON_VALUES),
    },
)


def _json_text(value, ensure_ascii: bool) -> str:
    return value if isinstance(value, Raw) else json.dumps(value, ensure_ascii=ensure_ascii)


@st.composite
def json_objects(draw, fields=st.one_of(GOOD_FIELDS, ANY_FIELDS), extras=st.lists(st.tuples(EXTRA_KEYS, EXTRA_VALUES), max_size=2)) -> str:
    """One JSONL line: the canonical fields, with duplicate and extra keys,
    in any order, with any spacing, non-ASCII raw or escaped, and perhaps
    cut off."""
    pairs = draw(st.permutations(list(draw(fields).items()) + draw(extras)))
    ensure_ascii = draw(st.booleans())
    item, colon = draw(SEPARATORS)
    pad = draw(PADDING)
    body = item.join(json.dumps(k, ensure_ascii=ensure_ascii) + colon + _json_text(v, ensure_ascii) for k, v in pairs)
    line = pad + "{" + draw(PADDING) + body + draw(PADDING) + "}" + draw(PADDING)
    if draw(st.integers(0, 9)) == 0:  # an object cut off mid-line
        line = line[: draw(st.integers(0, len(line) - 1))]
    return line


# one extra value that json may reject, in a line it would otherwise accept
HAZARDS = st.tuples(st.sampled_from(["text", "id", "\u00fc"]), st.one_of(RAW_OTHERS, RAW_STRINGS, RAW_NUMBERS)).map(lambda p: [p])
JSON_LINES = st.lists(
    st.one_of(
        json_objects(),
        json_objects(GOOD_FIELDS, HAZARDS),
        st.sampled_from([
            "", "   ", "\t", "{not json", "[1, 2]", "7", '{"a": 1} {"b": 2}', "\ufeff{}", "{}", "\u3000",
            '\u3000{"user_id": "u1"}', '{"a": 1,}', '{"a": 01}', '{"a": 1.}', '{"a": .5}', '{"a": NaN}',
            '{"a" "b"}', '{"a": "b": "c"}', '{"a": 1 2}', '{"a":}', '{"a": "b" "c"}', '{"a": "b', "{,}",
            "\x1c", '\x1c{"user_id": "u1"}\x1d',
        ]),
    ),
    max_size=40,
)


def _same_outcome(text: str, format: str, strict: bool) -> None:
    try:
        want = oracles.parse_events(text, format=format, strict=strict)
    except (IngestError, csv.Error) as exc:  # csv.Error: a bare carriage return
        with pytest.raises(type(exc)) as got:
            parse_events(io.StringIO(text), format=format, strict=strict)
        assert str(got.value) == str(exc)
        return
    table, report = parse_events(io.StringIO(text), format=format, strict=strict)
    records, ref_report = want
    assert oracles.records(table) == records
    assert events_csv(table) == events_csv(table_of(records))  # tells -0.0 from 0.0
    assert report == ref_report
    assert list(table.user_ids) == sorted({r.user_id for r in records})


@settings(max_examples=300, deadline=None)
@given(
    CSV_ROWS,
    st.permutations(CANONICAL_COLUMNS),
    st.booleans(),
    st.sampled_from([(1, 1), (3, 100), (1 << 13, 1 << 19)]),
    st.booleans(),
)
def test_csv_ingest_matches_row_reference(rows, header, strict, sizes, final_newline):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    order = [CANONICAL_COLUMNS.index(c) for c in header]
    writer.writerows([row[i] for i in order] if len(row) == 6 else row for row in rows)
    text = buf.getvalue() if final_newline else buf.getvalue()[:-1]
    saved = events_module.CHUNK_ROWS, events_module.BLOCK_BYTES
    events_module.CHUNK_ROWS, events_module.BLOCK_BYTES = sizes  # rows csv.reader splits, bytes per block
    try:
        _same_outcome(text, "csv", strict)
    finally:
        events_module.CHUNK_ROWS, events_module.BLOCK_BYTES = saved


@settings(max_examples=300, deadline=None)
@given(JSON_LINES, st.booleans(), st.sampled_from([(1, 1), (3, 100), (1 << 13, 1 << 19)]), st.sampled_from(["", "\n"]))
def test_jsonl_ingest_matches_row_reference(lines, strict, sizes, end):
    saved = events_module.CHUNK_ROWS, events_module.BLOCK_BYTES
    events_module.CHUNK_ROWS, events_module.BLOCK_BYTES = sizes  # lines per chunk, bytes per block
    try:
        _same_outcome("\n".join(lines) + end, "jsonl", strict)
    finally:
        events_module.CHUNK_ROWS, events_module.BLOCK_BYTES = saved


def test_quoted_and_plain_chunks_parse_alike(monkeypatch):
    # plain blocks are split on commas; from the first block with a quote on,
    # csv.reader takes over, and a quoted field may span lines
    monkeypatch.setattr(events_module, "CHUNK_ROWS", 2)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 64)  # one or two rows
    rows = [f"u{i},2012-06-01T12:00:00Z,1.5,2.5,,t" for i in range(5)]
    rows[3] = '"u,3",2012-06-01T12:00:00Z,1.5,2.5,,"t\nx"'
    text = HEADER + "\n" + "\n".join(rows) + "\n\nshort,row\n"
    table, report = parse_events(io.StringIO(text))
    assert [e.user_id for e in oracles.records(table)] == ["u0", "u1", "u2", "u,3", "u4"]
    assert [e.dataset_tag for e in oracles.records(table)] == ["t", "t", "t", "t\nx", "t"]
    assert report.rejection_reasons == {"missing field": 1}
    with pytest.raises(IngestError) as exc:
        parse_events(io.StringIO(text), strict=True)
    assert exc.value.line == 8  # rows, not physical lines: the quoted newline is inside row 5
    # the last row may lack its newline, in a plain chunk as in a quoted one
    for last in ("u9,2012-06-01T12:00:00Z,1.5,2.5,,t", '"u9",2012-06-01T12:00:00Z,1.5,2.5,,t'):
        table, _ = parse_events(io.StringIO(HEADER + "\n" + last))
        assert [(e.user_id, e.dataset_tag) for e in oracles.records(table)] == [("u9", "t")]


def test_clean_utf8_csv_stays_on_the_byte_path(monkeypatch):
    # chunks without quotes, carriage returns or NULs never reach csv.reader,
    # whatever their padding or non-ASCII text: falling off the byte path
    # changes no output, so only this test would show it
    clean = ["u1", "2012-06-01T12:00:00Z", "40.5", "-3.7", "", "t"]
    variants = [  # per column, values to put in an otherwise clean row
        ["é", "ué", "用户", " u3 ", "\x1cu7", "u8\x85", "u\u3000"],
        [" 2012-06-02T00:00:00Z", "2012-06-03", "2012-06-01T12:00Z\u3000"],
        [" 41", "\u30001e-3", "95", "-0.0", "１.5"],
        ["2.1 ", "-"],
        [" DE ", "es", "ES\x85", "FR"],
        [" photo", "t\u3000", "é", "\x1ft"],
    ]
    rows = [",".join(clean[:k] + [value] + clean[k + 1 :]) for k, values in enumerate(variants) for value in values]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    want = oracles.parse_events(text)
    assert want[1].accepted and want[1].rejected
    real_reader = csv.reader
    calls = []
    monkeypatch.setattr(events_module.csv, "reader", lambda *a, **k: calls.append(a) or real_reader(*a, **k))
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 128)  # blocks of two to four rows
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        calls.clear()
        table, report = parse_events(source)
        assert not calls  # not even for the header
        assert (oracles.records(table), report) == want
        assert list(table.user_ids) == sorted({r.user_id for r in want[0]})


def _outcome(parse, value):
    try:
        return parse(value)
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize(
    "value",
    NUMBER_EDGES + [
        "17.453165111961056", "5e-324", "1.7976931348623157e+308", "-nan", "Infinity", "1__0", "_1",
        "1_", "0b1", "1e+", ".", "e5", "1.5 ", "\t2", "1.5j", "１.5", "½",
    ],
)
def test_numpy_byte_cast_parses_as_float(value):
    # the byte path casts coordinate columns with numpy and trusts every value
    # the cast accepts, so the cast may reject more strings than float but
    # must never accept one float rejects, nor read one differently (a NUL,
    # which S arrays drop from the end, never takes that path)
    got = _outcome(lambda v: np.array([v.encode()], dtype="S").astype(np.float64)[0], value)
    if got != "ValueError":
        want = _outcome(float, value)
        assert want != "ValueError"
        assert math.isnan(got) and math.isnan(want) or got == want and math.copysign(1, got) == math.copysign(1, want)


def test_wide_fields_keep_chunk_memory_in_proportion_to_the_text(monkeypatch):
    # a field wider than the fixed-width columns allow is read as a Python
    # string: memory follows the text, not rows times the widest field, and
    # the block stays on the byte path
    wide = 100_000
    clean = ["u1", "2012-06-01T12:00:00Z", "40.5", "-3.7", "", "t"]
    long_values = [  # one per block: column, value
        (0, "v" * wide),  # accepted user
        (4, "X" * wide),  # rejected origin
        (5, " " + "g" * wide),  # accepted padded tag
        (2, "1." + "0" * wide),  # accepted coordinate
        (4, "ES" + " " * wide),  # accepted padded origin
        (3, "9" * wide),  # coordinate out of range
    ]
    spacing = 256  # rows from one wide value to the next, more than a block holds
    rows = [",".join(clean)] * (spacing * len(long_values))
    for k, (column, value) in enumerate(long_values):
        fields = list(clean)
        fields[column] = value
        rows[k * spacing + 7] = ",".join(fields)
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    want = oracles.parse_events(text)
    assert want[1].rejection_reasons == {"bad origin country": 1, "lon out of range": 1}
    real_reader = csv.reader
    calls = []
    monkeypatch.setattr(events_module.csv, "reader", lambda *a, **k: calls.append(a) or real_reader(*a, **k))
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 8192)  # about 230 rows
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        table, report = parse_events(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not calls
    assert (oracles.records(table), report) == want
    assert peak < 40 * wide  # about 1.1 MB; rows times the widest field would be 25.6 MB a column


def test_user_ids_keep_trailing_nuls():
    # numpy's fixed-width strings drop trailing NULs, which would merge these
    # users; codes come from Python strings and Python's sort order
    users = ["u\x00", "u", "u\x00\x00", "t\x00", "u"]
    text = "".join(
        json.dumps({"user_id": u, "timestamp": "2012-06-01", "lat": 0, "lon": 0, "dataset_tag": "t"}) + "\n"
        for u in users
    )
    table, report = parse_events(io.StringIO(text), format="jsonl")
    assert report.accepted == 5
    assert table.user_ids == ("t\x00", "u", "u\x00", "u\x00\x00")
    assert [e.user_id for e in oracles.records(table)] == users
    again, _ = parse_events(io.StringIO(events_csv(table)))
    assert [e.user_id for e in oracles.records(again)] == users


@pytest.mark.parametrize("build", ["parse", "from_columns"])
def test_table_columns_are_read_only(build):
    table, _ = parse_events(csv_stream("u1,2012-06-01T12:00:00Z,40.4,-3.7,ES,t"))
    if build == "from_columns":
        table = table_of(oracles.records(table))
    for name in ("user", "seconds", "lat", "lon", "origin", "tag"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0] = 0


def test_from_columns_needs_columns_of_one_length():
    assert len(EventTable.from_columns([], [], [], [], [], [])) == 0
    with pytest.raises(ValueError, match="differ in length"):
        EventTable.from_columns(["u1", "u2"], [0], [0.0], [0.0], [None], ["t"])


# --- the CSV block reader against csv.reader alone ----------------------------

GOOD = "u{},2012-06-01T12:00:00Z,40.5,-3.7,,t"
BAD = "u9,2012-06-01T12:00:00Z,200.0,-3.7,,t"  # lat out of range
# each case holds one bad row, so strict mode's line number is compared too
BLOCK_CASES = {
    "plain block, then a quoted field": "\n".join(
        [HEADER] + [GOOD.format(i) for i in range(8)] + ['"u,8",2012-06-01T12:00:00Z,40.5,-3.7,,"t\nx"', BAD, GOOD.format(9)]
    ) + "\n",
    "multi-byte characters at block cuts": "\n".join(
        [HEADER] + [GOOD.format("é" * (i % 3) + "用" * (i % 2)) for i in range(12)] + [BAD.replace("u9", "ü9"), GOOD.format("ß")]
    ) + "\n",
    "no trailing newline": "\n".join([HEADER] + [GOOD.format(i) for i in range(6)] + [BAD, GOOD.format(7)]),
    "CRLF lines after LF lines": "\n".join([HEADER] + [GOOD.format(i) for i in range(6)]) + "\n"
    + "\r\n".join([GOOD.format(6), BAD, GOOD.format(7)]) + "\r\n",
    "CRLF header": "\r\n".join([HEADER, GOOD.format(1), BAD]) + "\r\n",
    "blank lines": "\n\n\n" + "\n".join([HEADER, "", GOOD.format(1)] + [""] * 5 + [GOOD.format(2), BAD, "", ""]) + "\n\n",
}
SOURCES = {  # ours, then the stream csv.reader alone reads
    "path": (lambda data, path: path, lambda data, path: open(path, encoding="utf-8", newline="")),
    "bytes": (lambda data, path: io.BytesIO(data), lambda data, path: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")),
    "text": (lambda data, path: io.StringIO(data.decode()), lambda data, path: io.StringIO(data.decode())),
}


def _outcome_of(parse, source, strict):
    try:
        return parse(source, strict=strict)
    except IngestError as exc:
        return exc.line, exc.reason


@pytest.mark.parametrize("block_bytes", [1, 7, 16, 23, 40, 64, 1 << 19])
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_reader_matches_csv_reader(tmp_path, monkeypatch, case, source, block_bytes):
    data = BLOCK_CASES[case].encode()
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    ours, reference = SOURCES[source]
    monkeypatch.setattr(events_module, "BLOCK_BYTES", block_bytes)
    for strict in (False, True):
        with reference(data, path) as stream:
            want = _outcome_of(oracles.parse_events, stream, strict)
        got = _outcome_of(parse_rows, ours(data, path), strict)
        assert got == want
    assert isinstance(want[0], int)  # strict mode stopped at the bad row


@pytest.mark.parametrize("source", SOURCES)
def test_bad_row_fails_before_undecodable_bytes_in_a_later_block(tmp_path, monkeypatch, source):
    # the bad row is settled from its own block before the block holding
    # the undecodable bytes is read; a text stream raises on its read
    rows = [HEADER, GOOD.format(1), BAD] + [GOOD.format(2)] * 500
    data = ("\n".join(rows) + "\n").encode() + b"u\xff\xfe,2012-06-01T12:00:00Z,40.5,-3.7,,t\n"
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 256)

    def parse(strict):
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") if source == "text" else SOURCES[source][0](data, path)
        return parse_events(stream, strict=strict)

    with pytest.raises(IngestError) as exc:
        parse(strict=True)
    assert (exc.value.line, exc.value.reason) == (3, "lat out of range")
    with pytest.raises(UnicodeDecodeError):
        parse(strict=False)
    # csv.reader alone agrees: the bytes lie past its text decoder's first read
    with pytest.raises(IngestError) as exc:
        oracles.parse_events(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""), strict=True)
    assert exc.value.line == 3


# --- the second look at scale ---------------------------------------------------

def _count_blocks(monkeypatch):
    sizes = []
    real = events_module._blocks

    def counted(source):
        for data in real(source):
            sizes.append(len(data))
            yield data

    monkeypatch.setattr(events_module, "_blocks", counted)
    return sizes


def _decided_in_batches(monkeypatch, text, format, reader, block_bytes):
    """Parse ``text`` as the row reference does, and check that ``reader``,
    the format's field reader, ran once per block, every block holding rows
    that only it accepts.  A CSV stays on the byte path."""
    records, ref_report = oracles.parse_events(text, format=format)
    if format == "csv":
        monkeypatch.setattr(events_module.csv, "reader", lambda *a, **k: pytest.fail("csv.reader was called"))
    monkeypatch.setattr(events_module, "BLOCK_BYTES", block_bytes)
    blocks = _count_blocks(monkeypatch)
    calls = _count_calls(monkeypatch, reader)
    table, report = parse_events(io.StringIO(text), format=format)
    assert report == ref_report and report.accepted == 20_000
    assert oracles.records(table) == records
    assert len(calls) == len(blocks) > 1


@pytest.mark.parametrize("block_bytes", [1 << 19, 4096])
def test_csv_rows_accepted_on_the_second_look_decide_in_batches(monkeypatch, block_bytes):
    # every row is flagged by the byte checks, for its date-only timestamp
    # and its padded user id; one id in 1,000 is padded past 64 bytes, so
    # that block's user column is a list of str
    rows = [
        f"{' ' * (i % 5)}u{i}{' ' * (80 if i % 1000 == 7 else i % 3)},2012-06-{1 + i % 28:02d},40.5,-3.7,,t"
        for i in range(20_000)
    ]
    _decided_in_batches(monkeypatch, HEADER + "\n" + "\n".join(rows) + "\n", "csv", "_row_fields", block_bytes)


@pytest.mark.parametrize("block_bytes", [1 << 19, 4096])
@pytest.mark.parametrize("every", [1, 2])
def test_jsonl_rows_accepted_on_the_second_look_decide_in_batches(monkeypatch, block_bytes, every):
    # a true value is outside the byte checks' grammar, so every such line
    # is decoded by json.  When every line holds one, a 512 KB block is
    # declined and read line by line, while a 4 KB block, of fewer than
    # _DECLINE_LINES lines, stays on the byte path; there the lines' longer
    # user ids do not fit the block's user column, sized without them
    lines = [
        (JSON_GOOD % f"ser_{i:06d}").replace('"t"}', '"t","x":true}') if i % every == 0 else JSON_GOOD % i
        for i in range(20_000)
    ]
    _decided_in_batches(monkeypatch, "\n".join(lines) + "\n", "jsonl", "_json_fields", block_bytes)
