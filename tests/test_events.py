"""Ingestion: field validation, rejection accounting, round-trips."""

import bisect
import calendar
import csv
import dataclasses
import itertools
import io
import json
import math
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import compress

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import cityattract.events as events_module
from cityattract.events import (
    CANONICAL_COLUMNS,
    EventTable,
    Ids,
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


def garbled(dt: datetime, edits: list[tuple[int, int]]) -> bytes:
    """A datetime in the canonical form with the bytes at some positions
    replaced."""
    value = bytearray(format_timestamp(dt).encode())
    for i, byte in edits:
        value[i] = byte
    return bytes(value)


# canonical values from a few months and from the whole calendar, with
# garbage over some digits or separators; each is decoded (True) or not
DECODER_ROWS = st.tuples(
    st.builds(
        garbled,
        st.one_of(
            st.datetimes(min_value=datetime(2011, 12, 1), max_value=datetime(2012, 3, 1)),
            st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        ),
        st.lists(st.tuples(st.integers(0, 19), st.integers(0, 255)), max_size=2),
    ),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(DECODER_ROWS, max_size=30))
@example([
    (b"0001-01-01T00:00:00Z", True), (b"9999-12-31T23:59:59Z", True), (b"99\xff9-12-31T23:59:59Z", True),
    (b"2012-13-01T00:00:00Z", True), (b"2012-02-30T00:00:00Z", True), (b"2012-02-29T23:59:59Z", False),
    (b"0000-01-01T00:00:00Z", True), (b"2012-0:-01T00:00:00Z", True), (b"2012-02-29T23:59:59Z", True),
])
@example([(b"2012-02-29T23:59:59Z", True), (b"9\xff99-12-01T00:00:00Z", True), (b"2013-01-31T00:00:00Z", True)])
def test_decode_stamps_matches_the_oracle(rows):
    # the good rows' months are looked up in the span they cover, which for
    # years 0001 and 9999 in one call is 119,988 months
    fixed = np.array([decoded for _, decoded in rows], dtype=bool)
    raw = np.frombuffer(b"".join(v for v, decoded in rows if decoded), dtype=np.uint8).reshape(-1, 20)
    seconds, ok = events_module._decode_stamps(fixed, raw)
    want = [_oracle_seconds(v.decode("latin-1")) if decoded else None for v, decoded in rows]
    assert ok.tolist() == [w is not None for w in want]
    assert seconds[ok].tolist() == [w for w in want if w is not None]


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
RAW_STRINGS = st.sampled_from(['"u\tv"', '"\x01"', '"t\x1f"', '"ES\t"', '"u\r"', '"\x00"']).map(Raw)  # control bytes json rejects
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
SEPARATORS = st.sampled_from([(", ", ": "), (",", ":"), (" , ", " : "), ("\t,", ":\t"), (",  ", ":"), ("\r,", ":\r")])
PADDING = st.sampled_from(["", " ", "\t", " \t ", "\r"])
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
            "\x1c", '\x1c{"user_id": "u1"}\x1d', "\x00", '{"a": 1}\r{"b": 2}', "\r",
        ]),
    ),
    max_size=40,
)


def _same_outcome(text: str, format: str, strict: bool) -> EventTable | None:
    """The parse of ``text``, checked against the row reference, sorted ids
    included; None when the reference raises, and the parse with it."""
    try:
        want = oracles.parse_events(text, format=format, strict=strict)
    except IngestError as exc:
        with pytest.raises(type(exc)) as got:
            parse_events(io.StringIO(text), format=format, strict=strict)
        assert str(got.value) == str(exc)
        return None
    table, report = parse_events(io.StringIO(text), format=format, strict=strict)
    records, ref_report = want
    assert oracles.records(table) == records
    assert events_csv(table) == events_csv(table_of(records))  # tells -0.0 from 0.0
    assert report == ref_report
    assert list(table.user_ids) == sorted({r.user_id for r in records})
    assert list(table.origin_ids) == sorted({r.origin_country for r in records} - {None})
    assert list(table.tag_ids) == sorted({r.dataset_tag for r in records})
    return table


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


def _field_floats(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The byte path's floats of the values as the fields of one line, and
    the mask of those that ``_decimals`` decoded."""
    data = ",".join(values).encode() + b"\n"
    length = np.array([len(v.encode()) for v in values])
    start = np.concatenate(([0], np.cumsum(length + 1)[:-1]))
    padded = events_module._padded(data)
    return events_module._byte_floats(data, padded, start, length), events_module._decimals(padded, start, length)[0]


def _same_float(got: float, value: str) -> bool:
    """Whether ``got`` is ``float(value)`` bit for bit, or NaN where that raises."""
    want = _outcome(float, value)
    if want == "ValueError" or math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1, got) == math.copysign(1, want)


# longdouble quotients of these lie exactly halfway between two float64
# values, and rounding them to float64 is 1 ulp off
HALFWAY_QUOTIENTS = [
    "312.122369612898666", "37.008290659816236", "-37.008290659816236", "67.30396244981970",
    "712.2099973976608567", "78.3522638832006848",
]
DECIMAL_EDGES = [
    "9007199254740993.0", "12345678.5", "-99999999.25", "123456789.5", "0.1234567890123456",
    "1.0000000000000002", "0.12345678901234567", "123.4567890123456789", "99999999.99999999999",
    "99999999.999999999999", "12345678.123456789012", "-0.0", "00012.5", "0.0", "-90.000", "180.0000000000000001",
]
DECIMALS = st.builds(
    "{}{}.{}".format,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=10),
    st.text("0123456789", max_size=19),
)
FLOAT_TEXTS = st.lists(
    st.one_of(
        DECIMALS,
        st.floats(allow_nan=False).map(repr),
        st.floats(-200, 200).map("{:.17f}".format),
        st.sampled_from(NUMBER_EDGES),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=500, deadline=None)
@given(FLOAT_TEXTS)
@example(HALFWAY_QUOTIENTS)
@example(DECIMAL_EDGES)
@example(NUMBER_EDGES)
def test_byte_path_floats_are_float_bit_for_bit(values):
    floats, _ = _field_floats(values)
    for value, got in zip(values, floats.tolist()):
        assert _same_float(got, value), value


@settings(max_examples=100, deadline=None)
@given(FLOAT_TEXTS)
@example(HALFWAY_QUOTIENTS + DECIMAL_EDGES)
def test_without_an_exact_longdouble_quotient_every_value_takes_the_cast(values):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events_module, "_EXACT_QUOTIENT", False)
        floats, decoded = _field_floats(values)
    assert not decoded.any()
    for value, got in zip(values, floats.tolist()):
        assert _same_float(got, value), value


@pytest.mark.parametrize(
    "value, decoded",
    [
        ("12345678.5", True), ("-99999999.25", True), ("123456789.5", False),  # 8 and 9 integer digits
        ("0.1234567890123456", True), ("0.12345678901234567", False),  # 16 and 17 fraction digits
        ("123.4567890123456789", True), ("99999999.99999999999", True),  # 19 digits
        ("12345678.123456789012", False), ("99999999.999999999999", False),  # 20 digits
        ("-0.0", True), ("00012.5", True), ("9007199254740993.0", False),
        ("+1.5", False), (".5", False), ("5.", False), ("5", False), ("1e5", False), ("1_0.5", False),
        ("--1.5", False), ("1.5 ", False), ("１.5", False), ("1.2.3", False), ("", False),
        *((value, False) for value in HALFWAY_QUOTIENTS),
        # the one value of the grammar whose quotient lies halfway below a
        # power of two (2**19); float rounds it up, as the quotient would
        ("524287.9999999999709", False),
    ],
)
def test_decimals_take_exactly_their_grammar_less_the_halfway_quotients(value, decoded):
    floats, mask = _field_floats(["1.5", value, "-2.25"])
    assert mask.tolist() == [True, decoded, True]
    assert _same_float(floats[1], value)


def test_numeric_columns_fill_across_chunks_from_a_capacity_of_one(monkeypatch):
    monkeypatch.setattr(events_module, "_FIRST_CAPACITY", 1)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 256)  # blocks of about five rows
    rows = [
        f"u{i % 7},2012-{1 + i % 12:02d}-{1 + i % 28:02d}T{i % 24:02d}:00:00Z,{i / 7 - 40:.6f},{i / 3:.13f},"
        f"{'ES' if i % 3 else ''},t{i % 2}"
        for i in range(400)
    ]
    rows[123] = "u1,2012-06-01T12:00:00Z,91.5,0.5,,t"  # rejected
    rows[300] = 'u1,2012-06-01T12:00:00Z,1.5,"2.5",,t'  # csv.reader reads from here on
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    table, report = parse_events(io.StringIO(text))
    assert (oracles.records(table), report) == oracles.parse_events(text)
    assert table.seconds.shape == table.lat.shape == table.lon.shape == (399,)


# --- string columns: one buffer each, coded where it lies ---------------------

def _string_kinds(monkeypatch, text: str, format: str = "csv") -> list:
    """Per chunk that the parse of ``text`` appends to its table, whether
    the user, origin and tag columns are ``S`` arrays rather than lists."""
    kinds = []
    real = events_module._TableAccumulator.append

    def recorded(self, users, seconds, lat, lon, origins, tags):
        kinds.append(tuple(isinstance(c, np.ndarray) for c in (users, origins, tags)))
        real(self, users, seconds, lat, lon, origins, tags)

    with monkeypatch.context() as patched:
        patched.setattr(events_module._TableAccumulator, "append", recorded)
        parse_events(io.StringIO(text), format=format)
    return kinds


def test_string_buffers_grow_and_widen_from_a_capacity_of_one(monkeypatch):
    # user ids and tags widen from block to block, and a narrow block
    # follows the wide ones; every block stays on the byte path, so every
    # string column arrives as an S array
    monkeypatch.setattr(events_module, "_FIRST_CAPACITY", 1)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 256)  # blocks of about five rows
    rows = [
        f"{'u' * (1 + i // 40)}{i % 9},2012-06-01T12:00:00Z,{i / 7 - 40:.6f},1.5,{'FR' if i % 4 else ''},t{'x' * (i // 60)}"
        for i in range(300)
    ]
    rows[250:] = [f"v{i % 3},2012-06-01T12:00:00Z,1.5,1.5,,t" for i in range(50)]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    assert len(_same_outcome(text, "csv", False)) == 300
    kinds = _string_kinds(monkeypatch, text)
    assert len(kinds) > 50
    assert set(kinds) == {(True, True, True)}


def test_user_field_widens_in_a_later_block(monkeypatch):
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 128)
    rows = [f"u{i},2012-06-01T12:00:00Z,1.5,1.5,,t" for i in range(10)]
    rows += [f"user_{'é' * (i % 2)}{i:040d},2012-06-01T12:00:00Z,1.5,1.5,,t" for i in range(10)]
    table = _same_outcome(HEADER + "\n" + "\n".join(rows) + "\n", "csv", False)
    assert table.user_ids[:2] == ("u0", "u1")


def test_csv_byte_and_list_columns_keep_row_order(monkeypatch):
    # blocks of one or two rows: S columns; a user past 64 bytes, read as
    # str; S columns again, one block with a padded non-ASCII row that the
    # second look patches in; then csv.reader from the quoted row on
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 64)
    rows = [f"u{i},2012-06-01T12:00:00Z,1.5,1.5,{'ES' if i % 2 else ''},t{i % 3}" for i in range(24)]
    rows[4] = "w" * 70 + ",2012-06-01T12:00:00Z,1.5,1.5,,t"
    rows[9] = " padded_user_é ,2012-06-01T12:00:00Z,1.5,1.5,FR,é"
    rows[12] = "u12,2012-06-01T12:00:00Z,91.5,1.5,,t"  # rejected
    rows[18] = '"u,18",2012-06-01T12:00:00Z,1.5,1.5,,"t"'
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    _same_outcome(text, "csv", False)
    users = [k[0] for k in _string_kinds(monkeypatch, text)]
    assert users[0] and users[-1] is False
    assert any(not a and b for a, b in zip(users, users[1:]))  # a byte chunk after a list chunk


def test_jsonl_byte_and_list_columns_keep_row_order(monkeypatch):
    # blocks of about three lines: byte-path blocks; a block with a
    # backslash, read by json's scanner; a flagged line wider than its
    # block's user and tag columns; a declined block, after which the
    # scanner reads the rest
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 256)
    monkeypatch.setattr(events_module, "_DECLINE_LINES", 0)
    lines = [JSON_GOOD % i for i in range(40)]
    lines[5] = lines[5].replace('"u5"', '"u\\u00e95"')
    lines[6] = lines[6].replace('"t"}', '"t","origin_country":"DE"}')
    lines[13] = (JSON_GOOD % "_a_much_longer_user").replace('"t"}', '"tag_longer","x":true}')
    lines[14] = lines[14].replace("40.5", "95.5")  # rejected
    for i in range(27, 40):
        lines[i] = lines[i].replace('"t"}', '"t%d","geo":{"n":1}}' % (i % 2))
    text = "\n".join(lines) + "\n"
    _same_outcome(text, "jsonl", False)
    users = [k[0] for k in _string_kinds(monkeypatch, text, "jsonl")]
    assert users[0] and users[-1] is False
    assert any(not a and b for a, b in zip(users, users[1:]))


@pytest.mark.parametrize(
    "rows, users, origins, tags",
    [
        (["u1,2012-06-01T12:00:00Z,1.5,1.5,,t"] * 3, ("u1",), (), ("t",)),  # all-empty origins
        (["u1,2012-06-01T12:00:00Z,1.5,1.5,ES,é", "u2,2012-06-01T12:00:00Z,1.5,1.5,ES,é"], ("u1", "u2"), ("ES",), ("é",)),
        (["ü,2012-06-01T12:00:00Z,1.5,1.5,FR,t"], ("ü",), ("FR",), ("t",)),  # a single row
        (["u1,2012-06-01T12:00:00Z,91.5,1.5,ES,t"], (), (), ()),  # no accepted row
    ],
)
def test_one_value_columns_are_coded_without_a_sort(monkeypatch, rows, users, origins, tags):
    sorted_values = []
    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: sorted_values.append(np.array(a)) or real_argsort(a, *args, **kw))
    table = _same_outcome(HEADER + "\n" + "\n".join(rows) + "\n", "csv", False)
    assert (table.user_ids, table.origin_ids, table.tag_ids) == (users, origins, tags)
    assert table.origin.tolist() == [0 if origins else -1] * len(table)
    assert table.tag.tolist() == [0] * len(table)
    assert all(len(set(values.tolist())) > 1 for values in sorted_values)
    assert len(sorted_values) == (len(users) > 1)


@pytest.mark.parametrize("kind", ["bytes", "list"])
def test_a_lone_string_buffer_is_coded_without_a_copy(monkeypatch, kind):
    accumulator = events_module._TableAccumulator()
    users = ["u2", "u1", "u2"]
    columns = (users, [1, 2, 3], [1.5] * 3, [2.5] * 3, ["ES", None, "FR"], ["t"] * 3)
    if kind == "bytes":
        columns = (np.array([u.encode() for u in users]), *columns[1:4], np.array([b"ES", b"", b"FR"]), np.array([b"t"] * 3))
    accumulator.append(*columns)
    monkeypatch.setattr(np, "concatenate", lambda *a, **k: pytest.fail("np.concatenate was called"))
    table = accumulator.table()
    assert [table.user_ids[c] for c in table.user] == users
    assert table.origin.tolist() == [0, -1, 1] and table.tag.tolist() == [0, 0, 0]


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


ID_TEXT = st.one_of(st.text(max_size=6), st.text(st.sampled_from(["a", "b", "\x00", "é", "\U0001f600"]), max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.lists(ID_TEXT, max_size=12), st.lists(ID_TEXT, max_size=4), st.data())
@example(["", "a\x00b", "a\x00", "a", "\x00", "é", "\U0001f600", "b"], ["a\x00\x00", "c"], None)
def test_ids_behave_like_a_sorted_tuple_of_str(strs, probes, data):
    # the table's ids against tuple(sorted(set(strs))): inner and trailing
    # NULs, non-ASCII and astral characters and the empty string stay
    # distinct and in Python's string order
    want = tuple(sorted(set(strs)))
    n = len(strs)
    ids = EventTable.from_columns(strs, [0] * n, [0.0] * n, [0.0] * n, [None] * n, ["t"] * n).user_ids
    assert isinstance(ids, Ids)
    assert len(ids) == len(want) and list(ids) == list(want)
    for i in range(-len(want), len(want)):
        assert ids[i] == want[i]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            ids[i]
    slices = [slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(1, 5, 2), slice(5, 1), slice(-3, 99)]
    if data is not None:
        bound = st.one_of(st.none(), st.integers(-8, 8))
        slices.append(slice(data.draw(bound), data.draw(bound), data.draw(st.one_of(st.none(), st.integers(1, 3), st.integers(-3, -1)))))
    for part in slices:
        assert ids[part] == want[part]
    for probe in [*strs, *probes]:
        assert bisect.bisect_left(ids, probe) == bisect.bisect_left(want, probe)
    assert ids == want and want == ids and not ids != want and not want != ids
    for other in (want[:-1], (*want, "\U0010ffff"), want[::-1], ("x",)):
        if other != want:
            assert ids != other and other != ids and not ids == other


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_ids_merge_byte_and_list_path_blocks(monkeypatch, format):
    # byte-path blocks, then a list-path block (a quoted CSV row, after which
    # csv.reader reads the rest; a JSONL block with a backslash escape, after
    # which the byte path resumes): ids from both paths interleave in order
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 256)
    users = [f"u{i % 7}{'b' * (i % 3)}" for i in range(60)]
    users[30:33] = ["u3", "u0a", "uzé"]
    if format == "csv":
        rows = [f"{u},2012-06-01T12:00:00Z,1.5,1.5,,t" for u in users]
        rows[31] = '"u0a",2012-06-01T12:00:00Z,1.5,1.5,,t'
        text = HEADER + "\n" + "\n".join(rows) + "\n"
    else:
        lines = [JSON_GOOD % u[1:] for u in users]
        lines[31] = lines[31].replace('"u0a"', '"u0\\u0061"')
        text = "\n".join(lines) + "\n"
    kinds = [k[0] for k in _string_kinds(monkeypatch, text, format)]
    assert True in kinds and False in kinds
    table, _ = parse_events(io.StringIO(text), format=format)
    records, _ = oracles.parse_events(text, format=format)
    assert table.user_ids == tuple(sorted({r.user_id for r in records}))
    assert [table.user_ids[c] for c in table.user.tolist()] == [r.user_id for r in records] == users


def test_user_ids_and_one_valued_code_columns_stay_compact():
    # 50k distinct short user ids take about 10 bytes each as one byte string
    # and int32 offsets, where a tuple of str takes about 65; a column that
    # holds one tag is a zero-stride view, not 4 bytes a row
    n = 50_000
    text = HEADER + "\n" + "".join(f"u{i},2012-06-01T12:00:00Z,1.5,1.5,,t\n" for i in range(n))
    tracemalloc.start()
    try:
        table, _ = parse_events(io.StringIO(text))
        held = tracemalloc.get_traced_memory()[0]
        without_ids = dataclasses.replace(table, user_ids=())
        del table
        ids_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(without_ids) == n
    assert ids_bytes <= 24 * n
    assert without_ids.tag.strides == (0,) and without_ids.origin.strides == (0,)
    assert not without_ids.tag.flags.writeable


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
    "extra field between plain blocks": "\n".join(
        [HEADER] + [GOOD.format(i) for i in range(6)] + [GOOD.format(6) + ",x", BAD] + [GOOD.format(i) for i in range(7, 13)]
    ) + "\n",
    "CR, NUL and blank lines between plain blocks": "\n".join(
        [HEADER] + [GOOD.format(i) for i in range(4)] + [GOOD.format(4) + "\r"] + [GOOD.format(i) for i in range(5, 9)]
        + ["", GOOD.format("\0"), BAD] + [GOOD.format(i) for i in range(10, 14)]
    ) + "\n",
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


# --- one line rule per format, whatever the source ------------------------------

JSON_BAD = (JSON_GOOD % 9).replace("40.5", "95.5")  # lat out of range
# each case holds one bad row, so strict mode's line number is compared too
CROSS_SOURCE_CASES = {
    "CSV, a bare CR inside a row": (
        "csv", "\n".join([HEADER, GOOD.format(1), GOOD.format(2) + "\r" + GOOD.format(3), BAD, GOOD.format(4)]) + "\n"
    ),
    "CSV, CRLF": ("csv", "\r\n".join([HEADER, GOOD.format(1), BAD, GOOD.format(2)]) + "\r\n"),
    "JSONL, a CR between tokens": (
        "jsonl", "\n".join([(JSON_GOOD % 1).replace(":40.5", ":\r40.5"), JSON_BAD, JSON_GOOD % 2]) + "\n"
    ),
    "JSONL, CRLF": ("jsonl", "\r\n".join([JSON_GOOD % 1, JSON_BAD, JSON_GOOD % 2]) + "\r\n"),
    "JSONL, a lone CR between two objects": (
        "jsonl", "\n".join([JSON_GOOD % 1, JSON_GOOD % 2 + "\r" + JSON_GOOD % 3, JSON_BAD]) + "\n"
    ),
    "JSONL, a NUL line": ("jsonl", "\n".join([JSON_GOOD % 1, "\0", JSON_BAD, JSON_GOOD % 2]) + "\n"),
    "CSV, a bad row before a lone surrogate": (
        "csv", "\n".join([HEADER, GOOD.format(1), BAD, GOOD.format("\ud800")]) + "\n"
    ),
    "JSONL, a bad row before a lone surrogate": (
        "jsonl", "\n".join([JSON_GOOD % 1, JSON_BAD, JSON_GOOD % "\ud800"]) + "\n"
    ),
}


def _parse_outcome(parse, source, format, strict):
    try:
        return parse(source, format=format, strict=strict)
    except IngestError as exc:
        return exc.line, exc.reason
    except UnicodeDecodeError:
        return UnicodeDecodeError


@pytest.mark.parametrize("block_bytes", [16, 1 << 19])
@pytest.mark.parametrize("source", ["path", "bytes", "text"])
@pytest.mark.parametrize("case", CROSS_SOURCE_CASES)
def test_every_source_splits_lines_by_the_format(tmp_path, monkeypatch, case, source, block_bytes):
    # CSV lines end at LF, CR or CRLF and JSONL lines at LF alone, from a
    # path, a binary stream or a text stream; a text stream's lone surrogate
    # fails where it lies, as the undecodable bytes that encode it do
    format, text = CROSS_SOURCE_CASES[case]
    data = text.encode("utf-8", "surrogatepass")
    path = tmp_path / "events"
    path.write_bytes(data)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", block_bytes)
    for strict in (False, True):
        want = _parse_outcome(oracles.parse_events, text, format, strict)
        if "\ud800" in text and not strict:
            want = UnicodeDecodeError
        stream = {"path": path, "bytes": io.BytesIO(data), "text": io.StringIO(text)}[source]
        assert _parse_outcome(parse_rows, stream, format, strict) == want
    assert isinstance(want, tuple)  # strict mode stopped at the bad row


def test_crlf_and_nul_jsonl_stays_on_the_byte_path(monkeypatch):
    # a CR between tokens is whitespace on the byte path; a NUL line, and a
    # CR or NUL inside a string, flag their lines for json's scanner to reject
    lines = [JSON_GOOD % i for i in range(40)]
    lines[3] = "\0"
    lines[6] = lines[6].replace(":40.5", ":\r40.5").replace(",", "\r,")
    lines[9] = lines[9].replace('"u9"', '"u\r9"')
    lines[12] = lines[12].replace('"u12"', '"u\x0012"')
    lines[15] = "\r"
    lines[18] = lines[18].replace("40.5", "95.5")
    text = "\r\n".join(lines) + "\r\n"
    want = oracles.parse_events(text, format="jsonl")
    assert want[1].accepted == 35 and want[1].rejection_reasons == {"bad json": 3, "lat out of range": 1}

    def refuse(*args):
        raise AssertionError("the line-by-line reader was called")

    monkeypatch.setattr(events_module, "_list_chunks", refuse)
    monkeypatch.setattr(events_module, "BLOCK_BYTES", 512)  # blocks of five or six lines
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        table, report = parse_events(source, format="jsonl")
        assert (oracles.records(table), report) == want


@pytest.mark.parametrize("strict", [False, True])
def test_csv_field_past_the_size_limit_is_an_ingest_error(strict):
    # csv.reader's error names the row it was reading, after the rows
    # before it are committed
    long_row = GOOD.format("x" * 200_000)
    with pytest.raises(IngestError) as exc:
        parse_events(csv_stream(GOOD.format(1), long_row), strict=strict)
    assert (exc.value.line, exc.value.reason) == (3, "field larger than field limit (131072)")
    with pytest.raises(IngestError) as exc:
        parse_events(csv_stream(BAD, long_row), strict=True)
    assert (exc.value.line, exc.value.reason) == (2, "lat out of range")


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


# --- the JSONL layouts ------------------------------------------------------------

def test_ids_compare_their_bytes_and_offsets():
    # two Ids are equal when their UTF-8 bytes and offsets are: the same
    # bytes split elsewhere are other strings, and equal ids built apart,
    # from str, bytes or an S array, with int32 or int64 offsets, are equal
    assert Ids(["ab", "c"]) != Ids(["a", "bc"]) and not Ids(["ab", "c"]) == Ids(["a", "bc"])
    assert Ids(["ab", "c"]).data == Ids(["a", "bc"]).data
    for strs in ([], [""], ["", "a"], ["a", "é", "\U0001f600", "a\x00"], [f"u{i}" for i in range(1000)]):
        one, two = Ids(strs), Ids([s.encode("utf-8") for s in strs])
        assert one is not two and one == two and two == one and not one != two and not two != one
        assert one != Ids([*strs, "z"]) and Ids([*strs, "z"]) != one
        wide = Ids(strs)
        wide.offsets = wide.offsets.astype(np.int64)
        assert wide == one and one == wide
    assert Ids(np.array([b"a", b"bc"])) == Ids(["a", "bc"]) == Ids(np.array([b"a", b"bc"]))
    assert Ids(np.array([b"ab", b"c"])) != Ids(["a", "bc"])


# raw JSON texts of each key's values: ones the byte checks accept, then
# hazards: values the row rules reject, numbers where strings belong, -0,
# and numbers with a leading zero, which json rejects
LAYOUT_VALUES = {
    "user_id": (st.sampled_from(['"u1"', '"u2"', '"ü"', '"a, b: {c}"']), st.sampled_from(['" u3 "', '""', "null", "7"])),
    "timestamp": (CANONICAL_STAMPS.map(json.dumps), st.sampled_from(['"2012-06-01"', '"x"', "null"])),
    "lat": (
        st.one_of(st.floats(-90, 90).map(repr), st.sampled_from(["40", "4.05e1", "1E-1", "0.5"])),
        st.sampled_from(["-0", "-0.0", "01.5", "00", "-01", "null", '"41.2"', "95.5"]),
    ),
    "lon": (
        st.one_of(st.floats(-180, 180).map(repr), st.sampled_from(["-7", "0.5e+1", "1e-400", "-12.25"])),
        st.sampled_from(["-00.5", "null", "-0", "1e400"]),
    ),
    "origin_country": (st.sampled_from(['"ES"', '""', "null"]), st.sampled_from(['"es"', "12"])),
    "dataset_tag": (st.sampled_from(['"t"', '"photo"', '"é"']), st.just("null")),
    "text": (st.sampled_from(['"x"', '"a, b: {c}"', '""', "null"]), st.just("01")),
    "id": (st.sampled_from(["12", "-0", "1.5e3", "1E+2", "null", '"9"', "-0.0e-0"]), st.sampled_from(["007", "-01.5"])),
}


@st.composite
def layout_lines(draw) -> list[str]:
    """JSONL lines in up to four layouts: the canonical keys, perhaps
    without origin_country and with unknown keys, in a permuted order,
    with json.dumps' default or compact separators; a line holds at most
    one hazard."""
    layouts = []
    for _ in range(draw(st.integers(1, 4))):
        keys = [c for c in CANONICAL_COLUMNS if c != "origin_country" or draw(st.booleans())]
        keys += draw(st.lists(st.sampled_from(["text", "id"]), max_size=2, unique=True))
        layouts.append((draw(st.permutations(keys)), draw(st.sampled_from([(", ", ": "), (",", ":")]))))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        keys, (item, colon) = draw(st.sampled_from(layouts))
        hazard = draw(st.sampled_from([*keys] + [None] * 2 * len(keys)))
        lines.append("{" + item.join(f'"{k}"{colon}{draw(LAYOUT_VALUES[k][k == hazard])}' for k in keys) + "}")
    return lines


@settings(max_examples=200, deadline=None)
@given(layout_lines(), st.booleans(), st.sampled_from([64, 256, 1 << 19]))
def test_jsonl_blocks_of_several_layouts_match_row_reference(lines, strict, block_bytes):
    saved = events_module.BLOCK_BYTES
    events_module.BLOCK_BYTES = block_bytes
    try:
        _same_outcome("\n".join(lines) + "\n", "jsonl", strict)
    finally:
        events_module.BLOCK_BYTES = saved


@pytest.mark.parametrize("leading_true", [False, True])
def test_block_with_more_layouts_than_the_bound(monkeypatch, leading_true):
    # every key order is a layout of its own, and the block holds
    # _LAYOUTS + 4 of them, two lines each.  Each try reads the first line
    # that no layout takes yet as a layout, and a line that holds no flat
    # object (a true value) uses up a try; the lines of the orders left
    # over go to json's scanner, with the true line
    bound = events_module._LAYOUTS
    fields = {"user_id": "u1", "timestamp": "2012-06-01T12:00:00Z", "lat": 40.5, "lon": -3.7, "dataset_tag": "t"}
    orders = list(itertools.islice(itertools.permutations(fields), bound + 4))
    lines = [json.dumps({**fields, "x": True})] * leading_true + [json.dumps({k: fields[k] for k in order}) for order in orders] * 2
    looks = _count_calls(monkeypatch, "_second_look")
    _same_outcome("\n".join(lines) + "\n", "jsonl", False)
    (*_, flagged, _), = looks
    tried = orders[: bound - leading_true]
    want = list(range(leading_true)) + [leading_true + k for k, order in enumerate(orders * 2) if order not in tried]
    assert np.flatnonzero(flagged).tolist() == want
