"""Ingestion: field validation, rejection accounting, round-trips."""

import csv
import io
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

import cityattract.events as events_module
from cityattract.events import (
    CANONICAL_COLUMNS,
    EventRecord,
    EventTable,
    IngestError,
    IngestReport,
    events_to_csv,
    format_timestamp,
    parse_events,
    parse_timestamp,
    timestamp_seconds,
)

import oracles

HEADER = ",".join(CANONICAL_COLUMNS)


def csv_stream(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join((HEADER,) + rows) + "\n")


def test_accepts_well_formed_row():
    records, report = parse_events(csv_stream("u1,2012-06-01T12:00:00Z,40.4,-3.7,,tweet"))
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
    records, report = parse_events(stream)
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
    records, report = parse_events(io.StringIO(shuffled))
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
    assert timestamp_seconds(value) == int(expected.timestamp())


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


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
def test_timestamp_column_path_matches_scalar(dt):
    # the fixed-width form goes through the column parser, which must agree
    # with timestamp_seconds and round-trip through format_timestamp
    stamp = dt.strftime("%Y-%m-%dT%H:%M:%SZ").rjust(20, "0")
    records, report = parse_events(csv_stream(f"u1,{stamp},0,0,,t"))
    expected = dt.replace(microsecond=0, tzinfo=timezone.utc)
    assert report.accepted == 1
    assert records.seconds[0] == timestamp_seconds(stamp)
    assert records[0].timestamp == expected
    assert records.month[0] == expected.month
    assert format_timestamp(expected) == stamp


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
    records, report = parse_events(io.StringIO(text), format="jsonl")
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


def test_csv_round_trip_is_exact():
    stream = csv_stream(
        "u1,2012-06-01T12:00:00Z,40.123456789012345,-3.700000000000001,ES,photo",
        "u2,2012-12-31T23:59:59Z,-89.99999999999999,179.99999999999997,,photo",
    )
    records, _ = parse_events(stream)
    text = events_to_csv(records)
    again, report = parse_events(io.StringIO(text))
    assert report.rejected == 0
    assert list(again) == list(records)


def test_report_merge_accumulates():
    a = IngestReport(accepted=2, rejected=1, rejection_reasons={"bad json": 1})
    b = IngestReport(accepted=3, rejected=2, rejection_reasons={"bad json": 1, "missing field": 1})
    a.merge(b)
    assert a.accepted == 5 and a.rejected == 3
    assert a.rejection_reasons == {"bad json": 2, "missing field": 1}


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
    again, report = parse_events(io.StringIO(events_to_csv(EventTable.from_records(records))))
    assert report.rejected == 0
    assert list(again) == records


def test_format_timestamp_round_trip():
    dt = datetime(2012, 2, 29, 23, 59, 59, tzinfo=timezone.utc)
    assert parse_timestamp(format_timestamp(dt)) == dt


# --- columnar ingest against the row-by-row reference ---------------------------

USERS = st.sampled_from(["u1", "u2", "u\x00", "u", "u\x00\x00", " u3 ", "", "ü", "u,4", 'u"5', "u6\r"])
STAMPS = st.one_of(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)).map(
        lambda dt: dt.strftime("%Y-%m-%dT%H:%M:%SZ").rjust(20, "0")
    ),
    st.sampled_from([
        "2012-06-01T12:00Z", "2012-06-01", "2012-06-01T12:00:00.25Z", " 2012-06-01T12:00:00Z ",
        "2012-13-01T00:00:00Z", "2012-02-30T00:00:00Z", "2012-06-01T12:00:00+0Z",
        "２０１２-06-01T12:00:00Z", "2012-06-01T12:0a:00Z", "not-a-time", "", "2012-06-01T12Z",
    ]),
)
NUMBERS = st.one_of(
    st.floats(min_value=-200, max_value=200).map(repr),
    st.sampled_from(["nan", "inf", "-0.0", "1e400", "abc", "", " 1.5", "1_0", "91", "-180", "0x10"]),
)
ORIGINS = st.sampled_from(["", "ES", "FR", "es", "E1", "ESP", " DE "])
TAGS = st.sampled_from(["t", "photo", "", " t"])
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
JSON_LINES = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                "user_id": st.one_of(USERS, JSON_VALUES),
                "timestamp": st.one_of(STAMPS, JSON_VALUES),
                "lat": st.one_of(st.floats(-100, 100), JSON_VALUES),
                "lon": st.one_of(st.floats(-200, 200), JSON_VALUES),
                "origin_country": st.one_of(ORIGINS, JSON_VALUES),
                "dataset_tag": st.one_of(TAGS, JSON_VALUES),
            },
        ).map(json.dumps),
        st.sampled_from(["", "   ", "{not json", "[1, 2]", "7", '{"a": 1} {"b": 2}', "\ufeff{}"]),
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
    assert list(table) == records
    assert report == ref_report
    assert list(table.user_ids) == sorted({r.user_id for r in records})


@settings(max_examples=300, deadline=None)
@given(
    CSV_ROWS,
    st.permutations(CANONICAL_COLUMNS),
    st.booleans(),
    st.sampled_from([1, 3, 1 << 13]),
    st.booleans(),
)
def test_csv_ingest_matches_row_reference(rows, header, strict, chunk_rows, final_newline):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    order = [CANONICAL_COLUMNS.index(c) for c in header]
    writer.writerows([row[i] for i in order] if len(row) == 6 else row for row in rows)
    text = buf.getvalue() if final_newline else buf.getvalue()[:-1]
    saved = events_module.CHUNK_ROWS
    events_module.CHUNK_ROWS = chunk_rows
    try:
        _same_outcome(text, "csv", strict)
    finally:
        events_module.CHUNK_ROWS = saved


@settings(max_examples=300, deadline=None)
@given(JSON_LINES, st.booleans(), st.sampled_from([1, 3, 1 << 13]), st.sampled_from(["", "\n"]))
def test_jsonl_ingest_matches_row_reference(lines, strict, chunk_rows, end):
    saved = events_module.CHUNK_ROWS
    events_module.CHUNK_ROWS = chunk_rows
    try:
        _same_outcome("\n".join(lines) + end, "jsonl", strict)
    finally:
        events_module.CHUNK_ROWS = saved


def test_quoted_and_plain_chunks_parse_alike(monkeypatch):
    # plain chunks are split on commas; from the first chunk with a quote on,
    # csv.reader takes over, and a quoted field may span lines
    monkeypatch.setattr(events_module, "CHUNK_ROWS", 2)
    rows = [f"u{i},2012-06-01T12:00:00Z,1.5,2.5,,t" for i in range(5)]
    rows[3] = '"u,3",2012-06-01T12:00:00Z,1.5,2.5,,"t\nx"'
    text = HEADER + "\n" + "\n".join(rows) + "\n\nshort,row\n"
    table, report = parse_events(io.StringIO(text))
    assert [e.user_id for e in table] == ["u0", "u1", "u2", "u,3", "u4"]
    assert [e.dataset_tag for e in table] == ["t", "t", "t", "t\nx", "t"]
    assert report.rejection_reasons == {"missing field": 1}
    with pytest.raises(IngestError) as exc:
        parse_events(io.StringIO(text), strict=True)
    assert exc.value.line == 8  # rows, not physical lines: the quoted newline is inside row 5
    # the last row may lack its newline, in a plain chunk as in a quoted one
    for last in ("u9,2012-06-01T12:00:00Z,1.5,2.5,,t", '"u9",2012-06-01T12:00:00Z,1.5,2.5,,t'):
        table, _ = parse_events(io.StringIO(HEADER + "\n" + last))
        assert [(e.user_id, e.dataset_tag) for e in table] == [("u9", "t")]


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
    assert [e.user_id for e in table] == users
    again, _ = parse_events(io.StringIO(events_to_csv(table)))
    assert [e.user_id for e in again] == users
