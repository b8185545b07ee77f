"""The CSV renderers against csv.writer, through each writer: labels that
need quoting, row counts around the block size of the per-row writers,
and ids with line breaks read back by the commands."""

import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityattract import output
from cityattract.cli import main
from cityattract.events import CANONICAL_COLUMNS, EventTable, parse_events, write_events_csv
from cityattract.geo import Assignment
from cityattract.home import Homes, homes_csv_blocks
from cityattract.output import BLOCK_ROWS, csv_fields, fmt_num
from cityattract.pipeline import write_correlations
from cityattract.scaling import (
    AttractivenessTable,
    AttractRow,
    BinnedTrend,
    BinRow,
    ResidualScore,
    ScalingFit,
    StatsError,
    binned_to_csv,
    correlate_residuals,
    read_residuals_csv,
    read_table_csv,
    residuals_to_csv,
    scatter_to_csv,
    table_to_csv,
)
from cityattract.temporal import WindowedExponents, WindowFit, window_months, windows_to_csv

import oracles
from conftest import assignments_csv, events_csv

LABEL_CHARS = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "ß", "東", "　"]),
    st.characters(blacklist_categories=("Cs",)),
)
LABELS = st.text(LABEL_CHARS, min_size=1, max_size=6)
EDGED = st.tuples(st.sampled_from(["", " ", "  "]), LABELS, st.sampled_from(["", " "])).map("".join)
IDS = st.lists(st.one_of(LABELS, EDGED), min_size=1, max_size=5, unique=True).map(sorted).map(tuple)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# the hypothesis tests render with a small block, so that examples around
# its size stay cheap to run and to shrink; SPECIAL runs the real one
SMALL_BLOCK = 4
SMALL_ROWS = st.sampled_from([0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2])
SPECIAL = ("a,b", 'say "hi"', "cr\rhere", "lf\nhere", " lead", "trail ", "Málaga", "東京")


def _events(users, origins, tags, n, seed) -> EventTable:
    rng = np.random.default_rng(seed)
    return EventTable(
        user=rng.integers(0, len(users), n).astype(np.int32),
        user_ids=users,
        seconds=rng.integers(0, 2**33, n),
        lat=rng.uniform(-90.0, 90.0, n),
        lon=rng.uniform(-180.0, 180.0, n),
        origin=rng.integers(-1, len(origins), n).astype(np.int32),
        origin_ids=origins,
        tag=rng.integers(0, len(tags), n).astype(np.int32),
        tag_ids=tags,
    )


def _expected_events(table: EventTable) -> str:
    stamp = "%Y-%m-%dT%H:%M:%SZ"
    rows = (
        (e.user_id, e.timestamp.strftime(stamp), repr(e.lat), repr(e.lon), e.origin_country, e.dataset_tag)
        for e in oracles.records(table)
    )
    return oracles.rows_to_csv(CANONICAL_COLUMNS, rows)


def _homes(labels, countries, n, seed) -> Homes:
    rng = np.random.default_rng(seed)
    return Homes(
        user_ids=tuple(sorted(f"{labels[i % len(labels)]}{i}" for i in range(n))),
        countries=countries,
        country=rng.integers(-1, len(countries), n),
        event_count=rng.integers(0, 10**6, n),
        timespan_seconds=rng.integers(0, 10**9, n),
    )


def homes_to_csv(homes: Homes) -> str:
    return "".join(homes_csv_blocks(homes))


def _expected_homes(homes: Homes) -> str:
    rows = ((h.user_id, h.country, h.event_count, h.timespan_seconds) for h in homes.values())
    return oracles.rows_to_csv(("user_id", "country", "event_count", "timespan_seconds"), rows)


def _assignment(regions, n, seed) -> Assignment:
    index = np.random.default_rng(seed).integers(-1, len(regions), n)
    return Assignment(index, regions, 0, int((index < 0).sum()))


def _expected_assignments(assignment: Assignment) -> str:
    return oracles.rows_to_csv(("event_index", "region_id"), enumerate(assignment.region_ids))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(LABELS, EDGED, st.just("")), min_size=1, max_size=8))
def test_fields_render_as_csv_writer_does(values):
    assert ",".join(csv_fields(values)) == oracles.rows_to_csv([*values, ""], [])[:-2]


@settings(max_examples=40, deadline=None)
@given(IDS, IDS, IDS, SMALL_ROWS, SEEDS)
def test_events_csv_matches_csv_writer(users, origins, tags, n, seed):
    table = _events(users, origins, tags, n, seed)
    with mock.patch.object(output, "BLOCK_ROWS", SMALL_BLOCK):
        assert events_csv(table) == _expected_events(table)


@settings(max_examples=40, deadline=None)
@given(IDS, IDS, SMALL_ROWS, SEEDS)
def test_homes_csv_matches_csv_writer(labels, countries, n, seed):
    homes = _homes(labels, countries, n, seed)
    with mock.patch.object(output, "BLOCK_ROWS", SMALL_BLOCK):
        assert homes_to_csv(homes) == _expected_homes(homes)


@settings(max_examples=40, deadline=None)
@given(IDS, SMALL_ROWS, SEEDS)
def test_assignments_csv_matches_csv_writer(regions, n, seed):
    assignment = _assignment(regions, n, seed)
    with mock.patch.object(output, "BLOCK_ROWS", SMALL_BLOCK):
        assert assignments_csv(assignment) == _expected_assignments(assignment)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_writers_match_csv_writer_at_the_block_size(n):
    table = _events(SPECIAL, SPECIAL[:3], SPECIAL[3:], n, n)
    assert events_csv(table) == _expected_events(table)
    homes = _homes(SPECIAL, SPECIAL, n, n)
    assert homes_to_csv(homes) == _expected_homes(homes)
    assignment = _assignment(SPECIAL, n, n)
    assert assignments_csv(assignment) == _expected_assignments(assignment)


@pytest.mark.parametrize("user", ["a\rb", "a\nb", "a\r\nb", 'a"b', "a,b"])
def test_events_csv_round_trips_line_breaks_in_values(tmp_path, user):
    # a bare '\r' is a line break to the reader, so it must be quoted too
    row = {"timestamp": "2012-06-01T12:00:00Z", "lat": 0.5, "lon": 0.5, "dataset_tag": "t"}
    jsonl = tmp_path / "events.jsonl"
    jsonl.write_text("".join(json.dumps({"user_id": u, **row}) + "\n" for u in (user, "c")), encoding="utf-8")
    table, report = parse_events(jsonl, format="jsonl")
    assert table.user_ids == (user, "c") and report.rejected == 0
    written = tmp_path / "events.csv"
    write_events_csv(table, written)
    again, report = parse_events(written)
    assert again.user_ids == (user, "c")
    assert report.rejected == 0 and report.accepted == 2


# the small writers: tables, residuals, scatter, bins, windows, correlations

FINITE = st.floats(allow_nan=False, allow_infinity=False)
TABLE_ROWS = st.lists(
    st.tuples(
        st.one_of(LABELS, EDGED, st.just("")),
        st.integers(1, 10**12),
        st.integers(0, 10**9),
        st.floats(0.0, 1.0),
    ),
    max_size=6,
    unique_by=lambda row: row[0],
)
SPECIAL_ROWS = [(rid, 10**i + 1, i, i / 10) for i, rid in enumerate(SPECIAL)]


def _table(rows) -> AttractivenessTable:
    rows = tuple(AttractRow(*row) for row in rows)
    return AttractivenessTable("d", "l", "ES", rows, sum(r.events for r in rows), 0, ())


@settings(max_examples=40, deadline=None)
@given(TABLE_ROWS, FINITE, FINITE)
@example(SPECIAL_ROWS, 1.5, -7.0)
def test_table_residuals_and_scatter_csv_match_csv_writer(rows, b, log_a):
    table = _table(rows)
    assert table_to_csv(table) == oracles.rows_to_csv(
        ("region_id", "population", "events", "share"),
        ((r.region_id, r.population, r.events, fmt_num(r.share)) for r in table.rows),
    )
    scores = [ResidualScore(r.region_id, r.share - 0.5) for r in table.rows]
    assert residuals_to_csv(scores) == oracles.rows_to_csv(
        ("region_id", "res"), ((s.region_id, fmt_num(s.res)) for s in scores)
    )
    fit = ScalingFit(b, log_a, 1.0, 0.0, 0.0, len(rows))
    points = (
        (r.region_id, math.log10(r.population), math.log10(r.share)) for r in table.rows if r.share > 0.0
    )
    assert scatter_to_csv(table, fit) == oracles.rows_to_csv(
        ("region_id", "log10_p", "log10_A", "fit_log10_A"),
        ((rid, fmt_num(x), fmt_num(y), fmt_num(log_a + b * x)) for rid, x, y in points),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(FINITE, FINITE, st.integers(1, 10**6)), max_size=5),
    st.lists(st.one_of(st.none(), st.tuples(FINITE, FINITE, st.integers(3, 10**6))), min_size=12, max_size=12),
)
def test_binned_and_windows_csv_match_csv_writer(bins, windows):
    trend = BinnedTrend(tuple(BinRow(p, a, n, p) for p, a, n in bins), 5)
    assert binned_to_csv(trend) == oracles.rows_to_csv(
        ("p_center", "mean_A", "member_count"), ((fmt_num(p), fmt_num(a), n) for p, a, n in bins)
    )
    fits = [None if w is None else ScalingFit(w[0], 0.0, w[1], w[1], 0.0, w[2]) for w in windows]
    we = WindowedExponents(
        "d",
        "l",
        tuple(WindowFit(m, window_months(m), fit, None if fit else "x") for m, fit in enumerate(fits, 1)),
        {m: fit.b / 2 for m, fit in enumerate(fits, 1) if fit},
        2.0,
        fits.count(None),
    )
    expected = (
        (m, "", "", "", "", "") if fit is None
        else (m, fmt_num(fit.b), fmt_num(fit.b / 2), fit.n, fmt_num(fit.r2), fmt_num(fit.p_value))
        for m, fit in enumerate(fits, 1)
    )
    header = ("center_month", "b", "b_normalized", "n", "r2", "p_value")
    assert windows_to_csv(we) == oracles.rows_to_csv(header, expected)


@settings(max_examples=40, deadline=None)
@given(IDS, st.lists(st.one_of(LABELS, EDGED, st.just("")), min_size=1, max_size=3, unique=True), SEEDS)
@example(SPECIAL[:3], ["", *SPECIAL[3:]], 0)
@example(("only",), ["", SPECIAL[0]], 0)  # no pairs: rows of one field
def test_correlations_csv_matches_csv_writer(tags, labels, seed):
    # three shared regions per list, one list per layer left empty: a blank cell
    rng = np.random.default_rng(seed)
    lists = {
        (tag, label): [ResidualScore(rid, rng.normal()) for rid in ("r1", "r2", "r3")[: 3 * (i > 0)]]
        for tag in tags
        for i, label in enumerate(labels)
    }

    def cell(a, b, label):
        try:
            return fmt_num(correlate_residuals(lists[a, label], lists[b, label]).r)
        except StatsError:
            return ""

    pairs = [(a, b) for i, a in enumerate(sorted(tags)) for b in sorted(tags)[i + 1 :]]
    expected = oracles.rows_to_csv(
        ["layer", *(f"{a}|{b}" for a, b in pairs)],
        ([label, *(cell(a, b, label) for a, b in pairs)] for label in labels),
    )
    with tempfile.TemporaryDirectory() as out:
        write_correlations(Path(out), tags, labels, lists)
        assert (Path(out) / "correlations.csv").read_bytes().decode() == expected


def test_region_id_with_carriage_return_reads_back_through_the_commands(tmp_path):
    # attractiveness -> fit, bin, residuals -> correlate on a layer whose
    # first region id and the correlation's layer label hold a bare '\r'
    assert main(["synth", "--out", str(tmp_path), "--seed", "5", "--regions", "6",
                 "--events-total", "4000", "--tag", "demo"]) == 0
    layer = json.loads((tmp_path / "cities__demo.geojson").read_text(encoding="utf-8"))
    layer["features"][0]["properties"]["id"] = "a\rb"
    (tmp_path / "cities.geojson").write_text(json.dumps(layer), encoding="utf-8")
    assert main(["attractiveness", "--events", str(tmp_path / "events__demo.csv"),
                 "--layer", str(tmp_path / "cities.geojson"),
                 "--countries", str(tmp_path / "countries__demo.geojson"),
                 "--tag", "demo", "--out", str(tmp_path)]) == 0
    table = tmp_path / "attractiveness__demo__cities.csv"
    assert "a\rb" in [row.region_id for row in read_table_csv(table).rows]
    for command in ("fit", "bin", "residuals"):
        assert main([command, "--table", str(table), "--dataset", "demo", "--layer", "cities",
                     "--out", str(tmp_path)]) == 0, command
    residuals = tmp_path / "residuals__demo__cities.csv"
    assert "a\rb" in [s.region_id for s in read_residuals_csv(residuals)]
    assert main(["correlate", "--pair", f"x={residuals}", "--pair", f"y={residuals}",
                 "--layer-label", "a\rb", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "correlations.csv", encoding="utf-8", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == ["layer", "x|y"] and row[0] == "a\rb" and float(row[1]) == pytest.approx(1.0)


def test_writing_holds_one_block_of_text(tmp_path):
    # the peak while writing follows the block size, not the file size
    peaks = []
    for blocks in (2, 6):
        table = _events(SPECIAL, SPECIAL[:3], SPECIAL[3:], blocks * BLOCK_ROWS, blocks)
        tracemalloc.start()
        try:
            write_events_csv(table, tmp_path / "events.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.3 * peaks[0], peaks
