"""The block CSV renderer against csv.writer, through each per-row writer:
labels that need quoting, and row counts around the block size."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityattract import output
from cityattract.events import CANONICAL_COLUMNS, EventTable, events_to_csv, parse_events, write_events_csv
from cityattract.geo import Assignment, assignments_to_csv
from cityattract.home import Homes, homes_csv_blocks
from cityattract.output import BLOCK_ROWS, csv_fields

import oracles

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
        month=np.ones(n, dtype=np.int8),
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
        for e in table
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
        assert events_to_csv(table) == _expected_events(table)


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
        assert assignments_to_csv(assignment) == _expected_assignments(assignment)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_writers_match_csv_writer_at_the_block_size(n):
    table = _events(SPECIAL, SPECIAL[:3], SPECIAL[3:], n, n)
    assert events_to_csv(table) == _expected_events(table)
    homes = _homes(SPECIAL, SPECIAL, n, n)
    assert homes_to_csv(homes) == _expected_homes(homes)
    assignment = _assignment(SPECIAL, n, n)
    assert assignments_to_csv(assignment) == _expected_assignments(assignment)


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
