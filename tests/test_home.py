"""Home-country inference: tie-breaking, coverage, order independence."""

import random
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cityattract import home
from cityattract.geo import Assignment
from cityattract.home import (
    UNDETERMINED,
    Homes,
    accumulate_stats_seq,
    homes_csv_blocks,
    infer_all,
    origin_map,
)
from cityattract.output import write_text

import oracles
from oracles import EventRecord
from conftest import T0, assignment_of, ev, home_of, table_of


def tally(stats) -> dict:
    """(user, country) -> (count, first, last) of a columnar tally."""
    return {
        (stats.user_ids[u], stats.countries[c]): (int(n), int(f), int(l))
        for u, c, n, f, l in zip(stats.user, stats.country, stats.count, stats.first, stats.last)
    }


# --- tally -------------------------------------------------------------------

def test_single_event_tally():
    events = [ev(user="u1", lat=0.5, lon=0.5)]
    stats, unresolved = accumulate_stats_seq(table_of(events), assignment_of(["ES"]))
    assert unresolved == 0
    stamp = int(events[0].timestamp.timestamp())
    assert tally(stats) == {("u1", "ES"): (1, stamp, stamp)}


def test_counts_and_spans_per_country():
    days = {"ES": [0, 5, 10], "FR": [1, 2]}
    events = [
        ev(user="u1", ts=f"2012-01-{1 + d:02d}T00:00:00Z", lat=0.5, lon=0.5, tag=c)
        for c, ds in days.items()
        for d in ds
    ]
    stats, _ = accumulate_stats_seq(table_of(events), assignment_of([e.dataset_tag for e in events]))
    es = tally(stats)[("u1", "ES")]
    fr = tally(stats)[("u1", "FR")]
    assert es[0] == 3 and es[2] - es[1] == 10 * 86400
    assert fr[0] == 2 and fr[2] - fr[1] == 86400


def test_unresolved_events_counted_not_tallied():
    events = [ev(user="u1"), ev(user="u1"), ev(user="u2")]
    stats, unresolved = accumulate_stats_seq(table_of(events), assignment_of([None, None, None]))
    assert tally(stats) == {} and unresolved == 3
    assert all(h.country == UNDETERMINED and h.event_count == 0 for h in infer_all(stats).values())


def test_tally_permutation_invariance():
    rnd = random.Random(2)
    events = [
        ev(user=f"u{i % 3}", ts=f"2012-0{1 + i % 9}-01T00:00:00Z", tag=("ES", "FR", "IT")[i % 3])
        for i in range(60)
    ]
    base, _ = accumulate_stats_seq(table_of(events), assignment_of([e.dataset_tag for e in events]))
    shuffled = events[:]
    rnd.shuffle(shuffled)
    again, _ = accumulate_stats_seq(table_of(shuffled), assignment_of([e.dataset_tag for e in shuffled]))
    assert tally(base) == tally(again)


# --- selection ---------------------------------------------------------------

def test_count_dominates():
    rec = home_of({"ES": (10, 5 * 86400), "FR": (3, 300 * 86400)})
    assert rec.country == "ES"
    assert rec.event_count == 10
    assert rec.timespan_seconds == 5 * 86400


def test_timespan_breaks_count_tie():
    rec = home_of({"ES": (5, 10), "FR": (5, 30)})
    assert rec.country == "FR"


def test_code_breaks_full_tie():
    assert home_of({"FR": (5, 10), "ES": (5, 10)}).country == "ES"
    assert home_of({"ES": (5, 10), "FR": (5, 10)}).country == "ES"


def test_min_events_threshold():
    stats = {"ES": (2, 1), "FR": (1, 0)}
    assert home_of(stats, min_events=4).country == UNDETERMINED
    assert home_of(stats, min_events=3).country == "ES"
    # undetermined evidence reports the total seen, with no span
    rec = home_of(stats, min_events=4)
    assert rec.event_count == 3 and rec.timespan_seconds == 0


def test_no_located_events_is_undetermined():
    rec = home_of({})
    assert rec.country == UNDETERMINED and rec.event_count == 0


@settings(deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["AT", "BE", "DE", "ES", "FR", "IT"]),
        st.tuples(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10**6)),
        min_size=1,
        max_size=6,
    )
)
def test_adding_event_to_winner_is_monotone(raw):
    winner = home_of(raw).country
    count, seconds = raw[winner]
    raw[winner] = (count + 1, seconds)
    assert home_of(raw).country == winner


# --- whole-population view -----------------------------------------------------

def test_infer_all_covers_every_input_user():
    events = [ev(user="a", tag="ES"), ev(user="b"), ev(user="c", tag="FR")]
    countries = ["ES", None, "FR"]
    stats, _ = accumulate_stats_seq(table_of(events), assignment_of(countries))
    homes = infer_all(stats)
    assert set(homes) == {"a", "b", "c"}
    assert homes["a"].country == "ES"
    assert homes["b"].country == UNDETERMINED
    assigned = sum(1 for h in homes.values() if h.country != UNDETERMINED)
    undetermined = sum(1 for h in homes.values() if h.country == UNDETERMINED)
    assert assigned + undetermined == 3


def test_parallel_merge_equals_sequential():
    # split tally + manual merge must equal the one-pass tally
    events = [
        ev(user=f"u{i % 4}", ts=f"2012-01-{1 + i % 28:02d}T00:00:00Z", tag=("ES", "FR")[i % 2])
        for i in range(100)
    ]
    countries = [e.dataset_tag for e in events]
    whole, _ = accumulate_stats_seq(table_of(events), assignment_of(countries))
    left, _ = accumulate_stats_seq(table_of(events[:37]), assignment_of(countries[:37]))
    right, _ = accumulate_stats_seq(table_of(events[37:]), assignment_of(countries[37:]))
    merged: dict = {}
    for part in (left, right):
        for key, (n, first, last) in tally(part).items():
            got = merged.get(key)
            merged[key] = (n, first, last) if got is None else (
                got[0] + n, min(got[1], first), max(got[2], last)
            )
    assert merged == tally(whole)


# --- origin resolution ---------------------------------------------------------

def test_resolve_origin_examples():
    # a declared origin wins over an inferred home; an inferred home is used
    # otherwise; too little evidence and no evidence both stay UNDETERMINED
    events = [
        ev(user="declares", origin="FR"),
        ev(user="inferred"),
        ev(user="thin"),
        ev(user="none"),
    ]
    table = table_of(events)
    stats, _ = accumulate_stats_seq(table, assignment_of(["ES", "ES", "ES", None]))
    origins = origin_map(table, infer_all(stats, min_events=1))
    assert origins["declares"] == "FR" and origins["inferred"] == "ES"
    assert origins["none"] == UNDETERMINED
    more = table_of(events + [ev(user="declares"), ev(user="inferred")])
    stats, _ = accumulate_stats_seq(more, assignment_of(["ES"] * 6))
    homes = infer_all(stats, min_events=2)
    assert homes["thin"].country == UNDETERMINED
    assert origin_map(more, homes)["thin"] == UNDETERMINED


def test_origin_map_prefers_declared():
    events = [
        ev(user="a", origin="FR", tag="ES"),
        ev(user="a", tag="ES"),
        ev(user="b", tag="ES"),
        ev(user="c"),
    ]
    table = table_of(events)
    stats, _ = accumulate_stats_seq(table, assignment_of(["ES", "ES", "ES", None]))
    homes = infer_all(stats)
    origins = origin_map(table, homes)
    assert origins == {"a": "FR", "b": "ES", "c": UNDETERMINED}


@pytest.mark.parametrize("key", [5, None, b"u1", 1.5])
def test_homes_and_origins_treat_keys_of_other_types_as_absent(key):
    # the Mapping contract: a key of another type than str is not there, so
    # ``in`` is False, ``get`` gives the default and indexing raises KeyError
    table = table_of([ev(user="u1"), ev(user="u2", origin="FR")])
    stats, _ = accumulate_stats_seq(table, assignment_of(["ES", None]))
    homes = infer_all(stats)
    origins = origin_map(table, homes)
    for mapping in (homes, origins):
        assert key not in mapping
        assert mapping.get(key, "default") == "default"
        with pytest.raises(KeyError):
            mapping[key]
    assert "u1" in homes and origins.get("u2") == "FR"


@pytest.mark.parametrize(
    "declared,want", [(["DE", "FR"], "DE"), (["DE", "FR", "FR"], "FR"), (["FR", "DE", "DE", "FR"], "DE")]
)
def test_declared_origin_does_not_depend_on_row_order(declared, want):
    # the most often declared code wins, the smallest one among ties
    events = [ev(user="a", origin=code, ts=f"2012-06-0{i + 1}T12:00:00Z") for i, code in enumerate(declared)]
    events += [ev(user="b", origin="GB"), ev(user="a")]
    results = []
    for rows in (events, events[::-1]):
        table = table_of(rows)
        stats, _ = accumulate_stats_seq(table, assignment_of(["ES"] * len(rows)))
        results.append(origin_map(table, infer_all(stats)))
    assert results[0] == results[1] == {"a": want, "b": "GB"}


# --- columnar inference against the dict-tally reference -------------------------

EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["u1", "u2", "u3", "u\x00", "u", "v"]),
        # a few coarse stamps make pairs tie on span as well as on count
        st.one_of(st.sampled_from([0, 3600, 7200]), st.integers(min_value=0, max_value=40 * 86400)),
        st.sampled_from([None, "ES", "FR", "DE"]),  # resolved country
        st.sampled_from([None, None, None, "GB", "IT"]),  # declared origin
    ),
    max_size=60,
)
# two events 9,999 years apart leave 24 of the tally's 63 key bits for the
# pair number, and 2**10 more users times 2**14 more countries overflow those
WIDE_STAMPS = (datetime(1, 1, 1, tzinfo=timezone.utc), datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc))
PADDING_USERS, PADDING_COUNTRIES = 1 << 10, 1 << 14


@settings(max_examples=300, deadline=None)
@given(EVENTS, st.integers(min_value=1, max_value=4))
@example([("u1", 0, "ES", None), ("u1", 3600, "ES", None), ("u1", 0, "FR", None), ("u1", 7200, "FR", None)], 1)
@example([("u1", 0, "FR", None), ("u1", 3600, "FR", None), ("u1", 0, "DE", None), ("u1", 3600, "DE", None)], 1)
def test_homes_match_dict_reference(raw, min_events):
    # ties on count (broken by span) and on count and span (broken by the
    # smallest code), users under min_events, events in no country
    match_dict_reference(raw, min_events, wide=False)


@settings(max_examples=20, deadline=None)
@given(EVENTS, st.integers(min_value=1, max_value=4))
@example([("u1", 0, "ES", None), ("u1", 0, None, None), ("u2", 0, "FR", None)], 2)
def test_wide_tally_keys_match_dict_reference(raw, min_events):
    # the same with stamps in years 0001 and 9999 and over 2**24 possible
    # pairs, whose keys do not fit the packed sort
    match_dict_reference(raw, min_events, wide=True)


def match_dict_reference(raw, min_events: int, wide: bool) -> None:
    events = [
        EventRecord(u, T0 + timedelta(seconds=s), 0.0, 0.0, declared, "t")
        for u, s, _, declared in raw
    ]
    countries = [c for _, _, c, _ in raw]
    regions = ("FR", "DE", "ES")
    if wide:
        events += [EventRecord("u1", t, 0.0, 0.0, None, "t") for t in WIDE_STAMPS]
        countries += ["ES", "DE"]
        events += [EventRecord(f"pad{i}", T0, 0.0, 0.0, None, "t") for i in range(PADDING_USERS)]
        countries += [None] * PADDING_USERS
        regions += tuple(f"Z{i}" for i in range(PADDING_COUNTRIES))
    position = {r: i for i, r in enumerate(regions)}
    index = np.array([-1 if c is None else position[c] for c in countries], dtype=np.int64)
    table = table_of(events)
    with mock.patch.object(home, "_argsort_tally", wraps=home._argsort_tally) as fallback:
        stats, unresolved = accumulate_stats_seq(table, Assignment(index, regions, 0, int((index < 0).sum())))
    assert fallback.called is wide
    homes = infer_all(stats, min_events=min_events)
    ref_stats, ref_unresolved = oracles.accumulate_stats_seq(events, countries)
    ref_homes = oracles.infer_all(ref_stats, min_events, all_users=[e.user_id for e in events])
    assert unresolved == ref_unresolved
    assert tally(stats) == {
        (u, c): (n, int(f.timestamp()), int(l.timestamp()))
        for u, per_country in ref_stats.items()
        for c, (n, f, l) in per_country.items()
    }
    assert homes == ref_homes
    assert list(homes) == sorted(ref_homes)
    assert origin_map(table, homes) == oracles.origin_map(events, ref_homes)


# --- serialization ---------------------------------------------------------------

def test_homes_csv_round_trip(tmp_path):
    homes = Homes(
        user_ids=("u1", "u2"),
        countries=("ES",),
        country=np.array([0, -1]),
        event_count=np.array([12, 0]),
        timespan_seconds=np.array([86400, 0]),
    )
    path = tmp_path / "homes.csv"
    write_text(path, homes_csv_blocks(homes))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "user_id,country,event_count,timespan_seconds"
    # rows sorted by user id, UNDETERMINED spelled literally
    assert lines[1].startswith("u1,ES,12,86400")
    assert lines[2] == "u2,UNDETERMINED,0,0"
    assert oracles.read_homes_csv(path) == homes
