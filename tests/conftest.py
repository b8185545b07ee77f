"""Shared fixtures: tiny layers and event builders used across test files."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

import numpy as np

from cityattract.events import EventRecord, EventTable
from cityattract.geo import Assignment, assign_events, load_layer
from cityattract.home import HomeRecord, Origins, accumulate_stats_seq, infer_all
from cityattract.scaling import foreign_counts

T0 = datetime(2012, 1, 1, tzinfo=timezone.utc)


def square_feature(rid: str, lat0: float, lon0: float, side: float, population=None, layer="test"):
    props = {"id": rid, "name": rid, "layer": layer}
    if population is not None:
        props["population"] = population
    ring = [
        [lon0, lat0],
        [lon0 + side, lat0],
        [lon0 + side, lat0 + side],
        [lon0, lat0 + side],
        [lon0, lat0],
    ]
    return {"type": "Feature", "properties": props, "geometry": {"type": "Polygon", "coordinates": [ring]}}


def layer_of(*features, name="test"):
    return load_layer({"type": "FeatureCollection", "name": name, "features": list(features)})


def ev(user="u1", ts="2012-06-01T12:00:00Z", lat=0.5, lon=0.5, origin=None, tag="t"):
    stamp = datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return EventRecord(user, stamp, lat, lon, origin, tag)


def table_of(events) -> EventTable:
    return EventTable.from_records(events)


def assignment_of(region_ids) -> Assignment:
    """An assignment given as one region id (or None) per event."""
    regions = tuple(dict.fromkeys(r for r in region_ids if r is not None))
    index = np.array([-1 if r is None else regions.index(r) for r in region_ids], dtype=np.int64)
    return Assignment(index, regions, 0, int((index < 0).sum()))


def origins_of(mapping: dict) -> Origins:
    """Origins of the users in ``mapping`` (user id -> origin)."""
    user_ids = tuple(sorted(mapping))
    names = tuple(sorted(set(mapping.values())))
    return Origins(user_ids, names, np.array([names.index(mapping[u]) for u in user_ids], dtype=np.int64))


def counts_of(events, origins: dict, layer, target_country="ES", region_ids=None, dataset_tag=""):
    """Foreign counts of EventRecords with origins given as a dict, assigned
    to ``layer`` unless ``region_ids`` gives one region id per event."""
    table = table_of(events)
    assignment = assign_events(table, layer) if region_ids is None else assignment_of(region_ids)
    return foreign_counts(table, assignment, origins_of(origins), layer, target_country, dataset_tag)


def home_of(per_country: dict, min_events: int = 1) -> HomeRecord:
    """Home of user "u" whose events in each country number ``count`` and
    span ``seconds``: the first at T0, the last ``seconds`` later.  One more
    event of "u" resolves to no country."""
    events, countries = [EventRecord("u", T0, 0.5, 0.5, None, "t")], [None]
    for country, (count, seconds) in per_country.items():
        stamps = [T0] + [T0 + timedelta(seconds=seconds)] * (count - 1)
        events += [EventRecord("u", t, 0.5, 0.5, None, "t") for t in stamps]
        countries += [country] * count
    stats, _ = accumulate_stats_seq(table_of(events), assignment_of(countries))
    return infer_all(stats, min_events=min_events)["u"]


def polygon_feature(rid: str, rings_latlon, population=None, layer="test"):
    """Feature from open (lat, lon) rings; first ring outer, rest holes."""
    props = {"id": rid, "name": rid, "layer": layer}
    if population is not None:
        props["population"] = population
    coords = [[[lon, lat] for lat, lon in ring] + [[ring[0][1], ring[0][0]]] for ring in rings_latlon]
    return {"type": "Feature", "properties": props, "geometry": {"type": "Polygon", "coordinates": coords}}


# three shapes exercising distinct containment branches: plain convex,
# concave with a notch, and an outer ring with a hole
CONVEX_RING = [(0.0, 0.0), (0.2, 1.1), (1.0, 1.4), (1.7, 0.6), (1.1, -0.4)]
CONCAVE_RING = [
    (0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.2, 2.0), (1.2, 0.8),
    (0.8, 0.8), (0.8, 2.0), (0.0, 2.0),
]
HOLED_RINGS = [
    [(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)],
    [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)],
]


def shape_regions():
    """The three fixture shapes as loaded Region objects keyed by id."""
    layer = layer_of(
        polygon_feature("convex", [CONVEX_RING], population=10),
        polygon_feature("concave", [CONCAVE_RING], population=10),
        polygon_feature("holed", HOLED_RINGS, population=10),
    )
    return {r.id: r for r in layer.regions}


@pytest.fixture
def unit_square_layer():
    return layer_of(square_feature("sq", 0.0, 0.0, 1.0, population=1000))
