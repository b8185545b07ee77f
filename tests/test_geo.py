"""Region loading and point-in-polygon assignment vs independent oracles."""

import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cityattract.geo import (
    LayerError,
    assign_events,
    assignments_to_csv,
    layer_to_geojson,
    load_layer,
    point_in_region,
    region_contains_bulk,
    write_layer_geojson,
)

from conftest import ev, layer_of, polygon_feature, shape_regions, square_feature, table_of
from oracles import (
    distance_to_boundary,
    pnpoly_region,
    raster_oracle,
    read_assignments_csv,
    region_lookup,
)

# raster cells are 1e-4 degrees; points this close to an edge may land in
# a cell whose corner nodes straddle the boundary, so the oracle skips them
BOUNDARY_PAD = 2e-4


# --- loading ---------------------------------------------------------------

def test_load_unit_square():
    layer = layer_of(square_feature("sq", 0.0, 0.0, 1.0, population=1000))
    assert layer.label == "test"
    (region,) = layer.regions
    assert region.id == "sq" and region.population == 1000
    assert region.bbox == (0.0, 0.0, 1.0, 1.0)
    assert len(region.polygons) == 1 and len(region.polygons[0][0]) == 4


def test_duplicate_region_id_rejected():
    with pytest.raises(LayerError, match="duplicate region id"):
        layer_of(square_feature("X", 0, 0, 1), square_feature("X", 5, 5, 1))


def test_multipolygon_loads_as_one_region():
    geom = {
        "type": "MultiPolygon",
        "coordinates": [
            [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
            [[[5, 5], [6, 5], [6, 6], [5, 6], [5, 5]]],
        ],
    }
    feat = {"type": "Feature", "properties": {"id": "m", "name": "m", "layer": "L"}, "geometry": geom}
    layer = load_layer({"type": "FeatureCollection", "features": [feat]})
    (region,) = layer.regions
    assert len(region.polygons) == 2
    assert region.bbox == (0.0, 0.0, 6.0, 6.0)


def test_degenerate_ring_rejected():
    geom = {"type": "Polygon", "coordinates": [[[0, 0], [1, 1], [0, 0], [1, 1]]]}
    feat = {"type": "Feature", "properties": {"id": "d", "name": "d", "layer": "L"}, "geometry": geom}
    with pytest.raises(LayerError, match="3 distinct"):
        load_layer({"type": "FeatureCollection", "features": [feat]})


def test_unsupported_geometry_rejected():
    feat = {
        "type": "Feature",
        "properties": {"id": "p", "name": "p", "layer": "L"},
        "geometry": {"type": "Point", "coordinates": [0, 0]},
    }
    with pytest.raises(LayerError, match="geometry"):
        load_layer({"type": "FeatureCollection", "features": [feat]})


def test_bad_population_rejected():
    with pytest.raises(LayerError, match="population"):
        layer_of(square_feature("sq", 0, 0, 1, population=0))


@pytest.mark.parametrize("value", ["Infinity", "1e400", "NaN", "-Infinity", "2.5", "true", '"7"'])
def test_non_integer_population_rejected(value):
    # Python's json reads Infinity, 1e400 and NaN as floats, which int()
    # refuses with OverflowError or ValueError
    feature = json.dumps(square_feature("sq", 0, 0, 1, population=0)).replace('"population": 0', f'"population": {value}')
    doc = '{"type": "FeatureCollection", "features": [%s]}' % feature
    with pytest.raises(LayerError, match="feature 0: population must be an integer"):
        load_layer(io.BytesIO(doc.encode()))


def test_integral_float_population_accepted():
    (region,) = layer_of(square_feature("sq", 0, 0, 1, population=12.0)).regions
    assert region.population == 12 and type(region.population) is int


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "huge-int"]
)
@pytest.mark.parametrize("axis", [0, 1], ids=["lon", "lat"])  # GeoJSON (lon, lat) order
def test_non_finite_coordinate_rejected(bad, axis):
    feature = square_feature("sq", 0, 0, 1)
    feature["geometry"]["coordinates"][0][2][axis] = bad
    with pytest.raises(LayerError, match="non-finite coordinate"):
        layer_of(feature)


def test_label_precedence():
    feats = [square_feature("a", 0, 0, 1, layer="from-prop")]
    assert load_layer({"type": "FeatureCollection", "features": feats}).label == "from-prop"
    assert load_layer({"type": "FeatureCollection", "name": "coll", "features": feats}).label == "coll"
    assert load_layer({"type": "FeatureCollection", "name": "coll", "features": feats}, label="arg").label == "arg"


def test_load_from_stream_and_path(tmp_path):
    doc = {"type": "FeatureCollection", "features": [square_feature("sq", 0, 0, 1)]}
    text = json.dumps(doc)
    assert load_layer(io.BytesIO(text.encode())).regions[0].id == "sq"
    p = tmp_path / "layer.geojson"
    p.write_text(text)
    assert load_layer(p).regions[0].id == "sq"


def test_geojson_round_trip(tmp_path):
    layer = layer_of(
        polygon_feature("holed", [[(0, 0), (3, 0), (3, 3), (0, 3)], [(1, 1), (2, 1), (2, 2), (1, 2)]], population=7),
        square_feature("sq", 5, 5, 1, population=12),
    )
    path = tmp_path / "out.geojson"
    write_layer_geojson(layer, path)
    again = load_layer(path)
    assert again.label == layer.label
    assert again.regions == layer.regions


# --- containment -----------------------------------------------------------

def test_unit_square_examples(unit_square_layer):
    sq = unit_square_layer.regions[0]
    assert point_in_region(0.5, 0.5, sq) is True
    assert point_in_region(2.0, 2.0, sq) is False


def test_boundary_counts_as_inside(unit_square_layer):
    sq = unit_square_layer.regions[0]
    for lat, lon in [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0)]:
        assert point_in_region(lat, lon, sq) is True


def test_hole_semantics():
    region = shape_regions()["holed"]
    assert point_in_region(0.5, 0.5, region) is True
    assert point_in_region(1.5, 1.5, region) is False
    # the hole's edge is still region boundary, so it reports inside
    assert point_in_region(1.0, 1.5, region) is True


def test_concave_notch():
    # C-shape: notch cut from lon 0.8 to 2.0 across lat 0.8..1.2
    region = shape_regions()["concave"]
    assert point_in_region(0.4, 1.0, region) is True  # below the notch
    assert point_in_region(1.0, 1.5, region) is False  # in the notch
    assert point_in_region(1.0, 0.4, region) is True  # left of the notch
    assert point_in_region(1.6, 1.0, region) is True  # above the notch


def test_point_above_vertex_longitude():
    # ray leaving straight through a vertex: perturbation keeps parity right
    region = shape_regions()["convex"]
    assert point_in_region(0.5, 1.1, region) is True
    assert point_in_region(-0.5, 1.1, region) is False


def test_matches_raster_oracle_sample():
    rnd = random.Random(7)
    for region in shape_regions().values():
        polys = region.polygons
        lat0, lon0, lat1, lon1 = region.bbox
        checked = 0
        for _ in range(400):
            lat = rnd.uniform(lat0 - 0.2, lat1 + 0.2)
            lon = rnd.uniform(lon0 - 0.2, lon1 + 0.2)
            if distance_to_boundary(lat, lon, polys) < BOUNDARY_PAD:
                continue
            verdict = raster_oracle(lat, lon, polys)
            if verdict is None:
                continue
            assert point_in_region(lat, lon, region) == verdict, (region.id, lat, lon)
            checked += 1
        assert checked > 300


def test_bulk_matches_scalar_on_tricky_points():
    region = shape_regions()["concave"]
    pts = [(0.4, 1.0), (1.6, 1.0), (0.0, 0.0), (2.0, 2.0), (0.5, 0.8), (1.5, 0.8),
           (0.8, 0.8), (-0.1, 1.0), (1.0, 2.0), (1.0, 2.1)]
    rnd = random.Random(3)
    pts += [(rnd.uniform(-0.5, 2.5), rnd.uniform(-0.5, 2.5)) for _ in range(500)]
    plats = np.array([p[0] for p in pts])
    plons = np.array([p[1] for p in pts])
    bulk = region_contains_bulk(region, plats, plons)
    for i, (lat, lon) in enumerate(pts):
        assert bulk[i] == point_in_region(lat, lon, region), (lat, lon)


@given(
    st.floats(min_value=-2.0, max_value=4.0),
    st.floats(min_value=-2.0, max_value=4.0),
)
def test_bbox_prefilter_soundness(lat, lon):
    for region in shape_regions().values():
        assert point_in_region(lat, lon, region, use_bbox=True) == point_in_region(
            lat, lon, region, use_bbox=False
        )


# dyadic lattice keeps the float translation exact, so the geometric
# invariant is testable without boundary-rounding flips
DYADIC_RING = [
    (0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.25, 2.0), (1.25, 0.75),
    (0.75, 0.75), (0.75, 2.0), (0.0, 2.0),
]


@settings(max_examples=200)
@given(
    st.integers(min_value=-8, max_value=24),
    st.integers(min_value=-8, max_value=24),
    st.integers(min_value=-80, max_value=80),
    st.integers(min_value=-200, max_value=200),
)
def test_translation_consistency(lat8, lon8, dlat4, dlon4):
    lat, lon = lat8 / 8.0, lon8 / 8.0
    dlat, dlon = dlat4 / 4.0, dlon4 / 4.0
    base = layer_of(polygon_feature("c", [DYADIC_RING])).regions[0]
    moved_ring = [(a + dlat, b + dlon) for a, b in DYADIC_RING]
    moved = layer_of(polygon_feature("c", [moved_ring])).regions[0]
    assert point_in_region(lat, lon, base) == point_in_region(lat + dlat, lon + dlon, moved)


# --- assignment ------------------------------------------------------------

def test_assign_basic(unit_square_layer):
    assignment = assign_events(table_of([ev(lat=0.5, lon=0.5), ev(lat=5.0, lon=5.0)]), unit_square_layer)
    assert assignment.region_ids == ["sq", None]
    assert assignment.unassigned == 1
    assert assignment.overlap_events == 0
    assert assignment.counts() == {"sq": 1}


def test_assign_counts_match_pointwise_oracle():
    layer = layer_of(square_feature("A", 0, 0, 1), square_feature("B", 0, 2, 1))
    rnd = random.Random(11)
    events = [ev(user=f"u{i}", lat=rnd.uniform(-0.5, 1.5), lon=rnd.uniform(-0.5, 3.5)) for i in range(10_000)]
    assignment = assign_events(table_of(events), layer)
    regions = layer.regions
    polys = {r.id: r.polygons for r in regions}
    expected = {}
    for e in events:
        for region in regions:
            if pnpoly_region(e.lat, e.lon, polys[region.id]):
                expected[region.id] = expected.get(region.id, 0) + 1
                break
    boundary = [
        e for e in events
        if any(distance_to_boundary(e.lat, e.lon, polys[r.id]) < 1e-9 for r in regions)
    ]
    assert not boundary  # random draws never land exactly on edges
    assert assignment.counts() == expected


def test_overlap_first_region_wins():
    layer = layer_of(square_feature("first", 0, 0, 2), square_feature("second", 1, 1, 2))
    assignment = assign_events(table_of([ev(lat=1.5, lon=1.5), ev(lat=0.5, lon=0.5), ev(lat=2.5, lon=2.5)]), layer)
    assert assignment.region_ids == ["first", "first", "second"]
    assert assignment.overlap_events == 1


def test_assign_reorder_invariance():
    layer = layer_of(square_feature("A", 0, 0, 1), square_feature("B", 0, 2, 1))
    rnd = random.Random(5)
    events = [ev(user=f"u{i}", lat=rnd.uniform(0, 1), lon=rnd.uniform(0, 3)) for i in range(500)]
    base = assign_events(table_of(events), layer)
    shuffled = events[:]
    rnd.shuffle(shuffled)
    again = assign_events(table_of(shuffled), layer)
    assert base.counts() == again.counts()
    assert base.unassigned == again.unassigned


def test_region_lookup_matches_assign(unit_square_layer):
    lookup = region_lookup(unit_square_layer)
    assert lookup(0.5, 0.5) == "sq"
    assert lookup(3.0, 3.0) is None
    points = [(0.5, 0.5), (3.0, 3.0), (1.0, 0.25), (0.0, 0.0), (-0.1, 0.5)]
    assignment = assign_events(table_of([ev(lat=a, lon=b) for a, b in points]), unit_square_layer)
    assert assignment.region_ids == [lookup(a, b) for a, b in points]


def test_assignments_csv_round_trip(tmp_path, unit_square_layer):
    assignment = assign_events(table_of([ev(lat=0.5, lon=0.5), ev(lat=5.0, lon=5.0)]), unit_square_layer)
    text = assignments_to_csv(assignment)
    assert text.splitlines()[0] == "event_index,region_id"
    path = tmp_path / "assign.csv"
    path.write_text(text)
    assert read_assignments_csv(path) == ["sq", None]
