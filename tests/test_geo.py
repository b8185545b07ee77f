"""Region loading and point-in-polygon assignment vs independent oracles."""

import io
import json
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cityattract.geo as geo
from cityattract.events import EventTable
from cityattract.geo import (
    LayerError,
    RegionLayer,
    assign_events,
    layer_to_geojson,
    load_layer,
    region_contains_bulk,
    write_layer_geojson,
)

from conftest import (
    assignments_csv,
    ev,
    layer_of,
    multipolygon_feature,
    polygon_feature,
    region_counts,
    shape_regions,
    square_feature,
    table_of,
)
from oracles import (
    distance_to_boundary,
    pnpoly_region,
    point_in_region,
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


@pytest.mark.parametrize("span_ok", [True, False])
def test_ring_spanning_more_than_180_degrees_rejected(span_ok):
    # a ring running lon 178 -> -179 that is not split at the antimeridian
    # would read as the long way round: containing lon 0, missing lon 179.5
    west = -2.0 if span_ok else -179.0
    ring = [[178.0, 10.0], [west, 10.0], [west, 11.0], [178.0, 11.0], [178.0, 10.0]]
    feature = {"type": "Feature", "properties": {"id": "a", "name": "a", "layer": "L"},
               "geometry": {"type": "Polygon", "coordinates": [ring]}}
    if span_ok:  # exactly 180 degrees
        assert layer_of(feature).regions[0].bbox == (10.0, -2.0, 11.0, 178.0)
    else:
        with pytest.raises(LayerError, match="feature 0: ring spans more than 180 degrees of longitude"):
            layer_of(feature)


def test_label_precedence():
    feats = [square_feature("a", 0, 0, 1, layer="from-prop")]
    assert load_layer({"type": "FeatureCollection", "features": feats}).label == "from-prop"
    assert load_layer({"type": "FeatureCollection", "name": "coll", "features": feats}).label == "coll"


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
    assert layer_to_geojson(again) == layer_to_geojson(layer)
    assert [r.bbox for r in again.regions] == [r.bbox for r in layer.regions]


def test_loaded_region_cannot_change():
    layer = layer_of(polygon_feature("holed", [[(0, 0), (3, 0), (3, 3), (0, 3)], [(1, 1), (2, 1), (2, 2), (1, 2)]]))
    (region,) = layer.regions
    for name in ("id", "polygons", "bbox"):
        with pytest.raises(FrozenInstanceError):
            setattr(region, name, getattr(region, name))
    with pytest.raises(FrozenInstanceError):
        layer.regions = ()
    outer, (hole,) = region.polygons[0]
    for ring in (outer, hole):
        assert ring.dtype == np.float64 and ring.shape == (4, 2)
        with pytest.raises(ValueError, match="read-only"):
            ring[0, 0] = 9.0


# --- containment -----------------------------------------------------------

def contains_bulk(lat: float, lon: float, region) -> bool:
    return bool(region_contains_bulk(region, np.array([lat]), np.array([lon]))[0])


# the production path, and the scalar oracle it must agree with
CONTAINS = (contains_bulk, point_in_region)


def multi_holed_region():
    """A holed square and a triangle above it, each with vertex longitudes
    inside the other's longitude span."""
    outer = [(0.0, 0.0), (0.0, 2.0), (2.0, 2.0), (2.0, 0.0)]
    hole = [(0.5, 0.5), (0.5, 1.5), (1.5, 1.5), (1.5, 0.5)]
    triangle = [(2.5, 0.25), (4.0, 1.0), (2.5, 2.5)]
    return layer_of(multipolygon_feature("multi", [[outer, hole], [triangle]])).regions[0]


def test_unit_square_examples(unit_square_layer):
    sq = unit_square_layer.regions[0]
    for contains in CONTAINS:
        assert contains(0.5, 0.5, sq) is True
        assert contains(2.0, 2.0, sq) is False


def test_boundary_counts_as_inside(unit_square_layer):
    sq = unit_square_layer.regions[0]
    for contains in CONTAINS:
        for lat, lon in [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0)]:
            assert contains(lat, lon, sq) is True


def test_hole_semantics():
    region = shape_regions()["holed"]
    for contains in CONTAINS:
        assert contains(0.5, 0.5, region) is True
        assert contains(1.5, 1.5, region) is False
        # the hole's edge is still region boundary, so it reports inside
        assert contains(1.0, 1.5, region) is True


def test_concave_notch():
    # C-shape: notch cut from lon 0.8 to 2.0 across lat 0.8..1.2
    region = shape_regions()["concave"]
    for contains in CONTAINS:
        assert contains(0.4, 1.0, region) is True  # below the notch
        assert contains(1.0, 1.5, region) is False  # in the notch
        assert contains(1.0, 0.4, region) is True  # left of the notch
        assert contains(1.6, 1.0, region) is True  # above the notch


def test_point_above_vertex_longitude():
    # ray leaving straight through a vertex: perturbation keeps parity right
    region = shape_regions()["convex"]
    for contains in CONTAINS:
        assert contains(0.5, 1.1, region) is True
        assert contains(-0.5, 1.1, region) is False


def test_multipolygon_at_vertex_longitudes():
    # each point's longitude is a vertex longitude of one polygon only
    region = multi_holed_region()
    for contains in CONTAINS:
        assert contains(3.0, 1.5, region) is True  # in the triangle, on a hole vertex line
        assert contains(3.75, 1.5, region) is False  # above the triangle
        assert contains(1.0, 1.0, region) is False  # in the hole, on the triangle's vertex line
        assert contains(2.25, 1.0, region) is False  # between the two polygons
        assert contains(1.5, 1.0, region) is True  # on the hole's edge
        assert contains(1.0, 2.0, region) is True  # on the square's edge


def test_ray_shift_is_per_polygon_on_steep_edges():
    # edges so steep that moving the ray 1e-12 degrees east moves their
    # crossings 1e-6 degrees north; lon 1.0 is a vertex longitude of the
    # first polygon only, so only its ray shifts
    needle = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.0, 1.0 + 1e-6)]
    wedge = [(3.0, 1.0 - 1e-6), (5.0, 1.0 + 1e-6), (5.0, 0.0)]
    region = layer_of(multipolygon_feature("n", [[needle], [wedge]])).regions[0]
    for contains in CONTAINS:
        assert contains(1.0 - 1e-7, 1.0, region) is False  # above the shifted crossing
        assert contains(1.0 - 2e-6, 1.0, region) is True
        assert contains(4.0 + 5e-7, 1.0, region) is True  # above the unshifted crossing
        assert contains(4.0 - 5e-7, 1.0, region) is False


def test_ray_shift_repeats_until_off_every_vertex():
    # vertex longitudes 1.0 and 1.0 + 1e-12: a ray at lon 1.0 shifts twice,
    # past the second vertex, before it crosses the steep edge east of it
    ring = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.5, 1.0 + 1e-12), (0.0, 1.0 + 1e-6)]
    region = layer_of(polygon_feature("ladder", [ring])).regions[0]
    for contains in CONTAINS:
        assert contains(0.5 - 2e-7, 1.0, region) is False  # above the twice-shifted crossing
        assert contains(0.5 - 8e-7, 1.0, region) is True


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
            for contains in CONTAINS:
                assert contains(lat, lon, region) == verdict, (region.id, lat, lon)
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


PROPERTY_REGIONS = (*shape_regions().values(), multi_holed_region())
VERTEX_LATS = sorted({y for r in PROPERTY_REGIONS for o, h in r.polygons for ring in (o, *h) for y, _ in ring})
VERTEX_LONS = sorted({x for r in PROPERTY_REGIONS for o, h in r.polygons for ring in (o, *h) for _, x in ring})
# half the coordinates sit on a vertex line, or a ray shift off one
AXIS = st.floats(min_value=-2.0, max_value=5.0)
LATS = st.one_of(AXIS, st.sampled_from(VERTEX_LATS))
LONS = st.one_of(AXIS, st.sampled_from(VERTEX_LONS).flatmap(lambda x: st.sampled_from([x, x + 1e-12])))


@settings(max_examples=200)
@given(st.lists(st.tuples(LATS, LONS), min_size=1, max_size=16))
def test_bbox_prefilter_soundness(points):
    # the bulk path, bbox filter and ray shift included, agrees with the
    # scalar oracle run without its bbox test
    plats = np.array([lat for lat, _ in points])
    plons = np.array([lon for _, lon in points])
    for region in PROPERTY_REGIONS:
        expected = [point_in_region(lat, lon, region, use_bbox=False) for lat, lon in points]
        assert region_contains_bulk(region, plats, plons).tolist() == expected, region.id


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
    for contains in CONTAINS:
        assert contains(lat, lon, base) == contains(lat + dlat, lon + dlon, moved)


# --- assignment ------------------------------------------------------------

def test_assign_basic(unit_square_layer):
    assignment = assign_events(table_of([ev(lat=0.5, lon=0.5), ev(lat=5.0, lon=5.0)]), unit_square_layer)
    assert assignment.region_ids == ["sq", None]
    assert assignment.unassigned == 1
    assert assignment.overlap_events == 0
    assert region_counts(assignment) == {"sq": 1}


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
    assert region_counts(assignment) == expected


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
    assert region_counts(base) == region_counts(again)
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
    text = assignments_csv(assignment)
    assert text.splitlines()[0] == "event_index,region_id"
    path = tmp_path / "assign.csv"
    path.write_text(text)
    assert read_assignments_csv(path) == ["sq", None]


# overlapping regions: the fixture shapes, the MultiPolygon with a hole and
# a square over parts of all of them
ASSIGN_LAYER = RegionLayer("p", (*PROPERTY_REGIONS, layer_of(square_feature("over", 0.5, 0.5, 2.0)).regions[0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(LATS, LONS), min_size=1, max_size=40))
def test_assign_events_matches_oracle_across_slices(points):
    # seven points per slice, so a region's bbox points straddle slices;
    # vertices, edges and holes come from the vertex lines
    expected = [[r.id for r in ASSIGN_LAYER.regions if point_in_region(lat, lon, r)] for lat, lon in points]
    with mock.patch.object(geo, "SLICE", 7):
        assignment = assign_events(table_of([ev(lat=lat, lon=lon) for lat, lon in points]), ASSIGN_LAYER)
    assert assignment.index.dtype == np.int32
    assert assignment.region_ids == [ids[0] if ids else None for ids in expected]
    assert assignment.overlap_events == sum(len(ids) > 1 for ids in expected)
    assert assignment.unassigned == sum(not ids for ids in expected)
    wide = replace(assignment, index=assignment.index.astype(np.int64))
    assert assignments_csv(assignment) == assignments_csv(wide)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(LATS, LONS), max_size=40), st.integers(min_value=1, max_value=9))
def test_bbox_parts_pool_slices_up_to_slice_points(points, size):
    # every point in the bbox once, ascending, in non-empty parts of at
    # most SLICE points
    lat = np.array([p[0] for p in points], dtype=np.float64)
    lon = np.array([p[1] for p in points], dtype=np.float64)
    for region in ASSIGN_LAYER.regions:
        b = region.bbox
        with mock.patch.object(geo, "SLICE", size):
            parts = list(geo._bbox_parts(b, lat, lon))
        assert all(0 < len(part) <= size for part in parts)
        want = [i for i, (y, x) in enumerate(points) if b[0] <= y <= b[2] and b[1] <= x <= b[3]]
        assert [i for part in parts for i in part.tolist()] == want


def _assign_work_bytes(n: int) -> int:
    """Traced bytes that assign_events holds at its peak beyond what it
    returns, for n points under a region covering them all and one
    covering half."""
    layer = layer_of(square_feature("all", 0.0, 0.0, 20.0), square_feature("half", 0.0, 0.0, 10.0))
    rng = np.random.default_rng(1)
    lat, lon = rng.uniform(0.0, 20.0, n), rng.uniform(0.0, 20.0, n)
    codes = np.zeros(n, dtype=np.int32)
    table = EventTable(codes, ("u",), np.zeros(n, np.int64), lat, lon, codes - 1, (), codes, ("t",))
    assign_events(table_of([ev()]), layer)  # builds the regions' cached ring arrays
    tracemalloc.start()
    try:
        assignment = assign_events(table, layer)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert assignment.unassigned == 0
    return peak - current


def test_assign_work_memory_does_not_copy_every_point():
    # the containment kernel runs on at most SLICE points at a time, so a
    # region's float64 coordinate copies (16 bytes a point) and ring masks
    # stay bounded, and so do the bbox scan's masks and candidate indices;
    # what grows with the points is the overlap flags, a byte each
    growth = _assign_work_bytes(400_000) - _assign_work_bytes(100_000)
    assert growth < 300_000 * 16
