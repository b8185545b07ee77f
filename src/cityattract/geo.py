"""Region layers and point-in-polygon assignment.

Geometry is planar even-odd ray casting on raw (lat, lon) degrees, for
city and country layers alike.  That is the GeoJSON reading of a polygon
(RFC 7946 section 3.1.1: an edge is a straight line in the coordinate
space), so no projection is involved at any scale.  Every coordinate
must be finite, and a ring crossing the antimeridian must be split before
loading (RFC 7946 section 3.1.9): a ring whose longitudes span more than
180 degrees is rejected.

Conventions, fixed for determinism:
  - a point exactly on any ring edge is inside;
  - the crossing ray is cast northward (increasing latitude); whenever the
    ray meridian coincides with a vertex longitude of a polygon (outer ring
    or holes) it is shifted by +1e-12 degrees until it does not, polygon
    by polygon, so vertex hits never need tie rules;
  - a per-region bounding-box test may short-circuit to False but never
    changes an answer.

load_layer holds each ring once, as a read-only float64 (n, 2) array of
(lat, lon) vertices, in frozen regions.  _polygons_contain is the one
containment kernel: it tests arrays of points against those rings, ray
shift included, with no per-point branch.  assign_events runs it on
the points in each region's bbox, SLICE at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .events import EventTable
from .output import coded_column, csv_blocks, decimal_rows, write_text

Ring = np.ndarray  # read-only float64 (n, 2) array of (lat, lon) vertices, not closed
PolygonRings = tuple[Ring, tuple[Ring, ...]]  # outer ring + hole rings

_RAY_SHIFT = 1e-12

SLICE = 1 << 16  # points a bbox scan reads at once, and most that a containment test copies


class LayerError(ValueError):
    """Invalid region layer input."""


@dataclass(frozen=True, eq=False, slots=True)
class Region:
    """A named polygonal region; frozen, with read-only rings, and compared by identity."""

    id: str
    name: str
    layer: str
    population: int | None
    polygons: tuple[PolygonRings, ...]
    bbox: tuple[float, float, float, float]  # min_lat, min_lon, max_lat, max_lon


@dataclass(frozen=True)
class RegionLayer:
    label: str
    regions: tuple[Region, ...]


@dataclass(frozen=True, eq=False)
class Assignment:
    """Per-event region positions plus overlap/unassigned diagnostics.

    ``index[i]`` is the position in ``regions`` of the region holding
    event i, or -1 when no region holds it; it is read-only.
    """

    index: np.ndarray
    regions: tuple[str, ...]
    overlap_events: int
    unassigned: int

    def __post_init__(self) -> None:
        self.index.setflags(write=False)

    @property
    def region_ids(self) -> list[str | None]:
        return np.array((*self.regions, None), dtype=object)[self.index].tolist()


# ---------------------------------------------------------------------------
# loading

def _as_ring(coords, where: str, vertices: list[tuple[float, float]]) -> Ring:
    """The ring as a read-only array; its vertices also go to ``vertices``, for the region's bbox."""
    if not isinstance(coords, list) or len(coords) < 3:
        raise LayerError(f"{where}: ring with < 3 vertices")
    pts = []
    for pt in coords:
        if not isinstance(pt, (list, tuple)) or len(pt) < 2:
            raise LayerError(f"{where}: bad coordinate pair")
        lon, lat = pt[0], pt[1]
        if type(lat) is not float or type(lon) is not float:  # JSON's floats need neither check
            if isinstance(lon, bool) or isinstance(lat, bool) or not isinstance(lon, (int, float)) or not isinstance(lat, (int, float)):
                raise LayerError(f"{where}: non-numeric coordinate")
            try:
                lat, lon = float(lat), float(lon)
            except OverflowError:  # an integer too large for a float
                lat = math.inf
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise LayerError(f"{where}: non-finite coordinate")
        pts.append((lat, lon))
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()  # GeoJSON rings close on themselves; store open
    if len(set(pts)) < 3:
        raise LayerError(f"{where}: ring with < 3 distinct vertices")
    lons = [lon for _, lon in pts]
    if max(lons) - min(lons) > 180.0:  # an unsplit antimeridian crossing reads as the long way round
        raise LayerError(f"{where}: ring spans more than 180 degrees of longitude; split it at the antimeridian")
    vertices += pts
    ring = np.array(pts, dtype=np.float64)
    ring.setflags(write=False)
    return ring


def _as_polygon(rings, where: str, vertices: list[tuple[float, float]]) -> PolygonRings:
    if not isinstance(rings, list) or not rings:
        raise LayerError(f"{where}: empty polygon")
    outer = _as_ring(rings[0], where, vertices)
    return outer, tuple(_as_ring(r, where, vertices) for r in rings[1:])


def load_layer(source: str | Path | IO[bytes] | IO[str] | dict) -> RegionLayer:
    """Load a GeoJSON FeatureCollection of Polygon/MultiPolygon features.

    Features must carry ``id``, ``name``, ``layer`` and may carry
    ``population`` properties.  GeoJSON (lon, lat) coordinate order is
    converted to the internal (lat, lon) convention.
    """
    if isinstance(source, dict):
        obj = source
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        obj = json.loads(data)
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise LayerError("expected a GeoJSON FeatureCollection")
    features = obj.get("features")
    if not isinstance(features, list) or not features:
        raise LayerError("FeatureCollection has no features")

    regions: list[Region] = []
    seen: set[str] = set()
    for k, feat in enumerate(features):
        where = f"feature {k}"
        if not isinstance(feat, dict) or feat.get("type") != "Feature":
            raise LayerError(f"{where}: not a Feature")
        props = feat.get("properties") or {}
        if not isinstance(props, dict):
            raise LayerError(f"{where}: properties must be an object")
        rid = props.get("id")
        if rid is None:
            raise LayerError(f"{where}: missing id")
        rid = str(rid)
        if rid in seen:
            raise LayerError(f"duplicate region id: {rid}")
        seen.add(rid)
        name = str(props.get("name", rid))
        layer_tag = str(props.get("layer", ""))
        population = props.get("population")
        if population is not None:
            # json reads Infinity, 1e400 and NaN as floats that int() refuses
            integral = isinstance(population, float) and math.isfinite(population) and population.is_integer()
            if isinstance(population, bool) or not (isinstance(population, int) or integral):
                raise LayerError(f"{where}: population must be an integer")
            population = int(population)
            if population < 1:
                raise LayerError(f"{where}: population must be >= 1")
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict):
            raise LayerError(f"{where}: geometry must be an object")
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        vertices: list[tuple[float, float]] = []
        if gtype == "Polygon":
            polygons = (_as_polygon(coords, where, vertices),)
        elif gtype == "MultiPolygon":
            if not isinstance(coords, list) or not coords:
                raise LayerError(f"{where}: empty MultiPolygon")
            polygons = tuple(_as_polygon(p, where, vertices) for p in coords)
        else:
            raise LayerError(f"{where}: unsupported geometry type: {gtype!r}")
        lats, lons = zip(*vertices)
        bbox = (min(lats), min(lons), max(lats), max(lons))
        regions.append(Region(rid, name, layer_tag, population, polygons, bbox))

    return RegionLayer(str(obj.get("name") or regions[0].layer or "layer"), tuple(regions))


def layer_to_geojson(layer: RegionLayer) -> dict:
    """Serialize back to GeoJSON ((lon, lat) order, closed rings)."""

    def close(ring: Ring) -> list[list[float]]:
        pts = ring[:, ::-1].tolist()
        pts.append(pts[0])
        return pts

    features = []
    for region in layer.regions:
        if len(region.polygons) == 1:
            outer, holes = region.polygons[0]
            geometry = {"type": "Polygon", "coordinates": [close(outer)] + [close(h) for h in holes]}
        else:
            geometry = {
                "type": "MultiPolygon",
                "coordinates": [[close(outer)] + [close(h) for h in holes] for outer, holes in region.polygons],
            }
        props = {"id": region.id, "name": region.name, "layer": region.layer}
        if region.population is not None:
            props["population"] = region.population
        features.append({"type": "Feature", "properties": props, "geometry": geometry})
    return {"type": "FeatureCollection", "name": layer.label, "features": features}


def write_layer_geojson(layer: RegionLayer, path: str | Path) -> None:
    write_text(path, json.dumps(layer_to_geojson(layer), separators=(",", ":"), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# point-in-polygon

def _ring_masks_bulk(plats: np.ndarray, plons: np.ndarray, rx: np.ndarray, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """On-edge and even-odd interior masks for one ring.

    The on-edge test takes the points' own longitudes ``plons``; the
    crossing test casts each point's ray at meridian ``rx``, which must
    not equal any vertex longitude of the ring.
    """
    on_edge = np.zeros(plats.shape[0], dtype=bool)
    inside = np.zeros(plats.shape[0], dtype=bool)
    vertices = ring.tolist()
    yj, xj = vertices[-1]
    for yi, xi in vertices:
        lo_y, hi_y = (yi, yj) if yi < yj else (yj, yi)
        lo_x, hi_x = (xi, xj) if xi < xj else (xj, xi)
        near = (plats >= lo_y) & (plats <= hi_y) & (plons >= lo_x) & (plons <= hi_x)
        if near.any():
            cross = (xj - xi) * (plats - yi) - (yj - yi) * (plons - xi)
            on_edge |= near & (cross == 0.0)
        straddle = (xi > rx) != (xj > rx)
        if straddle.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                cross_lat = yi + (rx - xi) * (yj - yi) / (xj - xi)
            inside ^= straddle & (cross_lat > plats)
        yj, xj = yi, xi
    return on_edge, inside


def _region_hits(region: Region, plats: np.ndarray, plons: np.ndarray) -> Iterator[np.ndarray]:
    """Ascending indices of the points inside (or on the boundary of) the
    region, in parts: the points in its bbox are tested SLICE at a time."""
    for idx in _bbox_parts(region.bbox, plats, plons):
        yield idx[_polygons_contain(region, plats[idx], plons[idx])]


def _bbox_parts(bbox: tuple[float, float, float, float], plats: np.ndarray, plons: np.ndarray) -> Iterator[np.ndarray]:
    """Ascending indices of the points in a bbox, in parts of at most SLICE.

    The points are read SLICE at a time: longitude picks a slice's
    candidates and latitude keeps those in the bbox.  Consecutive slices'
    candidates are pooled into one part until the next slice's would pass
    SLICE, so no array spans every point."""
    pool: list[np.ndarray] = []
    pooled = 0
    for start in range(0, plons.shape[0], SLICE):
        lons = plons[start : start + SLICE]
        idx = np.flatnonzero((lons >= bbox[1]) & (lons <= bbox[3]))
        idx += start
        lats = plats[idx]
        idx = idx[(lats >= bbox[0]) & (lats <= bbox[2])]
        del lats
        if pooled + idx.shape[0] > SLICE:
            part, pool, pooled = np.concatenate(pool), [], 0
            yield part
        pool.append(idx)
        pooled += idx.shape[0]
    if pooled:
        yield np.concatenate(pool)


def _polygons_contain(region: Region, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """The containment kernel: True where a point is on a ring edge or
    inside one of the region's polygons, holes excluded."""
    on_edge = np.zeros(lats.shape[0], dtype=bool)
    contained = np.zeros(lats.shape[0], dtype=bool)
    for outer, holes in region.polygons:
        # step the ray meridian off this polygon's vertex longitudes
        vlons = np.sort(np.concatenate([ring[:, 1] for ring in (outer, *holes)]))
        rx = lons
        while (hit := vlons[np.searchsorted(vlons, rx).clip(max=len(vlons) - 1)] == rx).any():
            rx = np.where(hit, rx + _RAY_SHIFT, rx)
        edge, inside = _ring_masks_bulk(lats, lons, rx, outer)
        on_edge |= edge
        for hole in holes:
            edge, in_hole = _ring_masks_bulk(lats, lons, rx, hole)
            on_edge |= edge
            inside &= ~in_hole
        contained |= inside
    return on_edge | contained


# ---------------------------------------------------------------------------
# event assignment

def assign_events(events: EventTable, layer: RegionLayer) -> Assignment:
    """Map each event to the first containing region in layer order.

    Events contained by more than one region are assigned to the earliest
    region and counted in ``overlap_events``.  The result is independent of
    event order.  Each region tests only the events in its bounding box,
    at most SLICE of them at a time, so the work memory of a region that
    covers most events stays bounded.
    """
    assigned = np.full(len(events), -1, dtype=np.int32)
    multi = np.zeros(len(events), dtype=bool)
    for ri, region in enumerate(layer.regions):
        for hits in _region_hits(region, events.lat, events.lon):
            already = assigned[hits] >= 0
            multi[hits[already]] = True
            assigned[hits[~already]] = ri
    return Assignment(
        index=assigned,
        regions=tuple(r.id for r in layer.regions),
        overlap_events=int(multi.sum()),
        unassigned=int((assigned < 0).sum()),
    )


def assignments_csv_blocks(assignment: Assignment) -> Iterator[bytes]:
    """One ``event_index,region_id`` row per event, in row blocks."""
    return csv_blocks(
        ("event_index", "region_id"),
        assignment.index.shape[0],
        (
            lambda start, stop: decimal_rows(np.arange(start, stop)),
            coded_column(assignment.regions, assignment.index),
        ),
    )


def write_assignments_csv(assignment: Assignment, path: str | Path) -> None:
    write_text(path, assignments_csv_blocks(assignment))
