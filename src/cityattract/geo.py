"""Region layers and point-in-polygon assignment.

Geometry is planar even-odd ray casting on raw (lat, lon) degrees: the
regions this package deals with are city-scale, where projection error is
negligible and a flat-plane method stays easy to cross-check.

Conventions, fixed for determinism:
  - a point exactly on any ring edge is inside;
  - the crossing ray is cast northward (increasing latitude); whenever the
    ray meridian coincides with a ring vertex longitude it is shifted by
    +1e-12 degrees until it does not, so vertex hits never need tie rules;
  - a per-region bounding-box test may short-circuit to False but never
    changes an answer.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .events import EventTable, labels_of

Ring = tuple[tuple[float, float], ...]  # (lat, lon) vertices, not closed
PolygonRings = tuple[Ring, tuple[Ring, ...]]  # outer ring + hole rings

_RAY_SHIFT = 1e-12


class LayerError(ValueError):
    """Invalid region layer input."""


@dataclass
class Region:
    """A named polygonal region; treated as immutable once loaded."""

    id: str
    name: str
    layer: str
    population: int | None
    polygons: tuple[PolygonRings, ...]
    bbox: tuple[float, float, float, float]  # min_lat, min_lon, max_lat, max_lon
    _arrays: dict | None = field(default=None, repr=False, compare=False)


@dataclass
class RegionLayer:
    label: str
    regions: tuple[Region, ...]

    def by_id(self) -> dict[str, Region]:
        return {r.id: r for r in self.regions}


@dataclass(eq=False)
class Assignment:
    """Per-event region positions plus overlap/unassigned diagnostics.

    ``index[i]`` is the position in ``regions`` of the region holding
    event i, or -1 when no region holds it.
    """

    index: np.ndarray
    regions: tuple[str, ...]
    overlap_events: int
    unassigned: int

    @property
    def region_ids(self) -> list[str | None]:
        return labels_of(self.regions, self.index)

    def counts(self) -> dict[str, int]:
        tally = np.bincount(self.index[self.index >= 0], minlength=len(self.regions))
        return {self.regions[i]: int(tally[i]) for i in np.flatnonzero(tally)}


# ---------------------------------------------------------------------------
# loading

def _as_ring(coords, where: str) -> Ring:
    if not isinstance(coords, list) or len(coords) < 3:
        raise LayerError(f"{where}: ring with < 3 vertices")
    pts = []
    for pt in coords:
        if not isinstance(pt, (list, tuple)) or len(pt) < 2:
            raise LayerError(f"{where}: bad coordinate pair")
        lon, lat = pt[0], pt[1]
        if isinstance(lon, bool) or isinstance(lat, bool) or not isinstance(lon, (int, float)) or not isinstance(lat, (int, float)):
            raise LayerError(f"{where}: non-numeric coordinate")
        pts.append((float(lat), float(lon)))
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()  # GeoJSON rings close on themselves; store open
    if len({p for p in pts}) < 3:
        raise LayerError(f"{where}: ring with < 3 distinct vertices")
    return tuple(pts)


def _as_polygon(rings, where: str) -> PolygonRings:
    if not isinstance(rings, list) or not rings:
        raise LayerError(f"{where}: empty polygon")
    outer = _as_ring(rings[0], where)
    holes = tuple(_as_ring(r, where) for r in rings[1:])
    return outer, holes


def load_layer(source: str | Path | IO[bytes] | IO[str] | dict, label: str | None = None) -> RegionLayer:
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
            if isinstance(population, bool) or not isinstance(population, (int, float)) or population != int(population):
                raise LayerError(f"{where}: population must be an integer")
            population = int(population)
            if population < 1:
                raise LayerError(f"{where}: population must be >= 1")
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "Polygon":
            polygons = (_as_polygon(coords, where),)
        elif gtype == "MultiPolygon":
            if not isinstance(coords, list) or not coords:
                raise LayerError(f"{where}: empty MultiPolygon")
            polygons = tuple(_as_polygon(p, where) for p in coords)
        else:
            raise LayerError(f"{where}: unsupported geometry type: {gtype!r}")
        all_pts = [pt for outer, holes in polygons for ring in (outer, *holes) for pt in ring]
        bbox = (
            min(p[0] for p in all_pts),
            min(p[1] for p in all_pts),
            max(p[0] for p in all_pts),
            max(p[1] for p in all_pts),
        )
        regions.append(Region(rid, name, layer_tag, population, polygons, bbox))

    if label is None:
        label = obj.get("name") or regions[0].layer or "layer"
    return RegionLayer(str(label), tuple(regions))


def layer_to_geojson(layer: RegionLayer) -> dict:
    """Serialize back to GeoJSON ((lon, lat) order, closed rings)."""

    def close(ring: Ring) -> list[list[float]]:
        pts = [[lon, lat] for lat, lon in ring]
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(layer_to_geojson(layer), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# point-in-polygon

def _on_ring_edge(lat: float, lon: float, ring: Ring) -> bool:
    n = len(ring)
    yj, xj = ring[n - 1]
    for i in range(n):
        yi, xi = ring[i]
        if (yi if yi < yj else yj) <= lat <= (yi if yi > yj else yj) and (
            xi if xi < xj else xj
        ) <= lon <= (xi if xi > xj else xj):
            cross = (xj - xi) * (lat - yi) - (yj - yi) * (lon - xi)
            if cross == 0.0:
                return True
        yj, xj = yi, xi
    return False


def _ray_meridian(lon: float, rings: Sequence[Ring]) -> float:
    """Shift the ray meridian off any vertex longitude it coincides with."""
    rx = lon
    vlons = {x for ring in rings for _, x in ring}
    while rx in vlons:
        rx += _RAY_SHIFT
    return rx


def _inside_ring(lat: float, rx: float, ring: Ring) -> bool:
    """Even-odd test against a northward ray at meridian ``rx``.

    ``rx`` must not equal any vertex longitude of ``ring``.
    """
    inside = False
    n = len(ring)
    yj, xj = ring[n - 1]
    for i in range(n):
        yi, xi = ring[i]
        if (xi > rx) != (xj > rx):
            cross_lat = yi + (rx - xi) * (yj - yi) / (xj - xi)
            if cross_lat > lat:
                inside = not inside
        yj, xj = yi, xi
    return inside


def point_in_region(lat: float, lon: float, region: Region, use_bbox: bool = True) -> bool:
    """True iff the point is inside (or on the boundary of) the region."""
    if use_bbox:
        b = region.bbox
        if not (b[0] <= lat <= b[2] and b[1] <= lon <= b[3]):
            return False
    for outer, holes in region.polygons:
        if _on_ring_edge(lat, lon, outer) or any(_on_ring_edge(lat, lon, h) for h in holes):
            return True
    for outer, holes in region.polygons:
        rings = (outer, *holes)
        rx = _ray_meridian(lon, rings)
        if _inside_ring(lat, rx, outer) and not any(_inside_ring(lat, rx, h) for h in holes):
            return True
    return False


def _region_arrays(region: Region) -> dict:
    cache = region._arrays
    if cache is None:
        polys = []
        vlons: list[np.ndarray] = []
        for outer, holes in region.polygons:
            rings = []
            for ring in (outer, *holes):
                arr = np.asarray(ring, dtype=np.float64)
                rings.append((arr[:, 0], arr[:, 1]))
                vlons.append(arr[:, 1])
            polys.append(rings)
        cache = {"polys": polys, "vlons": np.unique(np.concatenate(vlons))}
        region._arrays = cache
    return cache


def _ring_masks_bulk(
    plats: np.ndarray, plons: np.ndarray, rlats: np.ndarray, rlons: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized on-edge and even-odd interior masks for one ring.

    Mirrors _on_ring_edge/_inside_ring expression-for-expression so scalar
    and bulk paths return bit-identical answers.  Caller guarantees no
    point longitude coincides with a ring vertex longitude.
    """
    npts = plats.shape[0]
    on_edge = np.zeros(npts, dtype=bool)
    inside = np.zeros(npts, dtype=bool)
    n = rlats.shape[0]
    yj, xj = rlats[n - 1], rlons[n - 1]
    for i in range(n):
        yi, xi = rlats[i], rlons[i]
        lo_y, hi_y = (yi, yj) if yi < yj else (yj, yi)
        lo_x, hi_x = (xi, xj) if xi < xj else (xj, xi)
        near = (plats >= lo_y) & (plats <= hi_y) & (plons >= lo_x) & (plons <= hi_x)
        if near.any():
            cross = (xj - xi) * (plats - yi) - (yj - yi) * (plons - xi)
            on_edge |= near & (cross == 0.0)
        straddle = (xi > plons) != (xj > plons)
        if straddle.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                cross_lat = yi + (plons - xi) * (yj - yi) / (xj - xi)
            inside ^= straddle & (cross_lat > plats)
        yj, xj = yi, xi
    return on_edge, inside


def region_contains_bulk(region: Region, plats: np.ndarray, plons: np.ndarray) -> np.ndarray:
    """Vectorized point_in_region over arrays of points."""
    plats = np.asarray(plats, dtype=np.float64)
    plons = np.asarray(plons, dtype=np.float64)
    out = np.zeros(plats.shape[0], dtype=bool)
    b = region.bbox
    mask = (plats >= b[0]) & (plats <= b[2]) & (plons >= b[1]) & (plons <= b[3])
    if not mask.any():
        return out
    idx = np.nonzero(mask)[0]
    sl, so = plats[idx], plons[idx]
    cache = _region_arrays(region)
    # points sharing a longitude with a vertex take the scalar path, which
    # owns the ray-shift rule
    needs_shift = np.isin(so, cache["vlons"])
    for k in np.nonzero(needs_shift)[0]:
        out[idx[k]] = point_in_region(float(sl[k]), float(so[k]), region, use_bbox=False)
    rest = ~needs_shift
    if rest.any():
        rl, ro = sl[rest], so[rest]
        contained = np.zeros(rl.shape[0], dtype=bool)
        on_any = np.zeros(rl.shape[0], dtype=bool)
        for rings in cache["polys"]:
            outer_edge, outer_in = _ring_masks_bulk(rl, ro, *rings[0])
            on_any |= outer_edge
            in_hole = np.zeros(rl.shape[0], dtype=bool)
            for hole in rings[1:]:
                hole_edge, hole_in = _ring_masks_bulk(rl, ro, *hole)
                on_any |= hole_edge
                in_hole |= hole_in
            contained |= outer_in & ~in_hole
        out[idx[rest]] = on_any | contained
    return out


# ---------------------------------------------------------------------------
# event assignment

def _assign_chunk(
    lats: np.ndarray, lons: np.ndarray, regions: Sequence[Region]
) -> tuple[np.ndarray, np.ndarray]:
    assigned = np.full(lats.shape[0], -1, dtype=np.int64)
    multi = np.zeros(lats.shape[0], dtype=bool)
    for ri, region in enumerate(regions):
        hits = np.nonzero(region_contains_bulk(region, lats, lons))[0]
        if hits.shape[0] == 0:
            continue
        already = assigned[hits] >= 0
        multi[hits[already]] = True
        assigned[hits[~already]] = ri
    return assigned, multi


def assign_events(events: EventTable, layer: RegionLayer, threads: int = 1) -> Assignment:
    """Map each event to the first containing region in layer order.

    Events contained by more than one region are assigned to the earliest
    region and counted in ``overlap_events``.  The result is independent of
    event order and of how the workload is sharded.
    """
    lats, lons = events.lat, events.lon
    n = len(events)
    if threads > 1 and n >= 4096:
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        chunks = [(lats[a:b], lons[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda c: _assign_chunk(c[0], c[1], layer.regions), chunks))
        assigned = np.concatenate([p[0] for p in parts])
        multi = np.concatenate([p[1] for p in parts])
    else:
        assigned, multi = _assign_chunk(lats, lons, layer.regions)
    return Assignment(
        index=assigned,
        regions=tuple(r.id for r in layer.regions),
        overlap_events=int(multi.sum()),
        unassigned=int((assigned < 0).sum()),
    )


def assignments_to_csv(assignment: Assignment) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("event_index", "region_id"))
    writer.writerows(enumerate(labels_of(assignment.regions, assignment.index, "")))
    return buf.getvalue()


def write_assignments_csv(assignment: Assignment, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(assignments_to_csv(assignment))
