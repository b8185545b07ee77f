"""Independent reference implementations used to validate the package.

Everything here is deliberately written with different algorithms or
formula structures than the production code, so agreement is meaningful:
pnpoly casts a horizontal ray (production casts northward), the OLS
oracle is a brute-force grid search, and pearson_direct uses the
textbook covariance/sigma form.

The per-row references further down are the package's earlier scalar
implementations, kept as the oracles of the columnar code that replaced
them: row-by-row parsing, dict-based home tallies with a tuple tie-break,
and per-event filter-and-count attractiveness tables and windows.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from cityattract.events import CANONICAL_COLUMNS, EventRecord, IngestError, IngestReport, _make_record
from cityattract.geo import point_in_region
from cityattract.home import UNDETERMINED, HomeRecord
from cityattract.scaling import AttractivenessTable, AttractRow, StatsError, fit_xy
from cityattract.temporal import window_months

GRID_STEP = 1e-4  # degrees; rasterization oracle resolution


def pnpoly(lat: float, lon: float, ring) -> bool:
    """Classic even-odd crossing test with a horizontal (+lon) ray."""
    inside = False
    n = len(ring)
    j = n - 1
    for i in range(n):
        yi, xi = ring[i]
        yj, xj = ring[j]
        if (yi > lat) != (yj > lat):
            x_cross = xi + (lat - yi) * (xj - xi) / (yj - yi)
            if lon < x_cross:
                inside = not inside
        j = i
    return inside


def pnpoly_region(lat: float, lon: float, polygons) -> bool:
    """Even-odd membership over (outer, holes) polygon tuples."""
    for outer, holes in polygons:
        if pnpoly(lat, lon, outer) and not any(pnpoly(lat, lon, h) for h in holes):
            return True
    return False


def point_segment_distance(lat, lon, a, b) -> float:
    ay, ax = a
    by, bx = b
    dy, dx = by - ay, bx - ax
    length2 = dy * dy + dx * dx
    if length2 == 0.0:
        return math.hypot(lat - ay, lon - ax)
    t = max(0.0, min(1.0, ((lat - ay) * dy + (lon - ax) * dx) / length2))
    return math.hypot(lat - (ay + t * dy), lon - (ax + t * dx))


def distance_to_boundary(lat: float, lon: float, polygons) -> float:
    best = math.inf
    for outer, holes in polygons:
        for ring in (outer, *holes):
            n = len(ring)
            for i in range(n):
                d = point_segment_distance(lat, lon, ring[i], ring[(i + 1) % n])
                if d < best:
                    best = d
    return best


def raster_oracle(lat: float, lon: float, polygons) -> bool | None:
    """Rasterization verdict for one point, or None when the local grid
    cell is ambiguous.

    The point's 1e-4-degree grid cell is classified through its four
    corner nodes using pnpoly; when all four agree, that is the cell's
    rasterized value.  Points within one cell diagonal of the boundary
    must be excluded by the caller: there the raster cannot resolve.
    """
    i = math.floor(lon / GRID_STEP)
    j = math.floor(lat / GRID_STEP)
    votes = {
        pnpoly_region((j + dj) * GRID_STEP, (i + di) * GRID_STEP, polygons)
        for dj in (0, 1)
        for di in (0, 1)
    }
    if len(votes) != 1:
        return None
    return votes.pop()


def ols_grid_search(
    xs, ys, slope_lo=0.0, slope_hi=3.0, icept_lo=-12.0, icept_hi=0.0, step=1e-4
):
    """Brute-force least-squares over a slope grid.

    For each candidate slope the best grid intercept is the closed-form
    intercept snapped to the grid (SSE is quadratic in the intercept, so
    the nearest grid point wins); the SSE of every (slope, intercept)
    pair is then evaluated directly and the argmin returned.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    slopes = np.arange(round((slope_hi - slope_lo) / step) + 1) * step + slope_lo
    exact_icept = y.mean() - slopes * x.mean()
    snapped = np.clip(np.round(exact_icept / step) * step, icept_lo, icept_hi)
    resid = y[None, :] - slopes[:, None] * x[None, :] - snapped[:, None]
    sse = np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(sse))
    return float(slopes[best]), float(snapped[best]), float(sse[best])


def pearson_direct(xs, ys) -> float:
    """Textbook Pearson r: covariance over the product of sigmas."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in xs) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in ys) / n)
    return cov / (sx * sy)


def fit_binned(trend):
    """OLS over the binned points, every non-empty bin weighted equally,
    with each bin's member geometric mean as the abscissa."""
    xs = [math.log10(row.p_members) for row in trend.bins]
    ys = [math.log10(row.mean_A) for row in trend.bins]
    return fit_xy(xs, ys)


def region_lookup(layer):
    """A (lat, lon) -> region id function over the layer (None if no hit)."""

    def lookup(lat: float, lon: float):
        for region in layer.regions:
            if point_in_region(lat, lon, region):
                return region.id
        return None

    return lookup


def read_assignments_csv(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader, None) == ["event_index", "region_id"]
        return [row[1] or None for row in reader if row]


def read_homes_csv(path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader, None) == ["user_id", "country", "event_count", "timespan_seconds"]
        return {row[0]: HomeRecord(row[0], row[1], int(row[2]), int(row[3])) for row in reader if row}


# ---------------------------------------------------------------------------
# per-row parsing: one csv.reader row or one json.loads line at a time

def parse_events(source, format="csv", strict=False):
    """Records and report of a CSV or JSONL text, validated row by row."""
    lines = io.StringIO(source) if isinstance(source, str) else source
    rows = _csv_rows(lines) if format == "csv" else _jsonl_rows(lines)
    records, report = [], IngestReport()
    for line_no, outcome in rows:
        if isinstance(outcome, EventRecord):
            records.append(outcome)
            report.accepted += 1
        elif strict:
            raise IngestError(outcome, line=line_no)
        else:
            report.reject(outcome)
    return records, report


def _csv_rows(lines):
    indices = None
    for line_no, row in enumerate(csv.reader(lines), start=1):
        if not row:
            continue
        if indices is None:
            names = [c.strip() for c in row]
            missing = [c for c in CANONICAL_COLUMNS if c not in names]
            if missing:
                raise IngestError(f"header is missing column(s): {', '.join(missing)}", line=line_no)
            indices = [names.index(c) for c in CANONICAL_COLUMNS]
        elif len(row) <= max(indices):
            yield line_no, "missing field"
        else:
            yield line_no, _make_record(*(row[i].strip() for i in indices))


def _jsonl_rows(lines):
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            yield line_no, _make_record(*(obj.get(c) for c in CANONICAL_COLUMNS))
        else:
            yield line_no, "bad json"


# ---------------------------------------------------------------------------
# homes from dict tallies: user -> country -> [count, first, last]

def accumulate_stats_seq(events, countries):
    stats: dict = {}
    unresolved = 0
    for event, country in zip(events, countries):
        if country is None:
            unresolved += 1
            continue
        entry = stats.setdefault(event.user_id, {}).get(country)
        if entry is None:
            stats[event.user_id][country] = [1, event.timestamp, event.timestamp]
        else:
            entry[0] += 1
            entry[1] = min(entry[1], event.timestamp)
            entry[2] = max(entry[2], event.timestamp)
    return stats, unresolved


def accumulate_stats(events, country_of):
    events = list(events)
    return accumulate_stats_seq(events, [country_of(e.lat, e.lon) for e in events])


def infer_home(user_id, per_country, min_events=1) -> HomeRecord:
    total = sum(entry[0] for entry in per_country.values())
    if total < min_events or not per_country:
        return HomeRecord(user_id, UNDETERMINED, total, 0)
    best = min(
        (-count, -int((last - first).total_seconds()), country)
        for country, (count, first, last) in per_country.items()
    )
    return HomeRecord(user_id, best[2], -best[0], -best[1])


def infer_all(stats, min_events=1, all_users=()):
    out = {uid: infer_home(uid, per_country, min_events) for uid, per_country in stats.items()}
    for uid in all_users:
        out.setdefault(uid, HomeRecord(uid, UNDETERMINED, 0, 0))
    return out


def resolve_origin(home, declared):
    if declared is not None:
        return declared
    return home.country if home is not None else UNDETERMINED


def origin_map(events, homes) -> dict:
    """First declared origin in row order, else the inferred home."""
    declared: dict = {}
    users: dict = {}
    for event in events:
        users.setdefault(event.user_id, None)
        if event.origin_country is not None:
            declared.setdefault(event.user_id, event.origin_country)
    return {uid: resolve_origin(homes.get(uid), declared.get(uid)) for uid in users}


# ---------------------------------------------------------------------------
# attractiveness by filtering and counting events one at a time

def compute_attractiveness(region_ids, origins, target_country, layer, events, dataset_tag=""):
    counts: dict = {}
    for event, rid in zip(events, region_ids):
        origin = origins.get(event.user_id)
        if origin is None:
            raise StatsError(f"empty table: user {event.user_id!r} missing from origins")
        if origin not in (UNDETERMINED, target_country) and rid is not None:
            counts[rid] = counts.get(rid, 0) + 1
    populated = [r for r in layer.regions if r.population is not None]
    known = {r.id for r in populated}
    total = sum(counts.get(r.id, 0) for r in populated)
    if total == 0:
        raise StatsError("empty table: no foreign-visitor events in populated regions")
    return AttractivenessTable(
        dataset_tag=dataset_tag,
        layer=layer.label,
        target_country=target_country,
        rows=tuple(
            AttractRow(r.id, r.population, counts.get(r.id, 0), counts.get(r.id, 0) / total)
            for r in populated
        ),
        total_events=total,
        excluded_events=sum(c for rid, c in counts.items() if rid not in known),
        excluded_regions=tuple(r.id for r in layer.regions if r.population is None),
    )


def window_tables(region_ids, origins, target_country, layer, events, dataset_tag=""):
    """Window center month -> its table, or the StatsError message."""
    out = {}
    for m in range(1, 13):
        wanted = set(window_months(m))
        keep = [i for i, e in enumerate(events) if e.timestamp.month in wanted]
        try:
            out[m] = compute_attractiveness(
                [region_ids[i] for i in keep], origins, target_country, layer,
                [events[i] for i in keep], dataset_tag,
            )
        except StatsError as exc:
            out[m] = str(exc)
    return out
