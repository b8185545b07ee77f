"""Independent reference implementations used to validate the package.

Everything here is deliberately written with different algorithms or
formula structures than the production code, so agreement is meaningful:
pnpoly casts a horizontal ray (production casts northward), the OLS
oracle is a brute-force grid search, and pearson_direct uses the
textbook covariance/sigma form.

point_in_region is the package's earlier scalar point-in-polygon code,
the reference of the vectorized kernel: the same float expressions and
the same ray-shift rule, one point at a time.  The per-row references
further down are the package's earlier scalar implementations, kept as
the oracles of the columnar code that replaced them: row-by-row parsing,
dict-based home tallies with a tuple tie-break, and per-event
filter-and-count attractiveness tables and windows.  Row-by-row parsing
validates each row with _make_record, the package's earlier scalar row
validator, whose checks in order are the reference of the column rules
that ingest now applies to whole chunks.  Its timestamps go through
parse_timestamp, a regular expression for the grammar and datetime for
the calendar, the reference of the package's column decoder.  log_bin is
the package's earlier binning over materialized edges, and origin_map
resolves declared origins with a Counter per user.  generate_events is the
package's earlier synthetic generator, which drew one event at a time;
it is the reference of the column generator for worlds of up to 600
regions, whose cities lie in one row.  oracle_run composes the per-row
references into a whole run, the reference of run_pipeline's ingest,
homes, attractiveness and monthly window files and of its manifest's
counts.

The per-row references take and give events as EventRecord rows, the
package's row type before events became columns; records and table_of
convert between rows and an EventTable.  Nothing here imports a private
name of the package, nor any function that decides a row (from
cityattract.events only types and constants), so a fault there cannot
hide in its own reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from cityattract.events import CANONICAL_COLUMNS, EventTable, IngestError, IngestReport
from cityattract.geo import Region, Ring, load_layer
from cityattract.home import UNDETERMINED, HomeRecord
from cityattract.output import fmt_num
from cityattract.rng import CounterRng
from cityattract.scaling import AttractivenessTable, AttractRow, BinnedTrend, BinRow, StatsError, fit_xy
from cityattract.synthetic import (
    country_anchor,
    epsilons,
    largest_remainder,
    monthly_exponents,
    populations,
    region_ids,
    weight_matrix,
)
from cityattract.temporal import window_months

GRID_STEP = 1e-4  # degrees; rasterization oracle resolution
_RAY_SHIFT = 1e-12
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# events as rows

@dataclass(frozen=True, slots=True)
class EventRecord:
    """One geotagged activity instance.

    ``timestamp`` is timezone-aware UTC with seconds precision;
    ``origin_country`` is an ISO-3166-1 alpha-2 code or None when the
    source does not declare one.
    """

    user_id: str
    timestamp: datetime
    lat: float
    lon: float
    origin_country: str | None
    dataset_tag: str


def records(table: EventTable) -> list[EventRecord]:
    """The rows of a table, in order."""
    origins = [table.origin_ids[c] if c >= 0 else None for c in table.origin.tolist()]
    columns = (table.user.tolist(), table.seconds.tolist(), table.lat.tolist(), table.lon.tolist(), origins, table.tag.tolist())
    return [
        EventRecord(table.user_ids[u], EPOCH + timedelta(seconds=s), lat, lon, origin, table.tag_ids[t])
        for u, s, lat, lon, origin, t in zip(*columns)
    ]


def table_of(events) -> EventTable:
    """The table of EventRecord rows, in order."""
    events = list(events)
    return EventTable.from_columns(
        [e.user_id for e in events],
        [(e.timestamp - EPOCH) // timedelta(seconds=1) for e in events],
        [e.lat for e in events],
        [e.lon for e in events],
        [e.origin_country for e in events],
        [e.dataset_tag for e in events],
    )


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


def log_bin(table, k=5):
    """The package's earlier log-binning, which materialized all k + 1
    edges and k member lists: the reference of the on-demand edges."""
    rows = [row for row in table.rows if row.share > 0.0]
    xs = [math.log10(row.population) for row in rows]
    lo, hi = min(xs), max(xs)
    if lo == hi:
        mean = math.fsum(row.share for row in rows) / len(rows)
        return BinnedTrend((BinRow(10.0 ** lo, mean, len(rows), 10.0 ** lo),), k)
    edges = [lo + (hi - lo) * i / k for i in range(k + 1)]
    edges[k] = hi
    members = [[] for _ in range(k)]
    for x, row in zip(xs, rows):
        i = min(max(bisect_right(edges, x) - 1, 0), k - 1)
        members[i].append((x, row.share))
    return BinnedTrend(
        tuple(
            BinRow(
                10.0 ** ((edges[i] + edges[i + 1]) / 2.0),
                math.fsum(s for _, s in pts) / len(pts),
                len(pts),
                10.0 ** (math.fsum(x for x, _ in pts) / len(pts)),
            )
            for i, pts in enumerate(members)
            if pts
        ),
        k,
    )


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


class _LfRows(list):
    """A file that keeps each row csv.writer writes, its '\\r\\n' line end
    turned into '\\n'."""

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


def rows_to_csv(header, rows) -> str:
    """csv.writer's text of a header and rows, the per-row CSV writer the
    block renderer replaced.  With '\\r\\n' line ends the writer quotes
    every field holding '\\r' or '\\n'; each row then ends in '\\n'."""
    lines = _LfRows()
    writer = csv.writer(lines, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(lines)


def read_homes_csv(path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader, None) == ["user_id", "country", "event_count", "timespan_seconds"]
        return {row[0]: HomeRecord(row[0], row[1], int(row[2]), int(row[3])) for row in reader if row}


# ---------------------------------------------------------------------------
# timestamps: a regular expression for the grammar, datetime for the calendar

_TIMESTAMP = re.compile(r"(\d{4})-(\d{2})-(\d{2})(?:T(\d{2}):(\d{2})(?::(\d{2})(?:\.\d+)?)?Z)?", re.ASCII)


def parse_timestamp(value: str) -> datetime:
    """The UTC instant of ``YYYY-MM-DD``, ``YYYY-MM-DDTHH:MMZ`` or
    ``YYYY-MM-DDTHH:MM:SS[.f+]Z`` with ASCII digits, sub-second digits
    truncated; ValueError for anything else, or for a date or time that
    the calendar does not have."""
    match = _TIMESTAMP.fullmatch(value)
    if match is None:
        raise ValueError(f"not a valid timestamp: {value!r}")
    return datetime(*(int(g or 0) for g in match.groups()), tzinfo=timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """A UTC datetime in the canonical YYYY-MM-DDTHH:MM:SSZ form."""
    return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z"


# ---------------------------------------------------------------------------
# per-row parsing: one csv.reader row or one json.loads line at a time

def _make_record(
    user_id,
    timestamp,
    lat,
    lon,
    origin_country,
    dataset_tag,
) -> EventRecord | str:
    """Validate field values; return an EventRecord or a rejection reason."""
    if not isinstance(user_id, str) or not user_id:
        return "missing field"
    if not isinstance(dataset_tag, str) or not dataset_tag:
        return "missing field"
    if not isinstance(timestamp, str) or not timestamp:
        return "missing field"
    try:
        ts = parse_timestamp(timestamp)
    except ValueError:
        return "bad timestamp"
    try:
        lat_f = float(lat) if not isinstance(lat, bool) else None
        lon_f = float(lon) if not isinstance(lon, bool) else None
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge JSON integer
        return "bad coordinate"
    if lat_f is None or lon_f is None or lat_f != lat_f or lon_f != lon_f:
        return "bad coordinate"
    if not -90.0 <= lat_f <= 90.0:
        return "lat out of range"
    if not -180.0 <= lon_f <= 180.0:
        return "lon out of range"
    origin = origin_country if origin_country else None
    if origin is not None and not _valid_origin(origin):
        return "bad origin country"
    return EventRecord(user_id, ts, lat_f, lon_f, origin, dataset_tag)


def _valid_origin(origin) -> bool:
    return (
        isinstance(origin, str)
        and len(origin) == 2
        and origin.isalpha()
        and origin.isupper()
        and origin.isascii()
    )


def parse_events(source, format="csv", strict=False):
    """Records and report of a CSV or JSONL text, validated row by row; a
    str is split into lines by its format's newline, as ingest splits it."""
    lines = io.StringIO(source, newline="" if format == "csv" else "\n") if isinstance(source, str) else source
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


def _lone_surrogate(value: str) -> bool:
    """Whether a decoded JSON string holds a lone surrogate, which an
    escape can give but UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _jsonl_rows(lines):
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except (ValueError, RecursionError):  # JSONDecodeError, an integer past int's digit limit, deep nesting
            obj = None
        if isinstance(obj, dict) and not any(isinstance(v, str) and _lone_surrogate(v) for v in obj.values()):
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
    """The most often declared origin, the first in sorted order among
    equally frequent ones, else the inferred home."""
    declared: dict = {}
    users: dict = {}
    for event in events:
        users.setdefault(event.user_id, None)
        if event.origin_country is not None:
            declared.setdefault(event.user_id, Counter())[event.origin_country] += 1
    most = {uid: min(tally, key=lambda c: (-tally[c], c)) for uid, tally in declared.items()}
    return {uid: resolve_origin(homes.get(uid), most.get(uid)) for uid in users}


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


# ---------------------------------------------------------------------------
# a whole run, composed from the references above

def _fit(table):
    """The OLS fit of a table's positive rows on log-log scale, or None where
    the fit stage would fail."""
    rows = [row for row in table.rows if row.share > 0.0]
    try:
        return fit_xy([math.log10(row.population) for row in rows], [math.log10(row.share) for row in rows])
    except StatsError:
        return None


def oracle_run(config) -> dict | str:
    """What run_pipeline reports for ``config``, from the per-row references:
    ``files``, the text of every ingest, homes, attractiveness and temporal
    CSV file by name, and ``datasets``, the manifest's counts; or, where
    the run fails, the tag of the stage that fails first.  Dataset tags and
    layer labels must be file-name safe, as they then name the files
    unchanged."""
    countries = load_layer(config.country_layer_path)
    city_layers = [load_layer(p) for p in config.city_layer_paths]
    files, datasets = {}, {}
    for source in config.event_sources:
        tag = source.dataset_tag
        with open(source.path, "r", encoding="utf-8", newline="") as fh:
            events, report = parse_events(fh.read(), source.format)
        if not events:
            return "ingest"
        files[f"ingest__{tag}.json"] = report.to_json()
        country_of = region_lookup(countries)
        country_ids = [country_of(e.lat, e.lon) for e in events]
        stats, unresolved = accumulate_stats_seq(events, country_ids)
        homes = infer_all(stats, config.min_events, all_users=[e.user_id for e in events])
        files[f"homes__{tag}.csv"] = rows_to_csv(
            ("user_id", "country", "event_count", "timespan_seconds"),
            ((h.user_id, h.country, h.event_count, h.timespan_seconds) for _, h in sorted(homes.items())),
        )
        origins = origin_map(events, homes)
        layers = {}
        for layer in city_layers:
            region_of = region_lookup(layer)
            region_ids = [region_of(e.lat, e.lon) for e in events]
            try:
                table = compute_attractiveness(region_ids, origins, config.target_country, layer, events, tag)
            except StatsError:
                return "attractiveness"
            if _fit(table) is None:
                return "fit"
            windows = window_tables(region_ids, origins, config.target_country, layer, events, tag)
            window_fits = {m: None if isinstance(w, str) else _fit(w) for m, w in windows.items()}
            fits = [fit for fit in window_fits.values() if fit is not None]
            mean_b = math.fsum(fit.b for fit in fits) / len(fits) if fits else 0.0
            if mean_b == 0.0:  # no window fitted, or a mean exponent of 0
                return "temporal"
            files[f"attractiveness__{tag}__{layer.label}.csv"] = rows_to_csv(
                ("region_id", "population", "events", "share"),
                ((row.region_id, row.population, row.events, fmt_num(row.share)) for row in table.rows),
            )
            files[f"temporal__{tag}__{layer.label}.csv"] = rows_to_csv(
                ("center_month", "b", "b_normalized", "n", "r2", "p_value"),
                (
                    (m, "", "", "", "", "")
                    if fit is None
                    else (m, fmt_num(fit.b), fmt_num(fit.b / mean_b), fit.n, fmt_num(fit.r2), fmt_num(fit.p_value))
                    for m, fit in window_fits.items()
                ),
            )
            layers[layer.label] = {
                "overlap_events": sum(
                    sum(point_in_region(e.lat, e.lon, region) for region in layer.regions) > 1 for e in events
                ),
                "unassigned": region_ids.count(None),
                "excluded_events": table.excluded_events,
                "excluded_regions": len(table.excluded_regions),
            }
        datasets[tag] = {
            "events": len(events),
            "rejected": report.rejected,
            "users": len(homes),
            "events_outside_countries": unresolved,
            "layers": layers,
        }
    return {"files": files, "datasets": datasets}


# ---------------------------------------------------------------------------
# the synthetic world, one event at a time, cities in one row

_CITY_SIDE = 0.2  # degrees; city squares this size sit in a row at lat 40
_CITY_GAP = 0.1
_CITY_LAT = 40.0


def _month_bounds(year: int, month: int) -> tuple[datetime, int]:
    start = datetime(year, month, 1, tzinfo=timezone.utc)
    if month == 12:
        end = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
    else:
        end = datetime(year, month + 1, 1, tzinfo=timezone.utc)
    return start, int((end - start).total_seconds())


def _place(stream, counter: int, lat0: float, lon0: float) -> tuple[float, float]:
    # keep points strictly interior (2% margin) so containment can never
    # hinge on boundary conventions
    u_lat = stream.uniform(counter + 1)
    u_lon = stream.uniform(counter + 2)
    lat = lat0 + _CITY_SIDE * (0.01 + 0.98 * u_lat)
    lon = lon0 + _CITY_SIDE * (0.01 + 0.98 * u_lon)
    return lat, lon


def generate_events(spec, year: int = 2012, dataset_tag: str = "synthetic") -> tuple[list[EventRecord], dict]:
    """The events and ground truth of the synthetic world of ``spec``."""
    ids = region_ids(spec)
    pops = populations(spec)
    eps = epsilons(spec)
    months_b = monthly_exponents(spec)
    weights = weight_matrix(spec)
    root = CounterRng(spec.seed)

    annual = [math.floor(math.fsum(w) + 0.5) for w in weights]
    monthly = [largest_remainder(w, n) for w, n in zip(weights, annual)]

    events: list[EventRecord] = []
    n_foreign_users = 0
    country_cycle = 0
    n_countries = len(spec.foreign_countries)
    for r, rid in enumerate(ids):
        stream = root.stream(1000 + r)
        lon0 = r * (_CITY_SIDE + _CITY_GAP)
        e = 0  # event index within this region, drives the RNG counters
        for m in range(1, 13):
            count = monthly[r][m - 1]
            if count == 0:
                continue
            start, month_seconds = _month_bounds(year, m)
            # split this bucket into users of at most 2 events each, so a
            # user's in-city count can never beat their 2 home anchors
            for k in range((count + 1) // 2):
                uid = f"f{r}m{m}u{k}"
                code = spec.foreign_countries[country_cycle % n_countries]
                country_cycle += 1
                n_foreign_users += 1
                alat, alon = country_anchor(spec, code)
                events.append(
                    EventRecord(uid, datetime(year, 1, 2, 12, 0, 0, tzinfo=timezone.utc), alat, alon, None, dataset_tag)
                )
                events.append(
                    EventRecord(uid, datetime(year, 12, 28, 12, 0, 0, tzinfo=timezone.utc), alat, alon, None, dataset_tag)
                )
                for _ in range(min(2, count - 2 * k)):
                    ts = start + timedelta(seconds=int(stream.u64(3 * e) % month_seconds))
                    lat, lon = _place(stream, 3 * e, _CITY_LAT, lon0)
                    events.append(EventRecord(uid, ts, lat, lon, None, dataset_tag))
                    e += 1

    total_foreign = sum(annual)
    share = spec.resident_share
    total_res = math.floor(total_foreign * share / (1.0 - share) + 0.5) if share > 0 else 0
    res_by_region = largest_remainder([float(n) for n in annual], total_res) if total_res else [0] * len(ids)
    n_resident_users = 0
    for r, rid in enumerate(ids):
        count = res_by_region[r]
        if count == 0:
            continue
        stream = root.stream(2000 + r)
        lon0 = r * (_CITY_SIDE + _CITY_GAP)
        res_monthly = largest_remainder(weights[r], count)
        e = 0
        for m in range(1, 13):
            if res_monthly[m - 1] == 0:
                continue
            start, month_seconds = _month_bounds(year, m)
            for j in range(res_monthly[m - 1]):
                # residents post up to 4 events each; all are in-country,
                # so inference pins them to the target country
                uid = f"d{r}u{e // 4}"
                if e % 4 == 0:
                    n_resident_users += 1
                ts = start + timedelta(seconds=int(stream.u64(3 * e) % month_seconds))
                lat, lon = _place(stream, 3 * e, _CITY_LAT, lon0)
                events.append(EventRecord(uid, ts, lat, lon, None, dataset_tag))
                e += 1

    events.sort(key=lambda ev: (ev.timestamp, ev.user_id, ev.lat, ev.lon))

    truth = {
        "kind": "events",
        "seed": spec.seed,
        "year": year,
        "dataset_tag": dataset_tag,
        "n_regions": spec.n_regions,
        "p_min": spec.p_min,
        "p_max": spec.p_max,
        "b_true": spec.b_true,
        "noise_sigma": spec.noise_sigma,
        "events_per_unit": spec.events_per_unit,
        "monthly_b": list(months_b),
        "resident_share": spec.resident_share,
        "target_country": spec.target_country,
        "foreign_countries": list(spec.foreign_countries),
        "region_ids": ids,
        "populations": pops,
        "epsilons": eps,
        "weights": weights,
        "annual_foreign_events": annual,
        "monthly_foreign_events": monthly,
        "total_foreign_events": total_foreign,
        "total_resident_events": total_res,
        "resident_events_by_region": res_by_region,
        "n_foreign_users": n_foreign_users,
        "n_resident_users": n_resident_users,
        "total_events": len(events),
    }
    return events, truth
