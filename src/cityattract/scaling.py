"""Attractiveness scaling: power-law fits, log-binning, residual scores.

A region's attractiveness A is its share of all foreign-visitor events,
and it grows superlinearly with population p following A ~ a * p^b.  On
log10 scale that is ordinary least squares: log10(A) = log_a + b*log10(p).
The residual res = log10(A) - b*log10(p) - log_a ranks regions by over- or
under-performance against the trend, independent of absolute scale, which
is what makes residuals comparable across data sources.

All logs are base 10: the slope b is base-invariant, but intercepts and
residuals are not, so the base is fixed once here.  Sums use math.fsum,
which is exactly rounded and therefore independent of summation order.
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .events import EventTable
from .geo import Assignment, RegionLayer
from .home import Origins
from .output import csv_text, fmt_num
from .special import t_two_sided_p


T = TypeVar("T")
_TABLE_HEADER = ("region_id", "population", "events", "share")
_RESIDUALS_HEADER = ("region_id", "res")


class StatsError(ValueError):
    """A statistics contract violation (empty/degenerate/insufficient input)."""


@dataclass(frozen=True, slots=True)
class AttractRow:
    region_id: str
    population: int
    events: int
    share: float  # A, this region's fraction of all counted foreign events


@dataclass(frozen=True)
class AttractivenessTable:
    dataset_tag: str
    layer: str
    target_country: str
    rows: tuple[AttractRow, ...]
    total_events: int  # foreign events counted into shares
    excluded_events: int  # foreign events in regions without population data
    excluded_regions: tuple[str, ...]


@dataclass(frozen=True)
class ScalingFit:
    b: float
    log_a: float
    r2: float
    p_value: float
    stderr_b: float
    n: int
    excluded_zero_A: int = 0


@dataclass(frozen=True, slots=True)
class BinRow:
    p_center: float  # geometric midpoint of the bin's population edges
    mean_A: float  # arithmetic mean of member shares
    member_count: int
    p_members: float  # geometric mean of member populations (fit abscissa)


@dataclass(frozen=True)
class BinnedTrend:
    bins: tuple[BinRow, ...]
    k: int


@dataclass(frozen=True, slots=True)
class ResidualScore:
    region_id: str
    res: float


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n_common: int
    only_a: int
    only_b: int


# ---------------------------------------------------------------------------
# attractiveness

@dataclass(frozen=True, eq=False)
class ForeignCounts:
    """Foreign-visitor events of one dataset per (region, calendar month).

    ``by_month[r, m - 1]`` counts the events of month m in the layer's
    r-th region; one extra last row holds events assigned to regions the
    layer does not have (an assignment made against another layer).  The
    attractiveness table sums all twelve columns, a seasonal window sums
    its three.
    """

    layer: RegionLayer
    target_country: str
    dataset_tag: str
    by_month: np.ndarray


def _foreign_users(events: EventTable, origins: Origins, target_country: str) -> np.ndarray:
    """Per user of ``events``: whether their resolved origin counts as foreign."""
    foreign = origins.foreign(target_country)
    if origins.user_ids == events.user_ids:
        return foreign
    position = {uid: i for i, uid in enumerate(origins.user_ids)}
    missing = [code for code, uid in enumerate(events.user_ids) if uid not in position]
    if missing:
        uid = events.user_ids[events.user[np.isin(events.user, missing)][0]]
        raise StatsError(f"empty table: user {uid!r} missing from origins")
    return foreign[[position[uid] for uid in events.user_ids]]


def foreign_counts(
    events: EventTable,
    assignment: Assignment,
    origins: Origins,
    layer: RegionLayer,
    target_country: str,
    dataset_tag: str = "",
) -> ForeignCounts:
    """Count foreign-visitor events per region and month.

    ``assignment`` maps the events to the regions of ``layer``.  An event
    counts when its owner's resolved origin is neither the target country
    nor UNDETERMINED and it falls in a region.
    """
    if assignment.index.shape[0] != len(events):
        raise StatsError(
            f"empty table: {assignment.index.shape[0]} assignments for {len(events)} events"
        )
    foreign = _foreign_users(events, origins, target_country)
    position = {r.id: i for i, r in enumerate(layer.regions)}
    n = len(layer.regions)
    row_of = np.array([position.get(rid, n) for rid in assignment.regions], dtype=np.int64)
    counted = foreign[events.user] & (assignment.index >= 0)
    month = events.seconds[counted].view("datetime64[s]").astype("datetime64[M]").astype(np.int64) % 12
    cells = row_of[assignment.index[counted]] * 12 + month
    by_month = np.bincount(cells, minlength=(n + 1) * 12).reshape(n + 1, 12)
    return ForeignCounts(layer, target_country, dataset_tag, by_month)


def compute_attractiveness(
    counts: ForeignCounts, months: Sequence[int] | None = None
) -> AttractivenessTable:
    """Per-region share of foreign-visitor events, over the whole year or
    the given calendar months.

    Regions without population cannot enter the fit, so their events are
    kept out of the normalization too and reported separately.
    """
    by_month = counts.by_month if months is None else counts.by_month[:, [m - 1 for m in months]]
    per_region = by_month.sum(axis=1).tolist()
    regions = counts.layer.regions
    populated = [(r, c) for r, c in zip(regions, per_region) if r.population is not None]
    excluded_events = sum(c for r, c in zip(regions, per_region) if r.population is None)
    excluded_events += per_region[-1]
    total = sum(c for _, c in populated)
    if total == 0:
        raise StatsError("empty table: no foreign-visitor events in populated regions")
    return AttractivenessTable(
        dataset_tag=counts.dataset_tag,
        layer=counts.layer.label,
        target_country=counts.target_country,
        rows=tuple(AttractRow(r.id, r.population, c, c / total) for r, c in populated),
        total_events=total,
        excluded_events=excluded_events,
        excluded_regions=tuple(r.id for r in regions if r.population is None),
    )


# ---------------------------------------------------------------------------
# power-law fit

def fit_xy(xs: Sequence[float], ys: Sequence[float], excluded_zero_A: int = 0) -> ScalingFit:
    """OLS of y on x with slope significance from the exact t distribution."""
    n = len(xs)
    if n != len(ys):
        raise StatsError(f"insufficient data: {n} x values vs {len(ys)} y values")
    if n < 3:
        raise StatsError(f"insufficient data: {n} points, need >= 3")
    xm = math.fsum(xs) / n
    ym = math.fsum(ys) / n
    sxx = math.fsum((x - xm) ** 2 for x in xs)
    if sxx == 0.0:
        raise StatsError("degenerate abscissa: all x values identical")
    sxy = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    b = sxy / sxx
    log_a = ym - b * xm
    sse = math.fsum((y - (log_a + b * x)) ** 2 for x, y in zip(xs, ys))
    sst = math.fsum((y - ym) ** 2 for y in ys)
    r2 = 1.0 if sst == 0.0 else min(max(1.0 - sse / sst, 0.0), 1.0)
    df = n - 2
    stderr_b = math.sqrt((sse / df) / sxx)
    if stderr_b == 0.0:
        p_value = 1.0 if b == 0.0 else 0.0
    else:
        p_value = t_two_sided_p(b / stderr_b, df)
    return ScalingFit(b, log_a, r2, p_value, stderr_b, n, excluded_zero_A)


def positive_rows(table: AttractivenessTable) -> list[AttractRow]:
    return [row for row in table.rows if row.share > 0.0]


def fit_power_law(table: AttractivenessTable) -> ScalingFit:
    """Fit log10(A) = log_a + b*log10(p) over rows with A > 0.

    Zero-share rows have no logarithm; they are dropped and counted in
    excluded_zero_A so the omission stays visible downstream.
    """
    rows = positive_rows(table)
    excluded = len(table.rows) - len(rows)
    if len(rows) < 3:
        raise StatsError(f"insufficient data: {len(rows)} positive rows, need >= 3")
    xs = [math.log10(row.population) for row in rows]
    ys = [math.log10(row.share) for row in rows]
    return fit_xy(xs, ys, excluded_zero_A=excluded)


def attractiveness_ratio(b: float, factor: float) -> float:
    """Predicted attractiveness ratio between cities differing in
    population by ``factor``: factor**b.  With b = 1.5, a 3x larger city
    comes out around 5.2x more attractive."""
    if factor <= 0.0:
        raise StatsError(f"degenerate abscissa: population factor must be > 0, got {factor}")
    return factor ** b


# ---------------------------------------------------------------------------
# log-binning

def log_bin(table: AttractivenessTable, k: int = 5) -> BinnedTrend:
    """Average shares over k population ranges equally spaced in log10(p).

    The last bin includes its right edge; bins left empty are omitted.
    p_center is the geometric midpoint of the bin's edges, which stays
    well-defined even for single-member bins.
    """
    if k < 1:
        raise StatsError(f"insufficient data: bin count must be >= 1, got {k}")
    if k > sys.maxsize:  # the edge search indexes a range, whose length is a C integer
        raise StatsError(f"too many bins: bin count must be <= {sys.maxsize}, got {k}")
    rows = positive_rows(table)
    if not rows:
        raise StatsError("insufficient data: 0 positive rows, need >= 1 to bin")
    xs = [math.log10(row.population) for row in rows]
    lo, hi = min(xs), max(xs)
    if lo == hi:
        mean = math.fsum(row.share for row in rows) / len(rows)
        return BinnedTrend((BinRow(10.0 ** lo, mean, len(rows), 10.0 ** lo),), k)

    def edge(i: int) -> float:
        # the last edge is hi itself: the float endpoint may drift past it
        return hi if i == k else lo + (hi - lo) * i / k

    # edges are computed as the search needs them and only occupied bins
    # are kept, so time and memory do not grow with k
    members: dict[int, list[tuple[float, float]]] = {}
    for x, row in zip(xs, rows):
        i = min(max(bisect_right(range(k + 1), x, key=edge) - 1, 0), k - 1)
        members.setdefault(i, []).append((x, row.share))
    bins = tuple(
        BinRow(
            10.0 ** ((edge(i) + edge(i + 1)) / 2.0),
            math.fsum(s for _, s in pts) / len(pts),
            len(pts),
            10.0 ** (math.fsum(x for x, _ in pts) / len(pts)),
        )
        for i, pts in sorted(members.items())
    )
    return BinnedTrend(bins, k)


# ---------------------------------------------------------------------------
# residuals and correlations

def residuals(table: AttractivenessTable, fit: ScalingFit) -> list[ResidualScore]:
    """Per-region res = log10(A) - b*log10(p) - log_a over fitted rows,
    sorted descending: the top of the list over-performs the trend."""
    scores = [
        ResidualScore(
            row.region_id,
            math.log10(row.share) - fit.b * math.log10(row.population) - fit.log_a,
        )
        for row in positive_rows(table)
    ]
    scores.sort(key=lambda s: (-s.res, s.region_id))
    return scores


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    if n != len(ys) or n < 2:
        raise StatsError(f"undefined correlation: need two equal-length vectors of >= 2 values, got {n} and {len(ys)}")
    xm = math.fsum(xs) / n
    ym = math.fsum(ys) / n
    sxx = math.fsum((x - xm) ** 2 for x in xs)
    syy = math.fsum((y - ym) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise StatsError("undefined correlation: zero variance")
    sxy = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    return min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0)


def correlate_residuals(
    a: Sequence[ResidualScore], b: Sequence[ResidualScore]
) -> CorrelationResult:
    """Pearson correlation of two residual lists over shared region ids."""
    amap = {s.region_id: s.res for s in a}
    bmap = {s.region_id: s.res for s in b}
    common = sorted(amap.keys() & bmap.keys())
    if len(common) < 2:
        raise StatsError(f"insufficient data: {len(common)} shared regions, need >= 2")
    r = pearson([amap[k] for k in common], [bmap[k] for k in common])
    return CorrelationResult(r, len(common), len(amap) - len(common), len(bmap) - len(common))


# ---------------------------------------------------------------------------
# serialization

def fit_to_json(fit: ScalingFit, dataset: str, layer: str) -> dict:
    return {
        "dataset": dataset,
        "layer": layer,
        "b": fit.b,
        "log_a": fit.log_a,
        "r2": fit.r2,
        "p_value": fit.p_value,
        "stderr_b": fit.stderr_b,
        "n": fit.n,
        "excluded_zero_A": fit.excluded_zero_A,
    }


def table_to_csv(table: AttractivenessTable) -> str:
    return csv_text(
        _TABLE_HEADER,
        ((row.region_id, row.population, row.events, fmt_num(row.share)) for row in table.rows),
    )


def _table_row(raw: list[str]) -> AttractRow:
    row = AttractRow(raw[0], int(raw[1]), int(raw[2]), float(raw[3]))
    if row.population < 1 or row.events < 0 or not 0.0 <= row.share < math.inf:
        raise ValueError(f"need population >= 1, events >= 0 and a finite share >= 0, got {raw[1:4]}")
    return row


def read_table_csv(
    path: str | Path, dataset_tag: str = "", layer: str = "", target_country: str = ""
) -> AttractivenessTable:
    rows = _read_csv(path, _TABLE_HEADER, "attractiveness", _table_row)
    return AttractivenessTable(
        dataset_tag=dataset_tag,
        layer=layer,
        target_country=target_country,
        rows=tuple(rows),
        total_events=sum(r.events for r in rows),
        excluded_events=0,
        excluded_regions=(),
    )


def residuals_to_csv(scores: Sequence[ResidualScore]) -> str:
    return csv_text(_RESIDUALS_HEADER, ((s.region_id, fmt_num(s.res)) for s in scores))


def _residual(raw: list[str]) -> ResidualScore:
    score = ResidualScore(raw[0], float(raw[1]))
    if not math.isfinite(score.res):
        raise ValueError(f"res must be finite, got {raw[1]!r}")
    return score


def read_residuals_csv(path: str | Path) -> list[ResidualScore]:
    return _read_csv(path, _RESIDUALS_HEADER, "residuals", _residual)


def _read_csv(path: str | Path, header: Sequence[str], what: str, parse: Callable[[list[str]], T]) -> list[T]:
    """The rows of a CSV file under ``header``, each parsed by ``parse``.
    A wrong header, a short row or a row ``parse`` rejects with a
    ValueError is a StatsError naming the line."""
    out: list[T] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise StatsError(f"empty table: bad {what} header in {path}")
        for raw in reader:
            if not raw:
                continue
            try:
                if len(raw) < len(header):
                    raise ValueError(f"row has {len(raw)} field(s), expected {len(header)}")
                out.append(parse(raw))
            except ValueError as exc:
                raise StatsError(f"line {reader.line_num} of {path}: {exc}") from exc
    return out


def binned_to_csv(trend: BinnedTrend) -> str:
    return csv_text(
        ("p_center", "mean_A", "member_count"),
        ((fmt_num(row.p_center), fmt_num(row.mean_A), row.member_count) for row in trend.bins),
    )


def scatter_to_csv(table: AttractivenessTable, fit: ScalingFit) -> str:
    """Figure-ready per-region points: observed log-log pair plus the
    fitted line's value at the same abscissa."""
    def point(row: AttractRow) -> tuple[str, ...]:
        x = math.log10(row.population)
        return (row.region_id, fmt_num(x), fmt_num(math.log10(row.share)), fmt_num(fit.log_a + fit.b * x))

    return csv_text(("region_id", "log10_p", "log10_A", "fit_log10_A"), map(point, positive_rows(table)))
