"""Deterministic synthetic cities and event streams with known exponent.

Everything here exists to give the pipeline a ground truth to be judged
against: regions with log-uniform populations, attractiveness following
A ~ p^b with optional lognormal noise and optional per-month exponents,
and an event stream engineered so that every downstream stage (ingestion,
home inference, region assignment, fitting, seasonal windows) has a known
correct answer.

Construction guarantees, relied on by tests:
  - all randomness flows from one counter-based generator seeded by the
    spec, so identical specs give identical outputs on any thread count;
  - per-region monthly event counts are integerized by largest-remainder
    rounding, preserving each region's annual total exactly;
  - every foreign user gets at most 2 events inside any one city and
    exactly 2 anchor events in their home-country square spanning most of
    the year, so home inference must resolve them to the home country
    (anchor count ties are broken by the longer home timespan);
  - resident users post only inside cities, which lie inside the target
    country, so inference resolves them to the target country and the
    foreign filter must drop exactly their events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .events import CODE, EventTable, Ids
from .geo import RegionLayer, load_layer
from .rng import CounterRng
from .scaling import AttractRow, AttractivenessTable

_CITY_SIDE = 0.2  # degrees; city squares this size sit in rows from lat 40, lon 0
_CITY_GAP = 0.1
_CITY_PITCH = _CITY_SIDE + _CITY_GAP
_CITY_LAT = 40.0
_ROW_CITIES = 600  # cities per row, so the last one ends at lon 179.9
_MAX_ROWS = 30  # the target country then ends at lat 49.9
_COUNTRY_LAT = 50.0  # foreign-country squares sit north of every city


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic world; hashable and replace()-friendly."""

    n_regions: int
    p_min: float
    p_max: float
    b_true: float
    noise_sigma: float
    events_per_unit: float
    seed: int
    seasonal_b: tuple[float, ...] | None = None  # 12 per-month exponents
    resident_share: float = 0.0  # fraction of city events made by residents
    target_country: str = "ES"
    foreign_countries: tuple[str, ...] = ("DE", "FR", "GB", "IT", "NL", "US")

    def __post_init__(self) -> None:
        for name in ("p_min", "p_max", "b_true", "noise_sigma", "events_per_unit"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seasonal_b is not None and not all(map(math.isfinite, self.seasonal_b)):
            raise ValueError(f"seasonal_b entries must be finite, got {self.seasonal_b}")
        if self.n_regions < 3:
            raise ValueError(f"n_regions must be >= 3, got {self.n_regions}")
        if self.p_min < 1:
            raise ValueError(f"p_min must be >= 1, got {self.p_min}")
        if self.p_min >= self.p_max:
            raise ValueError(f"need p_min < p_max, got {self.p_min} >= {self.p_max}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.events_per_unit <= 0:
            raise ValueError(f"events_per_unit must be > 0, got {self.events_per_unit}")
        if self.seasonal_b is not None and len(self.seasonal_b) != 12:
            raise ValueError(f"seasonal_b needs 12 entries, got {len(self.seasonal_b)}")
        if not 0.0 <= self.resident_share < 1.0:
            raise ValueError(f"resident_share must be in [0, 1), got {self.resident_share}")
        if not self.foreign_countries:
            raise ValueError("need at least one foreign country")


def region_ids(spec: SyntheticSpec) -> list[str]:
    width = max(2, len(str(spec.n_regions)))
    return [f"r{i + 1:0{width}d}" for i in range(spec.n_regions)]


def populations(spec: SyntheticSpec) -> list[int]:
    """Log-uniform integer populations on [p_min, p_max], one per region."""
    stream = CounterRng(spec.seed).stream(1)
    lo, hi = math.log10(spec.p_min), math.log10(spec.p_max)
    out = []
    for i in range(spec.n_regions):
        p = int(round(10.0 ** (lo + stream.uniform(i) * (hi - lo))))
        out.append(max(p, 1))
    return out


def epsilons(spec: SyntheticSpec) -> list[float]:
    """Per-region lognormal noise exponents (log10 units)."""
    if spec.noise_sigma == 0.0:
        return [0.0] * spec.n_regions
    stream = CounterRng(spec.seed).stream(2)
    return [spec.noise_sigma * stream.normal(i) for i in range(spec.n_regions)]


def monthly_exponents(spec: SyntheticSpec) -> tuple[float, ...]:
    if spec.seasonal_b is not None:
        return tuple(float(b) for b in spec.seasonal_b)
    return (spec.b_true,) * 12


def weight_matrix(spec: SyntheticSpec) -> list[list[float]]:
    """Expected foreign events per region and month:
    W[r][m-1] = events_per_unit * p_r^(b_m) * 10^(eps_r)."""
    pops = populations(spec)
    eps = epsilons(spec)
    months = monthly_exponents(spec)
    return [
        [spec.events_per_unit * (p ** bm) * (10.0 ** e) for bm in months]
        for p, e in zip(pops, eps)
    ]


def events_per_unit_for_total(spec: SyntheticSpec, total_events: int) -> SyntheticSpec:
    """Rescale events_per_unit so expected foreign city events = total_events."""
    if total_events < 1:
        raise ValueError(f"total_events must be >= 1, got {total_events}")
    base = replace(spec, events_per_unit=1.0)
    s = math.fsum(math.fsum(row) for row in weight_matrix(base))
    return replace(spec, events_per_unit=total_events / s)


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Each entry gets the floor of its exact quota; leftover units go to the
    largest fractional remainders, ties to the lower index.  The result
    always sums to ``total`` exactly.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be >= 0")
    s = math.fsum(weights)
    if s <= 0:
        if total:
            raise ValueError("cannot apportion a positive total over zero weights")
        return [0] * len(weights)
    quotas = [w * total / s for w in weights]
    base = [math.floor(q) for q in quotas]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


# ---------------------------------------------------------------------------
# table generation (no events, direct shares)

def generate_table(
    spec: SyntheticSpec, dataset_tag: str = "synthetic"
) -> tuple[AttractivenessTable, dict]:
    """Noisy power-law shares straight from the model, plus ground truth.

    Raw attractiveness p^b_true * 10^eps is normalized to shares, so the
    table carries no event counts; b_true survives normalization exactly.
    """
    ids = region_ids(spec)
    pops = populations(spec)
    eps = epsilons(spec)
    raw = [(p ** spec.b_true) * (10.0 ** e) for p, e in zip(pops, eps)]
    s = math.fsum(raw)
    rows = tuple(
        AttractRow(rid, p, 0, a / s) for rid, p, a in zip(ids, pops, raw)
    )
    table = AttractivenessTable(
        dataset_tag=dataset_tag,
        layer="synthetic",
        target_country=spec.target_country,
        rows=rows,
        total_events=0,
        excluded_events=0,
        excluded_regions=(),
    )
    truth = {
        "kind": "table",
        "seed": spec.seed,
        "n_regions": spec.n_regions,
        "p_min": spec.p_min,
        "p_max": spec.p_max,
        "b_true": spec.b_true,
        "noise_sigma": spec.noise_sigma,
        "region_ids": ids,
        "populations": pops,
        "epsilons": eps,
    }
    return table, truth


# ---------------------------------------------------------------------------
# layers

def _city_corner(r):
    """The south-west corner (lat, lon) of city ``r``'s square, or of each
    city of an int array: rows of _ROW_CITIES squares, _CITY_PITCH apart."""
    return _CITY_LAT + r // _ROW_CITIES * _CITY_PITCH, r % _ROW_CITIES * _CITY_PITCH


def _square(properties: dict, lat0: float, lon0: float) -> dict:
    """A GeoJSON feature: the _CITY_SIDE square with south-west corner (lat0, lon0)."""
    east, north = lon0 + _CITY_SIDE, lat0 + _CITY_SIDE
    ring = [[lon0, lat0], [east, lat0], [east, north], [lon0, north], [lon0, lat0]]
    return {"type": "Feature", "properties": properties, "geometry": {"type": "Polygon", "coordinates": [ring]}}


def make_city_layer(spec: SyntheticSpec) -> RegionLayer:
    """Disjoint population-bearing squares in rows inside the target country."""
    features = [
        _square({"id": rid, "name": f"City {rid}", "layer": "cities", "population": pop}, *_city_corner(i))
        for i, (rid, pop) in enumerate(zip(region_ids(spec), populations(spec)))
    ]
    return load_layer({"type": "FeatureCollection", "name": "cities", "features": features})


def make_country_layer(spec: SyntheticSpec) -> RegionLayer:
    """The target country containing every city, plus far-away foreign squares."""
    if spec.n_regions > _ROW_CITIES * _MAX_ROWS:
        raise ValueError(f"at most {_ROW_CITIES * _MAX_ROWS} cities fit south of the foreign countries, got {spec.n_regions}")
    span = min(spec.n_regions, _ROW_CITIES) * _CITY_PITCH + 1.0
    top = max(44.0, _city_corner(spec.n_regions - 1)[0] + _CITY_SIDE + 1.0)  # raised only for many rows
    # rings at most 180 degrees wide, as load_layer requires: one up to 593 regions
    cuts = [-1.0]
    while span - cuts[-1] > 180.0:
        cuts.append(cuts[-1] + 180.0)
    cuts.append(span)
    pieces = [[[[w, 38.0], [e, 38.0], [e, top], [w, top], [w, 38.0]]] for w, e in zip(cuts, cuts[1:])]
    features = [
        {
            "type": "Feature",
            "properties": {"id": spec.target_country, "name": spec.target_country, "layer": "countries"},
            "geometry": (
                {"type": "Polygon", "coordinates": pieces[0]}
                if len(pieces) == 1
                else {"type": "MultiPolygon", "coordinates": pieces}
            ),
        }
    ]
    features += [
        _square({"id": code, "name": code, "layer": "countries"}, _COUNTRY_LAT, j * 0.5)
        for j, code in enumerate(spec.foreign_countries)
    ]
    return load_layer({"type": "FeatureCollection", "name": "countries", "features": features})


def country_anchor(spec: SyntheticSpec, code: str) -> tuple[float, float]:
    """Center of a foreign country's square, for home-anchor events."""
    j = spec.foreign_countries.index(code)
    return (_COUNTRY_LAT + _CITY_SIDE / 2.0, j * 0.5 + _CITY_SIDE / 2.0)


# ---------------------------------------------------------------------------
# event generation

@dataclass(frozen=True)
class EventBundle:
    events: EventTable
    city_layer: RegionLayer
    country_layer: RegionLayer
    truth: dict = field(compare=False)


def _index_within(counts: np.ndarray) -> np.ndarray:
    """For items laid out group after group, ``counts[g]`` in group ``g``,
    each item's index within its group."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def _users(counts: np.ndarray, per_user: int) -> tuple[np.ndarray, int]:
    """The user of each item of groups of ``counts[g]`` items, each group
    split in turn into users of ``per_user`` items, numbered from 0 across
    the groups; and the number of users."""
    users = (counts + per_user - 1) // per_user
    return np.repeat(np.cumsum(users) - users, counts) + _index_within(counts) // per_user, int(users.sum())


def _city_events(root: CounterRng, key: int, counts: np.ndarray, year: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Epoch seconds, lat and lon of the city events of ``counts`` (regions
    x months), in (region, month) order.  Region ``r`` draws from stream
    ``key + r``: the time of its ``e``-th event from counter ``3e``, uniform
    in the month, and its place from ``3e + 1`` and ``3e + 2``, strictly
    inside the square (2% margin), so containment can never hinge on
    boundary conventions."""
    region, month = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), 12)
    streams = CounterRng(np.array([root.stream(key + r).seed for r in range(len(counts))], dtype=np.uint64)[region])
    counter = 3 * _index_within(counts.sum(axis=1)).astype(np.uint64)
    starts = np.array([datetime(year + m // 12, m % 12 + 1, 1, tzinfo=timezone.utc).timestamp() for m in range(13)], dtype=np.int64)
    offset = streams.u64(counter) % np.diff(starts).astype(np.uint64)[month]
    lat0, lon0 = _city_corner(region)
    lat = lat0 + _CITY_SIDE * (0.01 + 0.98 * streams.uniform(counter + 1))
    lon = lon0 + _CITY_SIDE * (0.01 + 0.98 * streams.uniform(counter + 2))
    return starts[month] + offset.astype(np.int64), lat, lon


def _event_columns(
    spec: SyntheticSpec, foreign: np.ndarray, residents: np.ndarray, year: int
) -> tuple[Ids, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The sorted user ids, and the user codes into them, epoch seconds,
    lat and lon of every event of a world of ``foreign`` and ``residents``
    city events per region and month, sorted by time, then user id, lat
    and lon; and the numbers of foreign and resident users.

    Each (region, month) bucket of foreign events is split into users of at
    most 2 events, so a user's in-city count can never beat their 2 home
    anchors; residents post up to 4 events each, all in-country, so
    inference pins them to the target country.  Users are numbered in the
    order of their names, foreign ones first."""
    city_user, n_foreign_users = _users(foreign.ravel(), 2)
    res_user, n_resident_users = _users(residents.sum(axis=1), 4)
    names = [f"f{r}m{m}u{k}" for r, row in enumerate(foreign.tolist()) for m, count in enumerate(row, 1) for k in range((count + 1) // 2)]
    names += [f"d{r}u{j}" for r, count in enumerate(residents.sum(axis=1).tolist()) for j in range((count + 3) // 4)]
    root = CounterRng(spec.seed)
    city_seconds, city_lat, city_lon = _city_events(root, 1000, foreign, year)
    res_seconds, res_lat, res_lon = _city_events(root, 2000, residents, year)

    # two home anchors per foreign user, in its country's square, the
    # countries taken in turn over the users
    anchor_user = np.repeat(np.arange(n_foreign_users), 2)
    anchors = np.array([country_anchor(spec, code) for code in spec.foreign_countries])
    anchor_lat, anchor_lon = anchors[anchor_user % len(anchors)].T
    stamps = [int(datetime(year, m, d, 12, tzinfo=timezone.utc).timestamp()) for m, d in ((1, 2), (12, 28))]
    anchor_seconds = np.tile(np.array(stamps, dtype=np.int64), n_foreign_users)

    user = np.concatenate([anchor_user, city_user, n_foreign_users + res_user])
    seconds = np.concatenate([anchor_seconds, city_seconds, res_seconds])
    lat = np.concatenate([anchor_lat, city_lat, res_lat])
    lon = np.concatenate([anchor_lon, city_lon, res_lon])
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=CODE)
    rank[by_name] = np.arange(len(names))
    user = rank[user]
    order = np.lexsort((lon, lat, user, seconds))
    return Ids(map(names.__getitem__, by_name)), user[order], seconds[order], lat[order], lon[order], n_foreign_users, n_resident_users


def generate_events(
    spec: SyntheticSpec, year: int = 2012, dataset_tag: str = "synthetic"
) -> EventBundle:
    """Build the full synthetic world: layers, events, and ground truth.

    Events are sorted by time, then user id, lat and lon."""
    ids = region_ids(spec)
    pops = populations(spec)
    eps = epsilons(spec)
    months_b = monthly_exponents(spec)
    weights = weight_matrix(spec)
    city_layer = make_city_layer(spec)
    country_layer = make_country_layer(spec)

    annual = [math.floor(math.fsum(w) + 0.5) for w in weights]
    monthly = [largest_remainder(w, n) for w, n in zip(weights, annual)]
    total_foreign = sum(annual)
    share = spec.resident_share
    total_res = math.floor(total_foreign * share / (1.0 - share) + 0.5) if share > 0 else 0
    res_by_region = largest_remainder([float(n) for n in annual], total_res) if total_res else [0] * len(ids)
    res_monthly = [largest_remainder(w, n) if n else [0] * 12 for w, n in zip(weights, res_by_region)]

    counts = (np.array(c, dtype=np.int64).reshape(-1, 12) for c in (monthly, res_monthly))
    user_ids, user, seconds, lat, lon, n_foreign_users, n_resident_users = _event_columns(spec, *counts, year)
    # every user has events, no event declares an origin, and all share the tag
    origin, tag = np.broadcast_to(CODE(-1), len(user)), np.broadcast_to(CODE(0), len(user))
    events = EventTable(user, user_ids, seconds, lat, lon, origin, Ids(), tag, Ids([dataset_tag] if len(user) else []))

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
    return EventBundle(events, city_layer, country_layer, truth)
