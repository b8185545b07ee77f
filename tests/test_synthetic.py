"""Generator ground truth: exact counts, recoverable exponents, determinism."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cityattract.cli import main
from cityattract.events import EventTable, parse_events
from cityattract.geo import assign_events, load_layer, region_contains_bulk
from cityattract.output import dumps_stable
from cityattract.scaling import fit_power_law
from cityattract.synthetic import (
    SyntheticSpec,
    events_per_unit_for_total,
    generate_events,
    generate_table,
    largest_remainder,
    make_city_layer,
    make_country_layer,
    populations,
    weight_matrix,
)

from conftest import events_csv, region_counts, table_of
from oracles import point_in_region, records


def base_spec(**overrides):
    kwargs = dict(
        n_regions=8,
        p_min=1e4,
        p_max=1e6,
        b_true=1.5,
        noise_sigma=0.0,
        events_per_unit=1e-4,
        seed=42,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


# --- spec validation -----------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        {"n_regions": 2},
        {"p_min": 0.0},
        {"p_min": 1e6, "p_max": 1e4},
        {"noise_sigma": -0.1},
        {"events_per_unit": 0.0},
        {"seasonal_b": (1.0,) * 11},
        {"resident_share": 1.0},
        {"resident_share": -0.2},
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        base_spec(**bad)


# --- apportionment -------------------------------------------------------------

def test_largest_remainder_sums_exactly():
    for weights, total in [
        ([1.0, 1.0, 1.0], 10),
        ([0.3, 0.3, 0.4], 7),
        ([1e-9, 1.0], 5),
        ([5.0], 3),
        ([2.0, 0.0, 1.0], 100),
    ]:
        shares = largest_remainder(weights, total)
        assert sum(shares) == total
        assert all(s >= 0 for s in shares)


def test_largest_remainder_proportionality():
    shares = largest_remainder([1.0, 2.0, 3.0], 600)
    assert shares == [100, 200, 300]


def test_largest_remainder_tie_goes_to_lower_index():
    # quotas 2.5 each: one leftover unit lands on index 0
    assert largest_remainder([1.0, 1.0], 5) == [3, 2]
    # all quotas 0.25: first three indexes get the units
    assert largest_remainder([1.0, 1.0, 1.0, 1.0], 3) == [1, 1, 1, 0]


def test_largest_remainder_errors():
    with pytest.raises(ValueError):
        largest_remainder([1.0, -1.0], 3)
    with pytest.raises(ValueError):
        largest_remainder([0.0, 0.0], 3)
    assert largest_remainder([0.0, 0.0], 0) == [0, 0]


# --- direct tables ---------------------------------------------------------------

def test_noise_free_table_recovers_b_exactly():
    table, truth = generate_table(base_spec(n_regions=24))
    fit = fit_power_law(table)
    assert abs(fit.b - 1.5) < 1e-9
    assert fit.r2 >= 1.0 - 1e-12
    assert truth["b_true"] == 1.5


def test_noisy_table_within_interval():
    table, _ = generate_table(base_spec(n_regions=50, noise_sigma=0.2))
    fit = fit_power_law(table)
    assert abs(fit.b - 1.5) <= 3.0 * fit.stderr_b


def test_same_seed_same_table():
    a, ta = generate_table(base_spec(noise_sigma=0.3))
    b, tb = generate_table(base_spec(noise_sigma=0.3))
    assert a == b and ta == tb
    c, _ = generate_table(base_spec(noise_sigma=0.3, seed=43))
    assert c != a


def test_populations_within_bounds_and_deterministic():
    spec = base_spec(n_regions=40)
    pops = populations(spec)
    assert pops == populations(spec)
    assert all(spec.p_min <= p <= spec.p_max for p in pops)
    assert len(set(pops)) > 30  # log-uniform draw should spread out


# --- event streams ---------------------------------------------------------------

def test_event_counts_match_truth_exactly():
    spec = events_per_unit_for_total(base_spec(n_regions=6), 5_000)
    bundle = generate_events(spec)
    truth = bundle.truth
    assignment = assign_events(
        table_of(e for e in records(bundle.events) if not e.user_id.startswith("d")), bundle.city_layer
    )
    assert region_counts(assignment) == {
        rid: n
        for rid, n in zip(truth["region_ids"], truth["annual_foreign_events"])
        if n
    }
    assert sum(truth["annual_foreign_events"]) == truth["total_foreign_events"]
    monthly = truth["monthly_foreign_events"]
    for r, annual in enumerate(truth["annual_foreign_events"]):
        assert sum(monthly[r]) == annual


def test_events_land_inside_their_regions():
    spec = events_per_unit_for_total(base_spec(n_regions=5), 2_000)
    bundle = generate_events(spec)
    country_by_id = {r.id: r for r in bundle.country_layer.regions}
    for e in records(bundle.events):
        if e.user_id.startswith("d"):
            continue
        city_hits = [r.id for r in bundle.city_layer.regions if point_in_region(e.lat, e.lon, r)]
        if city_hits:
            assert len(city_hits) == 1
        else:
            # anchor events sit inside the user's home-country square
            hits = [
                rid
                for rid, region in country_by_id.items()
                if point_in_region(e.lat, e.lon, region)
            ]
            assert len(hits) == 1 and hits[0] != spec.target_country
    assert {r.id for r in bundle.city_layer.regions} == set(bundle.truth["region_ids"])


def test_two_region_weight_ratio():
    # weights p^b: counts should split close to the exact ratio
    spec = events_per_unit_for_total(
        base_spec(n_regions=3, p_min=1e4, p_max=1e6), 30_000
    )
    bundle = generate_events(spec)
    truth = bundle.truth
    weights = [sum(wm) for wm in truth["weights"]]
    total_w = math.fsum(weights)
    total_n = truth["total_foreign_events"]
    for r, w in enumerate(weights):
        expected = total_n * w / total_w
        assert abs(truth["annual_foreign_events"][r] - expected) <= 12  # months x rounding


def test_resident_share_realized_exactly():
    spec = events_per_unit_for_total(base_spec(n_regions=5, resident_share=0.3), 10_000)
    bundle = generate_events(spec)
    truth = bundle.truth
    foreign = truth["total_foreign_events"]
    resident = truth["total_resident_events"]
    # resident events are apportioned to hit the requested share of city events
    assert resident == round(foreign * 0.3 / 0.7)
    resident_seen = sum(1 for e in records(bundle.events) if e.user_id.startswith("d"))
    assert resident_seen == resident


def test_total_events_accounting():
    spec = events_per_unit_for_total(base_spec(n_regions=4), 3_000)
    bundle = generate_events(spec)
    assert len(bundle.events) == bundle.truth["total_events"]
    stamps = bundle.events.seconds.tolist()
    assert stamps == sorted(stamps)


def test_same_seed_same_events():
    spec = events_per_unit_for_total(base_spec(n_regions=4), 1_500)
    a = generate_events(spec)
    b = generate_events(spec)
    assert events_csv(a.events) == events_csv(b.events)  # EventTable compares by identity
    assert a.truth == b.truth


@pytest.mark.parametrize("resident_share", [0.0, 0.3])
def test_events_table_codes_like_from_columns(resident_share):
    # the generator codes users from the rank of their names; from_columns
    # codes the same rows from their strings
    spec = events_per_unit_for_total(base_spec(n_regions=5, resident_share=resident_share), 2_000)
    table = generate_events(spec, dataset_tag="tag").events
    origins = [table.origin_ids[c] if c >= 0 else None for c in table.origin.tolist()]
    again = EventTable.from_columns(
        [table.user_ids[u] for u in table.user.tolist()], table.seconds, table.lat, table.lon,
        origins, [table.tag_ids[t] for t in table.tag.tolist()],
    )
    for name in ("user_ids", "origin_ids", "tag_ids"):
        assert getattr(table, name) == getattr(again, name)
    for name in ("user", "seconds", "lat", "lon", "origin", "tag"):
        column = getattr(table, name)
        assert column.dtype == getattr(again, name).dtype
        assert np.array_equal(column, getattr(again, name))
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


def test_events_per_unit_for_total_hits_target():
    spec = events_per_unit_for_total(base_spec(n_regions=6), 8_000)
    bundle = generate_events(spec)
    # the calibration is exact up to per-region floor rounding
    assert abs(bundle.truth["total_foreign_events"] - 8_000) <= spec.n_regions


def test_layers_are_disjoint_and_stable():
    spec = base_spec(n_regions=4)
    cities = make_city_layer(spec)
    countries = make_country_layer(spec)
    assert len(cities.regions) == 4
    assert {r.id for r in countries.regions} == {"ES", *spec.foreign_countries}
    for city in cities.regions:
        for country in countries.regions:
            if country.id == spec.target_country:
                continue
            # city squares sit far from the foreign squares
            assert city.bbox[2] < country.bbox[0]


@pytest.mark.parametrize("n_regions", [593, 594, 1200, 2000])
def test_wide_target_country_loads_in_rings_of_at_most_180_degrees(n_regions):
    # load_layer refuses a wider ring as an unsplit antimeridian crossing;
    # up to 593 regions the target stays the one rectangle it always was,
    # and from 600 on the cities wrap onto further rows of 600
    (target,) = [r for r in make_country_layer(base_spec(n_regions=n_regions)).regions if r.id == "ES"]
    span = min(n_regions, 600) * 0.3
    assert len(target.polygons) == (1 if n_regions <= 593 else 2)
    for outer, _ in target.polygons:
        lons = [lon for _, lon in outer]
        assert max(lons) - min(lons) <= 180.0
    assert target.bbox[:3] == (38.0, -1.0, 44.0) and target.bbox[3] == pytest.approx(span + 1.0)


def test_layers_hold_at_most_30_rows_of_cities():
    # the target country must stay south of the foreign squares at lat 50;
    # a table needs no layer
    generate_table(base_spec(n_regions=18_001))
    (target,) = [r for r in make_country_layer(base_spec(n_regions=18_000)).regions if r.id == "ES"]
    assert target.bbox[2] == pytest.approx(49.9)
    with pytest.raises(ValueError, match="at most 18000 cities"):
        make_country_layer(base_spec(n_regions=18_001))


def test_seasonal_weights_modulate_monthly_counts():
    seasonal = tuple(1.2 if m == 7 else 1.6 for m in range(1, 13))
    spec = events_per_unit_for_total(
        base_spec(n_regions=6, seasonal_b=seasonal, b_true=1.6), 40_000
    )
    wm = weight_matrix(spec)
    pops = populations(spec)
    biggest = max(range(len(pops)), key=lambda r: pops[r])
    w = wm[biggest]
    assert w[6] < w[0]  # July weight drops for large cities when b drops


# --- the column generator against the scalar one ----------------------------------

CODES = st.sampled_from(("DE", "FR", "GB", "IT", "NL", "US"))


@settings(max_examples=40, deadline=None)
@given(
    n_regions=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=-(2**63), max_value=2**64),
    b_true=st.floats(min_value=0.5, max_value=2.0),
    noise_sigma=st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=1.0),
    resident_share=st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=0.9),
    seasonal_b=st.none() | st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=12, max_size=12).map(tuple),
    events_total=st.integers(min_value=1, max_value=3_000),
    year=st.integers(min_value=1999, max_value=2030),
    countries=st.lists(CODES, min_size=1, max_size=4, unique=True).map(tuple),
)
def test_column_generator_matches_scalar_oracle(
    n_regions, seed, b_true, noise_sigma, resident_share, seasonal_b, events_total, year, countries
):
    spec = events_per_unit_for_total(
        base_spec(
            n_regions=n_regions, seed=seed, b_true=b_true, noise_sigma=noise_sigma,
            resident_share=resident_share, seasonal_b=seasonal_b, foreign_countries=countries,
        ),
        events_total,
    )
    bundle = generate_events(spec, year=year, dataset_tag="prop")
    want, truth = oracles.generate_events(spec, year=year, dataset_tag="prop")
    assert events_csv(bundle.events) == events_csv(table_of(want))
    assert dumps_stable(bundle.truth) == dumps_stable(truth)


def test_municipality_scale_world_ingests_every_event(tmp_path):
    # Spain has about 8,100 municipalities; past 600 regions the cities wrap
    # onto further rows, where one row ran past lon 180 and lost its events
    argv = ["synth", "--out", str(tmp_path), "--seed", "0", "--regions", "8100", "--events-total", "20000", "--tag", "m"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    truth = json.loads((tmp_path / "truth__m.json").read_text())
    events, report = parse_events(tmp_path / "events__m.csv")
    assert report.rejected == 0 and report.accepted == truth["total_events"]
    cities = load_layer(tmp_path / "cities__m.geojson")
    countries = load_layer(tmp_path / "countries__m.geojson")
    # every corner of every city square lies inside the target country and
    # in no foreign one
    corners = np.array([(lat, lon) for r in cities.regions for lat, lon in r.polygons[0][0]])
    for country in countries.regions:
        inside = region_contains_bulk(country, corners[:, 0], corners[:, 1])
        assert inside.all() if country.id == "ES" else not inside.any()
    counts = region_counts(assign_events(events, cities))
    expected = zip(truth["region_ids"], truth["annual_foreign_events"], truth["resident_events_by_region"])
    assert counts == {rid: f + d for rid, f, d in expected if f + d}
