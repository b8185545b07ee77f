"""Generator ground truth: exact counts, recoverable exponents, determinism."""

import dataclasses
import math

import pytest

from cityattract.geo import assign_events, point_in_region
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

from conftest import table_of


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
        table_of(e for e in bundle.events if not e.user_id.startswith("d")), bundle.city_layer
    )
    foreign_city = {
        rid: count
        for rid, count in assignment.counts().items()
    }
    assert foreign_city == {
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
    by_id = bundle.city_layer.by_id()
    country_by_id = bundle.country_layer.by_id()
    for e in bundle.events:
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
    assert set(by_id) == set(bundle.truth["region_ids"])


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
    resident_seen = sum(1 for e in bundle.events if e.user_id.startswith("d"))
    assert resident_seen == resident


def test_total_events_accounting():
    spec = events_per_unit_for_total(base_spec(n_regions=4), 3_000)
    bundle = generate_events(spec)
    assert len(bundle.events) == bundle.truth["total_events"]
    stamps = [e.timestamp for e in bundle.events]
    assert stamps == sorted(stamps)


def test_same_seed_same_events():
    spec = events_per_unit_for_total(base_spec(n_regions=4), 1_500)
    a = generate_events(spec)
    b = generate_events(spec)
    assert a.events == b.events
    assert a.truth == b.truth


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
