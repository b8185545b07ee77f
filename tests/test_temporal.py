"""Moving three-month windows: membership, normalization, seasonality."""

import math
import random

import pytest

from cityattract.scaling import StatsError
from cityattract.synthetic import SyntheticSpec, events_per_unit_for_total, generate_events
from cityattract.temporal import (
    window_exponents,
    window_months,
    windows_to_csv,
    windows_to_json,
)

from conftest import counts_of, ev, layer_of, square_feature
from oracles import records


def windows_of(events, origins, layer, target_country):
    return window_exponents(counts_of(events, origins, layer, target_country))


def flat_bundle(total=36_000, n_regions=12, seed=404):
    spec = events_per_unit_for_total(
        SyntheticSpec(
            n_regions=n_regions,
            p_min=1e4,
            p_max=1e6,
            b_true=1.5,
            noise_sigma=0.0,
            events_per_unit=1.0,
            seed=seed,
        ),
        total,
    )
    return generate_events(spec)


def foreign_origins(bundle):
    # windows only care about foreign vs target: ids are f... / d...
    return {u: ("ES" if u.startswith("d") else "FR") for u in bundle.events.user_ids}


# --- window membership -------------------------------------------------------

def test_window_months_wraps():
    assert window_months(1) == (12, 1, 2)
    assert window_months(2) == (1, 2, 3)
    assert window_months(7) == (6, 7, 8)
    assert window_months(12) == (11, 12, 1)


def test_every_month_in_exactly_three_windows():
    hits = {m: 0 for m in range(1, 13)}
    for center in range(1, 13):
        for m in window_months(center):
            hits[m] += 1
    assert all(count == 3 for count in hits.values())


def test_single_month_events_fit_three_windows():
    layer = layer_of(
        square_feature("a", 0, 0, 1, population=10_000),
        square_feature("b", 0, 2, 1, population=100_000),
        square_feature("c", 0, 4, 1, population=1_000_000),
    )
    events = []
    for i, (lon, count) in enumerate([(0.5, 4), (2.5, 12), (4.5, 36)]):
        for j in range(count):
            events.append(
                ev(user=f"u{i}_{j}", ts="2012-06-15T12:00:00Z", lat=0.5, lon=lon)
            )
    origins = {e.user_id: "FR" for e in events}
    result = windows_of(events, origins, layer, "ES")
    fitted = [w.center_month for w in result.windows if w.fit is not None]
    assert fitted == [5, 6, 7]  # June sits in windows centered 5, 6, 7
    assert result.insufficient == 9
    for w in result.windows:
        if w.fit is None:
            assert "insufficient" in w.error or "empty table" in w.error


# --- normalization -----------------------------------------------------------

def test_flat_generation_normalizes_to_one():
    bundle = flat_bundle()
    result = windows_of(
        records(bundle.events), foreign_origins(bundle), bundle.city_layer, "ES"
    )
    assert result.insufficient == 0
    assert len(result.normalized) == 12
    # apportionment rounding adds small deterministic month-to-month wiggle
    for center, value in result.normalized.items():
        assert abs(value - 1.0) < 0.08, (center, value)


def test_normalized_mean_is_one():
    bundle = flat_bundle(total=9_000, n_regions=6, seed=77)
    result = windows_of(
        records(bundle.events), foreign_origins(bundle), bundle.city_layer, "ES"
    )
    included = [result.normalized[w.center_month] for w in result.windows if w.fit is not None]
    assert abs(math.fsum(included) / len(included) - 1.0) < 1e-9


def test_seasonal_dip_lands_on_summer():
    seasonal = tuple(1.3 if m in (6, 7, 8) else 1.6 for m in range(1, 13))
    spec = events_per_unit_for_total(
        SyntheticSpec(
            n_regions=15,
            p_min=1e4,
            p_max=1e6,
            b_true=1.6,
            noise_sigma=0.0,
            events_per_unit=1.0,
            seed=811,
            seasonal_b=seasonal,
        ),
        60_000,
    )
    bundle = generate_events(spec)
    result = windows_of(
        records(bundle.events), foreign_origins(bundle), bundle.city_layer, "ES"
    )
    lowest = min(result.normalized, key=result.normalized.get)
    assert lowest in (6, 7, 8)
    july_mean = result.normalized[7]
    winter = result.normalized[1]
    assert july_mean < winter


def test_reorder_invariance():
    bundle = flat_bundle(total=6_000, n_regions=6, seed=19)
    origins = foreign_origins(bundle)
    events = records(bundle.events)
    base = windows_of(events, origins, bundle.city_layer, "ES")
    shuffled = events[:]
    random.Random(1).shuffle(shuffled)
    again = windows_of(shuffled, origins, bundle.city_layer, "ES")
    for w0, w1 in zip(base.windows, again.windows):
        if w0.fit is None:
            assert w1.fit is None
        else:
            assert abs(w0.fit.b - w1.fit.b) < 1e-12
    assert base.mean_b == pytest.approx(again.mean_b, abs=1e-12)


def test_no_fittable_window_raises():
    layer = layer_of(square_feature("a", 0, 0, 1, population=10_000))
    events = [ev(user="u1", lat=0.5, lon=0.5)]
    with pytest.raises(StatsError):
        windows_of(events, {"u1": "FR"}, layer, "ES")


# --- serialization -------------------------------------------------------------

def test_windows_csv_shape():
    bundle = flat_bundle(total=6_000, n_regions=6, seed=23)
    result = windows_of(
        records(bundle.events), foreign_origins(bundle), bundle.city_layer, "ES"
    )
    lines = windows_to_csv(result).splitlines()
    assert lines[0] == "center_month,b,b_normalized,n,r2,p_value"
    assert len(lines) == 13
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 13))


def test_windows_csv_blank_markers():
    layer = layer_of(
        square_feature("a", 0, 0, 1, population=10_000),
        square_feature("b", 0, 2, 1, population=100_000),
        square_feature("c", 0, 4, 1, population=1_000_000),
    )
    events = []
    for i, lon in enumerate([0.5, 2.5, 4.5]):
        for j in range(6 * (i + 1)):
            events.append(ev(user=f"u{i}_{j}", ts="2012-01-10T00:00:00Z", lat=0.5, lon=lon))
    result = windows_of(events, {e.user_id: "FR" for e in events}, layer, "ES")
    lines = windows_to_csv(result).splitlines()
    march = lines[3]
    assert march.split(",")[1] == ""  # no fit for a window without events


def test_windows_json_summary():
    bundle = flat_bundle(total=6_000, n_regions=6, seed=29)
    result = windows_of(
        records(bundle.events), foreign_origins(bundle), bundle.city_layer, "ES"
    )
    doc = windows_to_json(result)
    assert doc["dataset"] == result.dataset_tag
    assert doc["insufficient_windows"] == 0
    assert len(doc["windows"]) == 12
    first = doc["windows"][0]
    assert first["center_month"] == 1
    assert set(first) >= {"center_month", "months", "b", "b_normalized", "n", "r2", "p_value"}
