"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines on
success; a failing criterion shows its numbers in the assertion too.
Criteria pairing a tolerance with a runtime bound measure wall time
around the operation under test only, never around fixture setup.
"""

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cityattract
from cityattract.geo import assign_events
from cityattract.home import accumulate_stats_seq, infer_all
from cityattract.rng import CounterRng
from cityattract.scaling import (
    AttractRow,
    AttractivenessTable,
    correlate_residuals,
    fit_power_law,
    fit_xy,
    pearson,
    residuals,
)
from cityattract.synthetic import (
    SyntheticSpec,
    events_per_unit_for_total,
    generate_events,
    generate_table,
    make_country_layer,
)
from cityattract.temporal import window_exponents, window_months

from conftest import contained, counts_of, ev, home_of, shape_regions, table_of
from oracles import distance_to_boundary, ols_grid_search, pearson_direct, raster_oracle, records

BOUNDARY_PAD = 2e-4  # one raster diagonal: closer points cannot be resolved


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}{detail}")
    assert ok, f"criterion {num}: {desc}{detail}"


def table_spec(**overrides) -> SyntheticSpec:
    kwargs = dict(
        n_regions=24,
        p_min=1e4,
        p_max=1e6,
        b_true=1.5,
        noise_sigma=0.0,
        events_per_unit=1e-4,
        seed=0,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


# --- shared end-to-end world (criteria 8 and 11) -------------------------------

def run_cli(args, cwd=None):
    # the child imports the same package as this process
    src = str(Path(cityattract.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "cityattract", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, f"cityattract {' '.join(args)}\n{proc.stderr}"
    return proc


@pytest.fixture(scope="session")
def big_world(tmp_path_factory):
    """~2e5-event synthetic world plus one timed pipeline run."""
    root = tmp_path_factory.mktemp("acceptance-big")
    world = root / "world"
    world.mkdir()
    # city events + home anchors + residents come to ~17/7 of the foreign total
    foreign_target = round(2e5 * 7 / 17)
    run_cli(
        [
            "synth",
            "--out", str(world),
            "--seed", "88",
            "--regions", "30",
            "--sigma", "0",
            "--resident-share", "0.3",
            "--events-total", str(foreign_target),
            "--tag", "big",
        ]
    )
    config = {
        "event_sources": [
            {"path": str(world / "events__big.csv"), "format": "csv", "dataset_tag": "big"}
        ],
        "country_layer_path": str(world / "countries__big.geojson"),
        "city_layer_paths": [str(world / "cities__big.geojson")],
        "output_dir": str(root / "run-t1"),
        "target_country": "ES",
    }
    cfg = root / "config-t1.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    run_cli(["pipeline", "--config", str(cfg)])
    elapsed = time.perf_counter() - start
    return {
        "root": root,
        "world": world,
        "run1": root / "run-t1",
        "run1_seconds": elapsed,
        "config": config,
    }


# --- criteria -------------------------------------------------------------------

def test_01_exact_recovery():
    start = time.perf_counter()
    table, _ = generate_table(table_spec())
    fit = fit_power_law(table)
    elapsed = time.perf_counter() - start
    ok = abs(fit.b - 1.5) < 1e-9 and fit.r2 >= 1.0 - 1e-12 and elapsed < 0.1
    report(
        1,
        "noise-free 24-region table recovers b=1.5 within 1e-9, r2>=1-1e-12, <0.1s",
        ok,
        f" (b={fit.b:.12f}, r2={fit.r2:.2e}, {elapsed * 1000:.1f}ms)",
    )


def test_02_noisy_recovery_and_coverage():
    start = time.perf_counter()
    table, _ = generate_table(table_spec(n_regions=50, noise_sigma=0.2, seed=42))
    fit = fit_power_law(table)
    seed42_ok = abs(fit.b - 1.5) <= 3.0 * fit.stderr_b
    covered = 0
    for seed in range(100):
        t, _ = generate_table(table_spec(n_regions=50, noise_sigma=0.2, seed=seed))
        f = fit_power_law(t)
        if abs(f.b - 1.5) <= 3.0 * f.stderr_b:
            covered += 1
    elapsed = time.perf_counter() - start
    ok = seed42_ok and covered >= 95 and elapsed < 5.0
    report(
        2,
        "noisy 50-region fits: seed 42 within 3*stderr, >=95/100 seeds covered, <5s",
        ok,
        f" (seed42 |b-1.5|={abs(fit.b - 1.5):.4f} vs 3se={3 * fit.stderr_b:.4f}, "
        f"coverage={covered}/100, {elapsed:.2f}s)",
    )


def test_03_ratio_anchor():
    # the ratio the package's own fit predicts, from criterion 1's table
    fit = fit_power_law(generate_table(table_spec())[0])
    ratio = 3.0**fit.b
    ok = abs(ratio - 3.0**1.5) < 1e-9 and abs(ratio - 5.0) / 5.0 < 0.05
    report(
        3,
        "fitted b=1.5 turns 3x the population into a 3^b=5.196x attractiveness ratio, ~5x",
        ok,
        f" (b={fit.b:.12f}, ratio={ratio:.9f})",
    )


def test_04_ols_grid_oracle():
    start = time.perf_counter()
    rng = CounterRng(404)
    worst = 0.0
    for trial in range(10):
        s = rng.stream(trial)
        xs = [3.0 + 3.0 * s.uniform(100 + i) for i in range(5)]
        b_true = 1.0 + s.uniform(200)
        ys = [-6.0 + b_true * (x - 3.0) + 0.25 * s.normal(i) for i, x in enumerate(xs)]
        fit = fit_xy(xs, ys)
        gb, _, _ = ols_grid_search(xs, ys)
        worst = max(worst, abs(fit.b - gb))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-4 and elapsed < 10.0
    report(
        4,
        "fit matches brute-force SSE grid (1e-4 slope steps) on 10 instances, <10s",
        ok,
        f" (worst |db|={worst:.2e}, {elapsed:.2f}s)",
    )


def test_05_geometry_raster_oracle():
    start = time.perf_counter()
    rnd = random.Random(55)
    total_checked = 0
    disagreements = 0
    for region in shape_regions().values():
        polys = region.polygons
        lat0, lon0, lat1, lon1 = region.bbox
        points, verdicts = [], []
        for _ in range(1000):
            lat = rnd.uniform(lat0 - 0.3, lat1 + 0.3)
            lon = rnd.uniform(lon0 - 0.3, lon1 + 0.3)
            if distance_to_boundary(lat, lon, polys) < BOUNDARY_PAD:
                continue
            verdict = raster_oracle(lat, lon, polys)
            if verdict is None:
                continue
            points.append((lat, lon))
            verdicts.append(verdict)
        # judged on the production path: one assign_events call per region
        lats, lons = (np.array(axis) for axis in zip(*points))
        total_checked += len(verdicts)
        disagreements += int((contained(region, lats, lons) != np.array(verdicts)).sum())
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and total_checked >= 2500 and elapsed < 5.0
    report(
        5,
        "point-in-polygon agrees with the 1e-4-degree raster oracle off-boundary, <5s",
        ok,
        f" ({total_checked} points checked, {disagreements} disagreements, {elapsed:.2f}s)",
    )


def test_06_residual_properties(big_world):
    instances = []
    instances.append(generate_table(table_spec())[0])
    for seed in (7, 42, 99):
        instances.append(generate_table(table_spec(n_regions=50, noise_sigma=0.2, seed=seed))[0])
    big_csv = big_world["run1"] / "attractiveness__big__cities.csv"
    rows = []
    with big_csv.open() as fh:
        for raw in csv.DictReader(fh):
            rows.append(
                AttractRow(raw["region_id"], int(raw["population"]), int(raw["events"]),
                           float(raw["share"]))
            )
    instances.append(
        AttractivenessTable("big", "cities", "ES", tuple(rows), sum(r.events for r in rows), 0, ())
    )

    worst_sum = 0.0
    for table in instances:
        fit = fit_power_law(table)
        worst_sum = max(worst_sum, abs(math.fsum(s.res for s in residuals(table, fit))))
    exact = generate_table(table_spec())[0]
    worst_online = max(abs(s.res) for s in residuals(exact, fit_power_law(exact)))
    ok = worst_sum < 1e-9 and worst_online < 1e-12
    report(
        6,
        "residuals sum to 0 within 1e-9 on all instances; on-line points within 1e-12",
        ok,
        f" (worst sum={worst_sum:.2e} over {len(instances)} tables, worst on-line={worst_online:.2e})",
    )


def test_07_normalization_invariance():
    base, _ = generate_table(table_spec(n_regions=40, noise_sigma=0.25, seed=3))
    scaled = AttractivenessTable(
        base.dataset_tag,
        base.layer,
        base.target_country,
        tuple(AttractRow(r.region_id, r.population, r.events, r.share * 7.3) for r in base.rows),
        base.total_events,
        base.excluded_events,
        base.excluded_regions,
    )
    f0, f1 = fit_power_law(base), fit_power_law(scaled)
    drift = [
        abs(f1.log_a - (f0.log_a + math.log10(7.3))),
        abs(f1.b - f0.b),
        abs(f1.r2 - f0.r2),
        abs(f1.p_value - f0.p_value),
    ]
    drift.extend(
        abs(a.res - b.res) for a, b in zip(residuals(base, f0), residuals(scaled, f1))
    )
    worst = max(drift)
    ok = worst < 1e-9
    report(
        7,
        "scaling every share by 7.3 shifts log_a by log10(7.3) and nothing else",
        ok,
        f" (worst drift={worst:.2e})",
    )


def test_08_pipeline_end_to_end(big_world):
    truth = json.loads((big_world["world"] / "truth__big.json").read_text())
    fit = json.loads((big_world["run1"] / "fit__big__cities.json").read_text())
    with (big_world["world"] / "events__big.csv").open() as fh:
        n_events = sum(1 for _ in fh) - 1
    counts = {}
    with (big_world["run1"] / "attractiveness__big__cities.csv").open() as fh:
        for raw in csv.DictReader(fh):
            counts[raw["region_id"]] = int(raw["events"])
    want = dict(zip(truth["region_ids"], truth["annual_foreign_events"]))
    counts_ok = counts == want
    size_ok = 1.9e5 <= n_events <= 2.1e5
    b_ok = abs(fit["b"] - 1.5) <= 0.01
    elapsed = big_world["run1_seconds"]
    ok = counts_ok and size_ok and b_ok and fit["n"] == 30 and elapsed < 30.0
    report(
        8,
        "pipeline on ~2e5 events, 30 regions, resident share 0.3: b within 0.01, "
        "foreign-only counts exact, <30s",
        ok,
        f" (events={n_events}, b={fit['b']:.4f}, counts_exact={counts_ok}, {elapsed:.1f}s)",
    )


def test_09_temporal_seasonality():
    start = time.perf_counter()
    seasonal = tuple(1.3 if m in (6, 7, 8) else 1.6 for m in range(1, 13))
    spec = events_per_unit_for_total(
        SyntheticSpec(
            n_regions=24,
            p_min=1e5,
            p_max=1e6,
            b_true=1.6,
            noise_sigma=0.0,
            events_per_unit=1.0,
            seed=909,
            seasonal_b=seasonal,
        ),
        200_000,
    )
    bundle = generate_events(spec)
    origins = {u: ("ES" if u.startswith("d") else "FR") for u in bundle.events.user_ids}
    result = window_exponents(counts_of(records(bundle.events), origins, bundle.city_layer))
    lowest = min(result.normalized, key=result.normalized.get)

    # blend oracle: refit the generator's own window-summed weights
    pops = bundle.truth["populations"]
    xs = [math.log10(p) for p in pops]
    x_mean = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    weights = bundle.truth["weights"]
    blend_ok = result.insufficient == 0
    worst_gap = 0.0
    for w in result.windows:
        sums = [
            math.fsum(weights[r][m - 1] for m in window_months(w.center_month))
            for r in range(len(pops))
        ]
        blend_b = fit_xy(xs, [math.log10(s) for s in sums]).b
        # integerizing the counts moves each region at most 3.5 events off
        # its quota (0.5 annual rounding + <1 per window month).  That skew
        # is deterministic, so OLS stderr alone cannot see it; allow for
        # its worst-case slope shift explicitly.
        skew = (
            math.fsum(
                abs(x - x_mean) * math.log10(1.0 + 3.5 / s) for x, s in zip(xs, sums)
            )
            / sxx
        )
        gap = abs(w.fit.b - blend_b)
        worst_gap = max(worst_gap, gap)
        if gap > 3.0 * w.fit.stderr_b + skew:
            blend_ok = False
    elapsed = time.perf_counter() - start
    ok = lowest in (6, 7, 8) and blend_ok and elapsed < 30.0
    report(
        9,
        "seasonal run dips in a summer-centered window; window b within 3*stderr "
        "(plus integer-apportionment allowance) of the generator month-blend, <30s",
        ok,
        f" (min window={lowest}, worst blend gap={worst_gap:.4f}, {elapsed:.1f}s)",
    )


def test_10_correlation_oracle():
    rng = CounterRng(1010)
    worst = 0.0
    for trial in range(20):
        s = rng.stream(trial)
        xs = [s.normal(2 * i) for i in range(12)]
        ys = [0.5 * x + 0.5 * s.normal(2 * i + 1) for i, x in enumerate(xs)]
        worst = max(worst, abs(pearson(xs, ys) - pearson_direct(xs, ys)))
    from cityattract.scaling import ResidualScore

    scores = [ResidualScore(f"r{i}", math.sin(1.0 + i)) for i in range(15)]
    identical = correlate_residuals(scores, scores).r
    ok = worst < 1e-12 and abs(identical - 1.0) < 1e-9
    report(
        10,
        "pearson matches the direct-formula oracle on 20 pairs; identical lists give 1.0",
        ok,
        f" (worst |dr|={worst:.2e}, identical r={identical:.12f})",
    )


def test_11_thread_determinism(big_world):
    # a second run of the same config must write the same bytes
    root = big_world["root"]
    config = dict(big_world["config"])
    config["output_dir"] = str(root / "run-again")
    cfg = root / "config-again.json"
    cfg.write_text(json.dumps(config))
    run_cli(["pipeline", "--config", str(cfg)])
    names = {p.name for p in big_world["run1"].iterdir()} - {"run_manifest.json"}
    mismatched = [
        name
        for name in sorted(names)
        if (big_world["run1"] / name).read_bytes() != (root / "run-again" / name).read_bytes()
    ]

    # the noisy-table path of criterion 2, repeated through the CLI
    outs = []
    for sub in ("rep-a", "rep-b"):
        d = root / sub
        d.mkdir()
        run_cli(["synth", "--out", str(d), "--table", "--seed", "42", "--regions", "50",
                 "--sigma", "0.2", "--tag", "noisy"])
        run_cli(["fit", "--table", str(d / "table__noisy.csv"), "--dataset", "noisy",
                 "--layer", "synthetic", "--out", str(d)])
        outs.append(
            (d / "table__noisy.csv").read_bytes() + (d / "fit__noisy__synthetic.json").read_bytes()
        )
    repeat_ok = outs[0] == outs[1]
    ok = not mismatched and repeat_ok
    report(
        11,
        "repeated pipeline run byte-identical; repeated noisy fit byte-identical",
        ok,
        f" ({len(names)} files compared, mismatched={mismatched or 'none'}, repeat_ok={repeat_ok})",
    )


def test_12_home_inference_invariance():
    spec = table_spec(n_regions=4)
    countries = make_country_layer(spec)
    # lower-left corners of the generator's country squares (0.2 degrees wide)
    anchors = {
        "ES": (39.0, 0.0),
        "DE": (50.0, 0.0),
        "FR": (50.0, 0.5),
        "GB": (50.0, 1.0),
    }
    rnd = random.Random(1212)
    events = []
    for i in range(1000):
        uid = f"u{i % 57}"
        country = ("ES", "DE", "FR", "GB")[(i * 7 + i % 13) % 4]
        lat0, lon0 = anchors[country]
        events.append(
            ev(
                user=uid,
                ts=f"2012-{1 + i % 12:02d}-{1 + i % 28:02d}T{i % 24:02d}:00:00Z",
                lat=lat0 + rnd.uniform(0.001, 0.199),
                lon=lon0 + rnd.uniform(0.001, 0.199),
            )
        )

    def homes_of(evts):
        table = table_of(evts)
        stats, _ = accumulate_stats_seq(table, assign_events(table, countries))
        return infer_all(stats)

    baseline = homes_of(events)
    stable = True
    for shuffle in range(100):
        shuffled = events[:]
        random.Random(shuffle).shuffle(shuffled)
        if homes_of(shuffled) != baseline:
            stable = False
            break

    ties_ok = (
        home_of({"ES": (10, 5), "FR": (3, 300)}).country == "ES"
        and home_of({"ES": (5, 10), "FR": (5, 30)}).country == "FR"
        and home_of({"ES": (5, 10), "FR": (5, 10)}).country == "ES"
    )
    ok = stable and ties_ok
    report(
        12,
        "home inference invariant over 100 shuffles of a 1000-event fixture; "
        "tie-break examples exact",
        ok,
        f" (shuffles stable={stable}, tie_breaks={ties_ok})",
    )
