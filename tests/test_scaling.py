"""Power-law fitting, binning, residuals, correlations vs oracles."""

import calendar
import math
import random
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from cityattract.geo import assign_events
from cityattract.rng import CounterRng
from cityattract.scaling import (
    AttractRow,
    AttractivenessTable,
    ResidualScore,
    StatsError,
    attractiveness_ratio,
    binned_to_csv,
    compute_attractiveness,
    correlate_residuals,
    fit_power_law,
    fit_to_json,
    fit_xy,
    log_bin,
    pearson,
    read_residuals_csv,
    read_table_csv,
    residuals,
    residuals_to_csv,
    scatter_to_csv,
    table_to_csv,
)

from cityattract.temporal import window_exponents, window_months

import oracles
from conftest import counts_of, ev, layer_of, square_feature, table_of
from oracles import EventRecord, fit_binned, ols_grid_search, pearson_direct


def table_from(pairs, tag="syn", total=None) -> AttractivenessTable:
    """Rows from (population, share) pairs; counts are not used by fits."""
    rows = tuple(
        AttractRow(f"r{i:02d}", int(round(p)), 0, share) for i, (p, share) in enumerate(pairs)
    )
    return AttractivenessTable(tag, "test", "ES", rows, total or len(rows), 0, ())


def power_table(b, populations, log_a=-6.0, noise=None):
    pairs = []
    for i, p in enumerate(populations):
        p = int(round(p))
        eps = noise[i] if noise is not None else 0.0
        pairs.append((p, 10.0 ** (log_a + b * math.log10(p) + eps)))
    return table_from(pairs)


# --- attractiveness ----------------------------------------------------------

def test_share_normalization_example():
    layer = layer_of(
        square_feature("X", 0, 0, 1, population=100),
        square_feature("Y", 0, 2, 1, population=200),
    )
    events = [ev(user=f"x{i}", lat=0.5, lon=0.5) for i in range(10)]
    events += [ev(user=f"y{i}", lat=0.5, lon=2.5) for i in range(30)]
    origins = {e.user_id: "FR" for e in events}
    table = compute_attractiveness(counts_of(events, origins, layer))
    shares = {row.region_id: row.share for row in table.rows}
    assert shares == {"X": 0.25, "Y": 0.75}
    assert table.total_events == 40


def test_all_target_country_residents_is_empty_error():
    layer = layer_of(square_feature("X", 0, 0, 1, population=100))
    events = [ev(user="u1", lat=0.5, lon=0.5)]
    with pytest.raises(StatsError, match="empty table"):
        compute_attractiveness(counts_of(events, {"u1": "ES"}, layer))


def test_undetermined_and_unassigned_excluded():
    layer = layer_of(square_feature("X", 0, 0, 1, population=100))
    events = [
        ev(user="f1", lat=0.5, lon=0.5),
        ev(user="und", lat=0.5, lon=0.5),
        ev(user="f1", lat=9.0, lon=9.0),
    ]
    origins = {"f1": "FR", "und": "UNDETERMINED"}
    table = compute_attractiveness(counts_of(events, origins, layer))
    assert table.total_events == 1
    assert table.rows[0].share == 1.0


def test_no_population_region_reported_not_normalized():
    layer = layer_of(
        square_feature("pop", 0, 0, 1, population=100),
        square_feature("nopop", 0, 2, 1),
    )
    events = [ev(user="a", lat=0.5, lon=0.5), ev(user="a", lat=0.5, lon=2.5)]
    table = compute_attractiveness(counts_of(events, {"a": "FR"}, layer))
    assert [r.region_id for r in table.rows] == ["pop"]
    assert table.rows[0].share == 1.0
    assert table.excluded_events == 1
    assert table.excluded_regions == ("nopop",)


def test_shares_match_sequential_recount():
    layer = layer_of(
        *[square_feature(f"r{i}", 0, 2 * i, 1, population=100 * (i + 1)) for i in range(5)]
    )
    rnd = random.Random(17)
    events, origins = [], {}
    for i in range(2000):
        uid = f"u{i % 200}"
        origins[uid] = ("FR", "ES", "UNDETERMINED")[i % 3]
        events.append(ev(user=uid, lat=rnd.uniform(0, 1), lon=rnd.uniform(-0.5, 9.5)))
    assignment = assign_events(table_of(events), layer)
    table = compute_attractiveness(counts_of(events, origins, layer, region_ids=assignment.region_ids))
    counts = {f"r{i}": 0 for i in range(5)}
    kept = 0
    for e, rid in zip(events, assignment.region_ids):
        if origins[e.user_id] in ("ES", "UNDETERMINED") or rid is None:
            continue
        counts[rid] += 1
        kept += 1
    assert table.total_events == kept
    for row in table.rows:
        assert row.events == counts[row.region_id]
        assert row.share == counts[row.region_id] / kept


def test_assignment_against_other_layer_counts_as_excluded():
    layer = layer_of(square_feature("X", 0, 0, 1, population=100))
    events = [ev(user="a"), ev(user="a"), ev(user="a")]
    counts = counts_of(events, {"a": "FR"}, layer, region_ids=["X", "elsewhere", None])
    table = compute_attractiveness(counts)
    assert table.total_events == 1 and table.excluded_events == 1


def test_origins_must_cover_every_event_owner():
    layer = layer_of(square_feature("X", 0, 0, 1, population=100))
    events = [ev(user="a"), ev(user="c"), ev(user="b")]
    with pytest.raises(StatsError, match="user 'c' missing from origins"):
        counts_of(events, {"a": "FR", "b": "FR"}, layer)
    # origins of more users than the events have are fine
    table = compute_attractiveness(counts_of(events, {"a": "FR", "b": "ES", "c": "FR", "d": "FR"}, layer))
    assert table.total_events == 2


def test_assignment_length_must_match_events():
    layer = layer_of(square_feature("X", 0, 0, 1, population=100))
    with pytest.raises(StatsError, match="2 assignments for 1 events"):
        counts_of([ev(user="a")], {"a": "FR"}, layer, region_ids=["X", "X"])


def _month_edges(year: int, month: int) -> list[datetime]:
    """The first and the last second of a calendar month."""
    first = datetime(year, month, 1)
    return [first, first + timedelta(days=calendar.monthrange(year, month)[1], seconds=-1)]


# month boundaries, before and after the epoch, and the end of February
# in 2000 (a leap year) and in 1899-1901 (none is)
MONTH_EDGES = [
    *(t for y, m in ((1, 1), (1899, 2), (1900, 2), (1901, 2), (1969, 12), (1970, 1), (2000, 2), (2012, 12), (9999, 12))
      for t in _month_edges(y, m)),
    datetime(2000, 2, 29, 12),
]
INSTANTS = st.one_of(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
    st.sampled_from(MONTH_EDGES),
)
LONS = [0.5, 2.5, 4.5, 6.5, 9.0]  # A, B, C, no-population D, outside
COUNT_EVENTS = st.lists(
    st.tuples(st.sampled_from(["f1", "f2", "d1", "und", "f\x00"]), INSTANTS, st.sampled_from(LONS)),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(COUNT_EVENTS)
@example([("f1", t, LONS[i % 3]) for i, t in enumerate(MONTH_EDGES)])
def test_count_matrix_matches_event_filter_reference(raw):
    # the month of each counted event is taken from its epoch seconds where
    # the events are counted, so the instants span the accepted years
    layer = layer_of(
        square_feature("A", 0, 0, 1, population=10_000),
        square_feature("B", 0, 2, 1, population=100_000),
        square_feature("C", 0, 4, 1, population=1_000_000),
        square_feature("D", 0, 6, 1),
    )
    origins = {"f1": "FR", "f2": "DE", "d1": "ES", "und": "UNDETERMINED", "f\x00": "GB"}
    events = [EventRecord(u, t.replace(microsecond=0, tzinfo=timezone.utc), 0.5, lon, None, "t") for u, t, lon in raw]
    region_ids = assign_events(table_of(events), layer).region_ids
    counts = counts_of(events, origins, layer, region_ids=region_ids, dataset_tag="d")
    by_month = np.zeros((len(layer.regions) + 1, 12), dtype=np.int64)
    rows = {r.id: i for i, r in enumerate(layer.regions)}
    for event, rid in zip(events, region_ids):
        if rid is not None and origins[event.user_id] not in ("ES", "UNDETERMINED"):
            by_month[rows[rid], event.timestamp.month - 1] += 1
    assert counts.by_month.tolist() == by_month.tolist()

    def outcome(make):
        try:
            return make()
        except StatsError as exc:
            return str(exc)

    assert outcome(lambda: compute_attractiveness(counts)) == outcome(
        lambda: oracles.compute_attractiveness(region_ids, origins, "ES", layer, events, "d")
    )
    reference = oracles.window_tables(region_ids, origins, "ES", layer, events, "d")
    for m, want in reference.items():
        assert outcome(lambda: compute_attractiveness(counts, window_months(m))) == want
    windows = outcome(lambda: window_exponents(counts))
    if not isinstance(windows, str):
        for w in windows.windows:
            want = reference[w.center_month]
            fit = want if isinstance(want, str) else outcome(lambda: fit_power_law(want))
            assert (w.fit if w.fit is not None else w.error) == fit


# --- fitting -----------------------------------------------------------------

def test_exact_power_law_recovered():
    table = power_table(1.5, [1e4, 1e5, 1e6])
    fit = fit_power_law(table)
    assert abs(fit.b - 1.5) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12
    assert fit.n == 3


def test_superlinear_headline_ratio():
    # a 3x larger city under b=1.5 is ~5.2x more attractive
    ratio = attractiveness_ratio(1.5, 3.0)
    assert abs(ratio - 5.196152422706632) < 1e-9
    assert abs(ratio - 5.0) / 5.0 < 0.05


def test_fit_matches_grid_search_oracle():
    rng = CounterRng(99)
    populations = [3e3, 2e4, 9e4, 4e5, 1e6]
    for trial in range(10):
        noise = [0.25 * rng.stream(trial).normal(i) for i in range(5)]
        table = power_table(1.4, populations, log_a=-5.5, noise=noise)
        fit = fit_power_law(table)
        xs = [math.log10(r.population) for r in table.rows]
        ys = [math.log10(r.share) for r in table.rows]
        gb, ga, _ = ols_grid_search(xs, ys)
        assert abs(fit.b - gb) <= 2e-4
        # intercept absorbs slope quantization scaled by mean(x) ~ 4.7
        assert abs(fit.log_a - ga) <= 5e-4


def test_fit_errors():
    with pytest.raises(StatsError, match="insufficient data"):
        fit_power_law(table_from([(1e4, 0.5), (1e5, 0.5)]))
    with pytest.raises(StatsError, match="degenerate abscissa"):
        fit_power_law(table_from([(1e4, 0.2), (1e4, 0.3), (1e4, 0.5)]))
    # zero-share rows are dropped before the n >= 3 check
    with pytest.raises(StatsError, match="insufficient data"):
        fit_power_law(table_from([(1e4, 0.5), (1e5, 0.5), (1e6, 0.0)]))


def test_zero_share_rows_counted():
    table = table_from([(1e3, 0.2), (1e4, 0.3), (1e5, 0.5), (1e6, 0.0)])
    fit = fit_power_law(table)
    assert fit.n == 3
    assert fit.excluded_zero_A == 1


def test_fit_statistics_match_scipy():
    rng = CounterRng(7)
    xs = [3.0 + 0.3 * i for i in range(12)]
    ys = [-6.0 + 1.5 * x + 0.1 * rng.normal(i) for i, x in enumerate(xs)]
    fit = fit_xy(xs, ys)
    ref = scipy.stats.linregress(xs, ys)
    assert abs(fit.b - ref.slope) < 1e-12
    assert abs(fit.log_a - ref.intercept) < 1e-12
    assert abs(fit.stderr_b - ref.stderr) < 1e-12
    assert abs(fit.p_value - ref.pvalue) < 1e-12
    assert abs(fit.r2 - ref.rvalue**2) < 1e-12


def test_fit_json_shape():
    fit = fit_power_law(power_table(1.5, [1e4, 1e5, 1e6]))
    doc = fit_to_json(fit, dataset="photo", layer="LUZ")
    assert set(doc) == {
        "dataset", "layer", "b", "log_a", "r2", "p_value", "stderr_b", "n", "excluded_zero_A",
    }
    assert doc["dataset"] == "photo" and doc["n"] == 3


# --- binning -----------------------------------------------------------------

def test_log_bin_even_spacing_example():
    table = table_from([(10.0**e, 0.2) for e in range(2, 7)])
    trend = log_bin(table, k=5)
    assert len(trend.bins) == 5
    assert [b.member_count for b in trend.bins] == [1, 1, 1, 1, 1]
    # geometric midpoints of equal log10 edges
    expected_centers = [10.0 ** (2.4 + 0.8 * i) for i in range(5)]
    for bin_row, want in zip(trend.bins, expected_centers):
        assert abs(bin_row.p_center - want) / want < 1e-12


def test_log_bin_degenerate_single_population():
    table = table_from([(5e4, 0.1), (5e4, 0.3), (5e4, 0.6)])
    trend = log_bin(table, k=5)
    assert len(trend.bins) == 1
    assert trend.bins[0].member_count == 3
    assert abs(trend.bins[0].mean_A - (0.1 + 0.3 + 0.6) / 3) < 1e-15


def test_log_bin_rejects_bad_k():
    table = table_from([(1e4, 0.5), (1e5, 0.5)])
    for k in (0, sys.maxsize + 1):
        with pytest.raises(StatsError):
            log_bin(table, k=k)


def test_log_bin_partitions_all_rows():
    rng = CounterRng(3)
    pairs = [(10.0 ** (3 + 3 * rng.uniform(i)), 0.01) for i in range(200)]
    table = table_from(pairs)
    for k in (1, 2, 5, 9):
        trend = log_bin(table, k=k)
        assert sum(b.member_count for b in trend.bins) == 200
        centers = [b.p_center for b in trend.bins]
        assert centers == sorted(centers)
        assert all(b.member_count >= 1 for b in trend.bins)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=60),
)
@example([1.8235754721991744, 16607.051468203645], 5)  # lo + (hi - lo) * k / k > hi
def test_log_bin_matches_materialized_edges(populations, k):
    table = table_from([(p, 0.01 * (i + 1)) for i, p in enumerate(populations)])
    assert log_bin(table, k=k) == oracles.log_bin(table, k=k)


def test_log_bin_huge_k_costs_no_memory():
    # edges are computed on demand: k = 10**12 must not build 10**12 of them
    table = table_from([(10.0 ** (2 + 0.5 * i), 0.1) for i in range(9)])
    tracemalloc.start()
    try:
        trend = log_bin(table, k=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert trend.k == 10**12
    assert [b.member_count for b in trend.bins] == [1] * 9
    for b in trend.bins:
        assert abs(b.p_center / b.p_members - 1) < 1e-6


def test_binned_fit_equals_raw_on_exact_data():
    # one row per bin: averaging cannot move points off the line
    table = power_table(1.5, [1e2, 1e3, 1e4, 1e5, 1e6])
    raw = fit_power_law(table)
    binned = fit_binned(log_bin(table, k=5))
    assert abs(raw.b - binned.b) < 1e-6


def test_binned_csv_shape():
    trend = log_bin(power_table(1.5, [1e3, 1e4, 1e5]), k=3)
    lines = binned_to_csv(trend).splitlines()
    assert lines[0] == "p_center,mean_A,member_count"
    assert len(lines) == 4


# --- residuals -----------------------------------------------------------------

def test_residual_on_line_is_zero():
    table = power_table(1.5, [1e3, 1e4, 1e5, 1e6])
    fit = fit_power_law(table)
    for score in residuals(table, fit):
        assert abs(score.res) < 1e-12


def test_residuals_sum_to_zero():
    rng = CounterRng(21)
    noise = [0.3 * rng.normal(i) for i in range(40)]
    table = power_table(1.5, [10.0 ** (3 + 0.1 * i) for i in range(40)], noise=noise)
    fit = fit_power_law(table)
    scores = residuals(table, fit)
    assert abs(math.fsum(s.res for s in scores)) < 1e-9


def test_residuals_match_direct_formula_and_order():
    table = table_from([(1e3, 0.1), (1e4, 0.15), (1e5, 0.3), (1e6, 0.45)])
    fit = fit_power_law(table)
    scores = residuals(table, fit)
    by_id = {s.region_id: s.res for s in scores}
    for row in table.rows:
        want = math.log10(row.share) - fit.b * math.log10(row.population) - fit.log_a
        assert abs(by_id[row.region_id] - want) < 1e-12
    values = [s.res for s in scores]
    assert values == sorted(values, reverse=True)


def test_residuals_csv_round_trip(tmp_path):
    table = table_from([(1e3, 0.1), (1e4, 0.15), (1e5, 0.3), (1e6, 0.45)])
    scores = residuals(table, fit_power_law(table))
    path = tmp_path / "res.csv"
    path.write_text(residuals_to_csv(scores))
    again = read_residuals_csv(path)
    assert [s.region_id for s in again] == [s.region_id for s in scores]
    for a, b in zip(again, scores):
        assert abs(a.res - b.res) < 1e-11  # 12 significant digits on disk


def test_residuals_csv_short_row_is_stats_error(tmp_path):
    path = tmp_path / "res.csv"
    path.write_text("region_id,res\nr0,0.5\nr1\n")
    with pytest.raises(StatsError, match="line 3 .* has 1 field"):
        read_residuals_csv(path)


def test_negative_zero_written_as_zero():
    # every CSV writer formats numbers with output.fmt_num, which never writes -0
    assert residuals_to_csv([ResidualScore("r", -0.0)]) == "region_id,res\nr,0\n"


# --- correlation -----------------------------------------------------------------

def test_pearson_extremes():
    xs = [1.0, 2.0, 5.0, 9.0]
    assert abs(pearson(xs, xs) - 1.0) < 1e-9
    assert abs(pearson(xs, [-x for x in xs]) + 1.0) < 1e-9


def test_pearson_matches_direct_oracle():
    rng = CounterRng(5)
    for trial in range(20):
        s = rng.stream(trial)
        xs = [s.normal(2 * i) for i in range(10)]
        ys = [0.6 * x + 0.4 * s.normal(2 * i + 1) for i, x in enumerate(xs)]
        assert abs(pearson(xs, ys) - pearson_direct(xs, ys)) < 1e-12


def test_pearson_errors():
    with pytest.raises(StatsError, match="undefined correlation"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(StatsError):
        pearson([1.0], [2.0])
    with pytest.raises(StatsError):
        pearson([1.0, 2.0], [1.0])


def test_correlate_residuals_alignment():
    a = [ResidualScore("r1", 0.5), ResidualScore("r2", -0.2), ResidualScore("only_a", 1.0)]
    b = [ResidualScore("r2", -0.1), ResidualScore("r1", 0.4), ResidualScore("only_b", 2.0)]
    result = correlate_residuals(a, b)
    assert result.n_common == 2
    assert result.only_a == 1 and result.only_b == 1
    assert abs(result.r - 1.0) < 1e-9  # two points always correlate exactly


def test_correlate_identical_lists():
    from cityattract.scaling import ResidualScore

    scores = [ResidualScore(f"r{i}", math.sin(i)) for i in range(8)]
    assert abs(correlate_residuals(scores, scores).r - 1.0) < 1e-9


def test_correlate_disjoint_ids_error():
    from cityattract.scaling import ResidualScore

    a = [ResidualScore("x", 0.1), ResidualScore("y", 0.2)]
    b = [ResidualScore("p", 0.1), ResidualScore("q", 0.2)]
    with pytest.raises(StatsError):
        correlate_residuals(a, b)


def test_correlate_recovers_latent_correlation():
    # latent shared component with known loading; estimate should land
    # within 3 standard errors of the construction value
    rng = CounterRng(11)
    rho = 0.8
    n = 400
    from cityattract.scaling import ResidualScore

    lam = math.sqrt(rho)
    shared = [rng.stream(1).normal(i) for i in range(n)]
    a = [
        ResidualScore(f"r{i}", lam * shared[i] + math.sqrt(1 - rho) * rng.stream(2).normal(i))
        for i in range(n)
    ]
    b = [
        ResidualScore(f"r{i}", lam * shared[i] + math.sqrt(1 - rho) * rng.stream(3).normal(i))
        for i in range(n)
    ]
    result = correlate_residuals(a, b)
    stderr = (1 - rho**2) / math.sqrt(n - 1)
    assert abs(result.r - rho) < 3 * stderr


# --- invariances -----------------------------------------------------------------

def test_normalization_invariance():
    rng = CounterRng(31)
    noise = [0.2 * rng.normal(i) for i in range(24)]
    base = power_table(1.5, [10.0 ** (3 + 0.15 * i) for i in range(24)], noise=noise)
    scaled = AttractivenessTable(
        base.dataset_tag,
        base.layer,
        base.target_country,
        tuple(
            AttractRow(r.region_id, r.population, r.events, r.share * 7.3) for r in base.rows
        ),
        base.total_events,
        base.excluded_events,
        base.excluded_regions,
    )
    f0, f1 = fit_power_law(base), fit_power_law(scaled)
    assert abs(f1.log_a - (f0.log_a + math.log10(7.3))) < 1e-9
    assert abs(f1.b - f0.b) < 1e-9
    assert abs(f1.r2 - f0.r2) < 1e-9
    assert abs(f1.p_value - f0.p_value) < 1e-9
    assert abs(f1.stderr_b - f0.stderr_b) < 1e-9
    for s0, s1 in zip(residuals(base, f0), residuals(scaled, f1)):
        assert s0.region_id == s1.region_id
        assert abs(s0.res - s1.res) < 1e-9


def test_r2_is_one_iff_collinear():
    exact = fit_power_law(power_table(1.2, [1e3, 1e4, 1e5, 1e6]))
    assert exact.r2 > 1.0 - 1e-12
    noisy = fit_power_law(
        power_table(1.2, [1e3, 1e4, 1e5, 1e6], noise=[0.1, -0.1, 0.1, -0.1])
    )
    assert noisy.r2 < 1.0 - 1e-6


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**7),
            st.integers(min_value=1, max_value=1000),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_share_sum_property(raw):
    total = sum(c for _, c in raw)
    rows = tuple(
        AttractRow(f"r{i:03d}", p, c, c / total) for i, (p, c) in enumerate(raw)
    )
    table = AttractivenessTable("syn", "test", "ES", rows, total, 0, ())
    assert abs(math.fsum(r.share for r in table.rows) - 1.0) < 1e-9


def test_table_csv_round_trip(tmp_path):
    table = table_from([(1e3, 0.25), (1e6, 0.75)])
    path = tmp_path / "table.csv"
    path.write_text(table_to_csv(table))
    again = read_table_csv(path, dataset_tag=table.dataset_tag, layer=table.layer,
                           target_country=table.target_country)
    assert [r.region_id for r in again.rows] == ["r00", "r01"]
    assert [r.population for r in again.rows] == [1000, 1000000]


def test_table_csv_short_row_is_stats_error(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("region_id,population,events,share\nr1\n")
    with pytest.raises(StatsError, match="line 2 .* has 1 field"):
        read_table_csv(path)


def test_scatter_csv_shape():
    table = power_table(1.5, [1e3, 1e4, 1e5])
    fit = fit_power_law(table)
    lines = scatter_to_csv(table, fit).splitlines()
    assert lines[0] == "region_id,log10_p,log10_A,fit_log10_A"
    assert len(lines) == 4
