"""run_pipeline against the composed scalar references (oracles.oracle_run).

Each stage has its own property test against its reference; this one
checks the seams between them on small worlds: bad rows, events on
region and country borders, in an overlap, in an unpopulated region and
outside every country, declared origins against inferred homes, user ids
shared by two datasets, and stamps around 1970 and at month ends, which
the monthly windows' file shows.
"""

import json
import tempfile
from datetime import datetime
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from cityattract.pipeline import EventSource, PipelineConfig, PipelineError, run_pipeline

from oracles import format_timestamp, oracle_run

USERS = ("a", "b", "c", "é", "v")
STAMPS = (
    "1969-12-31T23:59:59Z", "1970-01-01T00:00:00Z", "1969-01-31T23:59:59Z", "1970-02-28T23:59:59Z",
    "2012-01-31T23:59:59Z", "2012-02-01T00:00:00Z", "2012-02-29T23:59:59Z", "2012-12-31T23:59:59Z",
    "2012-03-31",
)
# (user_id, timestamp, lat, lon, origin_country) of rows that ingest rejects
BAD_ROWS = (
    ("a", "2012-13-01T00:00:00Z", "2", "2", ""),
    ("a", "2012-01-01T00:00:00Z", "91", "2", ""),
    ("a", "2012-01-01T00:00:00Z", "2", "x", ""),
    ("a", "2012-01-01T00:00:00Z", "2", "2", "F1"),
    ("", "2012-01-01T00:00:00Z", "2", "2", ""),
)


def _rectangle(rid, lat0, lon0, lat1, lon1, population=None):
    props = {"id": rid, "name": rid, "layer": "test"}
    if population is not None:
        props["population"] = population
    ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
    return {"type": "Feature", "properties": props, "geometry": {"type": "Polygon", "coordinates": [ring]}}


@st.composite
def worlds(draw):
    """Layers, event files and config of one small world, as file contents."""
    n = draw(st.sampled_from([4, 3, 2]))
    overlapping = draw(st.integers(1, n - 1))  # this region reaches into the one before it
    unpopulated = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    populations = draw(st.permutations([1_000, 20_000, 300_000, 4_000_000]))
    cities = [
        _rectangle(f"r{i}", 1.0, 3.0 * i + 1.0 - 2.0 * (i == overlapping), 3.0, 3.0 * i + 3.0,
                   None if i == unpopulated else populations[i])
        for i in range(n)
    ]
    # region centres, a vertex and an edge of each, the overlap, the gaps
    # between regions, the country border, and points outside every country
    points = [(2.0, 3.0 * i + 2.0) for i in range(n)]
    points += [(1.0, 3.0 * i + 1.0) for i in range(n)] + [(3.0, 3.0 * i + 2.0) for i in range(n)]
    points += [(2.0, 3.0 * overlapping - 0.5), (2.0, 0.5), (8.0, 8.0), (5.0, -5.0), (5.0, 0.0), (5.0, 30.0), (-90.0, 180.0)]
    stamps = st.one_of(
        st.sampled_from(STAMPS),
        st.datetimes(min_value=datetime(1960, 1, 1), max_value=datetime(2030, 12, 31)).map(format_timestamp),
    )
    rows = st.tuples(st.sampled_from(USERS[:-1]), stamps, st.sampled_from(points),
                     st.sampled_from(["", "", "", "FR", "DE", "ES"]))
    # one visitor who declares DE and has j + 1 events in the j-th populated
    # region at one stamp, so that most worlds fit
    populated = [i for i in range(n) if i != unpopulated]
    visit = draw(st.sampled_from(STAMPS))
    backbone = [("v", visit, points[i], "DE") for j, i in enumerate(populated) for _ in range(j + 1)]
    sources = []
    for d in range(draw(st.integers(1, 2))):
        events = draw(st.lists(rows, max_size=25)) + backbone
        bad = draw(st.lists(st.sampled_from(BAD_ROWS), max_size=3))
        lines = draw(st.permutations([(u, t, lat, lon, o) for u, t, (lat, lon), o in events] + bad))
        fmt = draw(st.sampled_from(["csv", "jsonl"]))
        if fmt == "csv":
            text = "user_id,timestamp,lat,lon,origin_country,dataset_tag\n"
            text += "".join(",".join(map(str, (*line, f"d{d}"))) + "\n" for line in lines)
            text += "a,2012-01-01T00:00:00Z,2\n"  # a row missing fields
        else:
            keys = ("user_id", "timestamp", "lat", "lon", "origin_country")
            text = "".join(json.dumps({**dict(zip(keys, line)), "dataset_tag": f"d{d}"}) + "\n" for line in lines)
            text += "{not json\n"
        sources.append((f"d{d}", fmt, text))
    countries = [_rectangle("FR", 0.0, -10.0, 10.0, 0.0), _rectangle("ES", 0.0, 0.0, 10.0, 16.0)]
    return {"countries": countries, "cities": cities, "sources": sources}


def _write_world(world, root: Path) -> PipelineConfig:
    for name, features in (("countries", world["countries"]), ("cities", world["cities"])):
        (root / f"{name}.geojson").write_text(
            json.dumps({"type": "FeatureCollection", "name": name, "features": features}), encoding="utf-8"
        )
    sources = []
    for tag, fmt, text in world["sources"]:
        path = root / f"{tag}.{fmt}"
        path.write_text(text, encoding="utf-8")
        sources.append(EventSource(str(path), fmt, tag))
    return PipelineConfig(tuple(sources), str(root / "countries.geojson"), (str(root / "cities.geojson"),), str(root / "out"))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
def test_run_matches_the_composed_references(world):
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_world(world, Path(tmp))
        want = oracle_run(config)
        event(f"fails at {want}" if isinstance(want, str) else "runs")
        try:
            manifest = run_pipeline(config)
        except PipelineError as exc:
            assert exc.stage == want
            assert not Path(config.output_dir).exists()
            return
        assert not isinstance(want, str), f"run succeeded where the references fail at {want}"
        assert manifest["datasets"] == want["datasets"]
        out = Path(config.output_dir)
        for name, text in want["files"].items():
            assert (out / name).read_text(encoding="utf-8") == text, name
