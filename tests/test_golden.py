"""Golden byte-identity: every output of two small worlds keeps its sha256.

The digests were recorded with the per-row implementation that the
columnar one replaced.  A change that alters any output byte (a different
tie-break, float formatting, row order, rejection count) fails here, so
performance work cannot change results silently.  Only the run manifest is
left out: it holds wall-clock timestamps.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from pathlib import Path

from cityattract.cli import main

TAG = "golden"

# bad JSONL lines, cycled through as rows are dirtied
BAD_LINES = (
    lambda obj: json.dumps(obj)[:25],  # cut-off object
    lambda obj: json.dumps({**obj, "timestamp": "2012-13-01T00:00:00Z"}),
    lambda obj: json.dumps({**obj, "timestamp": "2012-06-01T12:00:00+02:00"}),
    lambda obj: json.dumps({**obj, "timestamp": "not-a-time"}),
    lambda obj: json.dumps({**obj, "lat": 95.5}),
    lambda obj: json.dumps({**obj, "lon": True}),
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "user_id"}),
    lambda obj: json.dumps({**obj, "user_id": 17}),
    lambda obj: json.dumps({**obj, "origin_country": "es"}),
    lambda obj: json.dumps([obj["user_id"]]),
)
DECLARED = ("DE", "FR", "GB", "ES")


def _quiet(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


def build_world(root: Path) -> dict[str, Path]:
    """A small synth world plus a dirty JSONL copy of its events.

    The copy re-spells some timestamps in the other accepted forms, makes a
    seeded share of users declare origins (sometimes conflicting ones), and
    puts a bad line before about one row in twelve.
    """
    _quiet(["synth", "--out", str(root), "--seed", "3", "--regions", "12",
            "--events-total", "2000", "--resident-share", "0.2", "--tag", TAG])
    rnd = random.Random(20121)
    with open(root / f"events__{TAG}.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    declaring = {row["user_id"] for row in rows if rnd.random() < 0.15}
    lines = []
    for i, row in enumerate(rows):
        obj = {k: v for k, v in row.items() if k != "origin_country"}
        obj["lat"], obj["lon"] = float(row["lat"]), float(row["lon"])
        stamp = row["timestamp"]
        if i % 7 == 1:
            obj["timestamp"] = stamp[:16] + "Z"
        elif i % 7 == 2:
            obj["timestamp"] = stamp[:19] + ".75Z"
        elif i % 29 == 3:
            obj["timestamp"] = stamp[:10]
        if row["user_id"] in declaring:
            obj["origin_country"] = DECLARED[int(rnd.random() * len(DECLARED))]
        if rnd.random() < 1 / 12:
            lines.append(BAD_LINES[len(lines) % len(BAD_LINES)](obj))
        lines.append(json.dumps(obj))
    (root / f"events__{TAG}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "csv": root / f"events__{TAG}.csv",
        "jsonl": root / f"events__{TAG}.jsonl",
        "cities": root / f"cities__{TAG}.geojson",
        "countries": root / f"countries__{TAG}.geojson",
    }


def digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "run_manifest.json"
    }


def pipeline_digests(root: Path) -> dict[str, str]:
    world = build_world(root / "world")
    config = {
        "event_sources": [
            {"path": str(world["csv"]), "format": "csv", "dataset_tag": "photos"},
            {"path": str(world["jsonl"]), "format": "jsonl", "dataset_tag": "tweets"},
        ],
        "country_layer_path": str(world["countries"]),
        "city_layer_paths": [str(world["cities"])],
        "output_dir": str(root / "out"),
        "target_country": "ES",
        "min_events": 2,
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    _quiet(["pipeline", "--config", str(root / "config.json")])
    return digests(root / "out")


def cli_digests(root: Path) -> dict[str, str]:
    world = build_world(root / "world")
    out = str(root / "out")
    events = ["--events", str(world["jsonl"]), "--format", "jsonl"]
    layers = ["--layer", str(world["cities"]), "--countries", str(world["countries"])]
    table = ["--table", str(root / "out" / f"attractiveness__{TAG}__cities.csv"),
             "--dataset", TAG, "--layer", "cities", "--out", out]
    for argv in (
        ["ingest", "--input", str(world["jsonl"]), "--format", "jsonl", "--tag", TAG, "--out", out],
        ["infer-home", *events, "--countries", str(world["countries"]), "--tag", TAG, "--out", out],
        ["assign", *events, "--layer", str(world["cities"]), "--tag", TAG, "--out", out],
        ["attractiveness", *events, *layers, "--tag", TAG, "--out", out],
        ["fit", *table],
        ["bin", *table],
        ["residuals", *table],
        ["temporal", *events, *layers, "--tag", TAG, "--out", out],
    ):
        _quiet(argv)
    return digests(root / "out")


PIPELINE_DIGESTS = {
    "attractiveness__photos__cities.csv": "750f2ad41d02c45e3a8ec942280ce2bfd0f502045d7d93431308d7d9a5a92a9c",
    "attractiveness__tweets__cities.csv": "4c159c51c5d5f9e59a553c45218c7d5a84443498b5e3132a67b35c48d06c77ed",
    "binned__photos__cities.csv": "3d263b442d913d56d4dacd4733e326f95a8caf7ef76a32843b669e9b91834fc4",
    "binned__tweets__cities.csv": "8de01292aa5afe018065e1ee7ef9a056de12525a4f8516752f54b3f613cb498b",
    "correlations.csv": "236cea97ba9da461c024b85d0549b87d5c29e9687ecf49d4656699a230447425",
    "fit__photos__cities.json": "1a9a387cbc05e152f50fa72aae0609ee2926b2a02a6e11066b83975286f0bbea",
    "fit__tweets__cities.json": "62d2e74c2e5f83e9ecba31a19710fc4799d4babbbf31e32940f05082911c0597",
    "homes__photos.csv": "1dcbd04ae4db8b2893128bb44adc8da831db4464a1da88f1573cb2f4306f047d",
    "homes__tweets.csv": "db4c916b4f59983c01d4f72a5a6a32a20f3661650780b6f32d31f2424dc5361f",
    "ingest__photos.json": "9cd4a3cdd94062cb93604feff8e135bdf0d9cbf7c823f2c1ef4885b24ee7f5d7",
    "ingest__tweets.json": "e1fa3eb5b890248777664649648f42c3792250d7d4be4f152f505508ae076a49",
    "residuals__photos__cities.csv": "37d11537c2e6ae0b84e9782b31ab5dc21ff87182aadd83ad5b99daa65a2d55b9",
    "residuals__tweets__cities.csv": "fe66af8d72dae37d0db87f07a9c12c627cf1c3298fe076bba6bbe3e2d019fc67",
    "scatter__photos__cities.csv": "46f7ebc669fd795a4e364697b1195900db139d3076e524f16b7d13fcba563a93",
    "scatter__tweets__cities.csv": "fa577d86acda82a1ed3dddded207bc08dbae87bdc7ccb0e65407b7c60b2106b1",
    "temporal__photos__cities.csv": "1158e5d1ef9c4b8ea25e93e699b9efe9fd5a4c7d4a0abe6d7541c8cd7e2d6718",
    "temporal__photos__cities.json": "58774468a541a0631e7e25107fc30cd7f13d85673cf1783db0eacc676d0ccf65",
    "temporal__tweets__cities.csv": "7bf94ca2147daf61b7925fe0db7df17577ea7c3de1bdb2256c0510a9129ae155",
    "temporal__tweets__cities.json": "198ef20173ea2e2d4847d13b277571e56c1d43dc23fc11dd6146430aea8bbd9a",
}

CLI_DIGESTS = {
    "assign__golden__cities.csv": "8638e05579388c67d0483a7b595b7042d55b19db13e16b2708901d372e4c4676",
    "attractiveness__golden__cities.csv": "4c159c51c5d5f9e59a553c45218c7d5a84443498b5e3132a67b35c48d06c77ed",
    "binned__golden__cities.csv": "cb5f07e25bb664214f8d3c7b55c77131f29f90eb34cfc3785d11370f6cd049ef",
    "events__golden.csv": "0c10d8dd42dca7e688db3eccc3f71a9dd6adef996923ea76deb9da9d00695bb5",
    "fit__golden__cities.json": "4798e8858249c57ad06c750981e57ccc103776db08457eab11c0aaf17b9cc466",
    "homes__golden.csv": "507ed1c326d3c16c5a4d7d1364afb6fd94ab0824227948e68824feacccd9e899",
    "ingest__golden.json": "e1fa3eb5b890248777664649648f42c3792250d7d4be4f152f505508ae076a49",
    "residuals__golden__cities.csv": "4f159dbebb7f5baf2ab9e49080efe2bb1986cd01e2c4df8e75c89fa8ca071aed",
    "scatter__golden__cities.csv": "afc7d9ebc02864462827d53fbdbd7524bc36601831adf58f32a2a30d459a801b",
    "temporal__golden__cities.csv": "7bf94ca2147daf61b7925fe0db7df17577ea7c3de1bdb2256c0510a9129ae155",
    "temporal__golden__cities.json": "de4050ee58813cfb2224e25d999bffddcf0cf4c44bacb5dc44bac377ac25fb39",
}


def test_pipeline_outputs_byte_identical(tmp_path):
    assert pipeline_digests(tmp_path) == PIPELINE_DIGESTS


def test_cli_chain_outputs_byte_identical(tmp_path):
    assert cli_digests(tmp_path) == CLI_DIGESTS
