"""One stage path: the CLI subcommands and run_pipeline write the same
files, a failed publish never leaves a manifest behind, CLI commands run
in one process share one parse of an event file and the stage results on
it, and run_pipeline keeps nothing alive."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from cityattract import cli, pipeline
from cityattract.cli import main
from cityattract.geo import assign_events

from conftest import square_feature

TAG = "demo"


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("stage-world")
    _quiet(["synth", "--out", str(root), "--seed", "5", "--regions", "8",
            "--events-total", "5000", "--resident-share", "0.2", "--tag", TAG])
    return root


def _config(world, out_dir):
    return {
        "event_sources": [
            {"path": str(world / f"events__{TAG}.csv"), "format": "csv", "dataset_tag": TAG}
        ],
        "country_layer_path": str(world / f"countries__{TAG}.geojson"),
        "city_layer_paths": [str(world / f"cities__{TAG}.geojson")],
        "output_dir": str(out_dir),
        "target_country": "ES",
    }


def _write_config(world, out_dir):
    config_path = out_dir.parent / f"{out_dir.name}.json"
    config_path.write_text(json.dumps(_config(world, out_dir)))
    return config_path


def _run_pipeline(world, out_dir):
    _quiet(["pipeline", "--config", str(_write_config(world, out_dir))])


def test_cli_commands_write_the_pipeline_bytes(world, tmp_path):
    _run_pipeline(world, tmp_path / "run")
    out = tmp_path / "cli"
    events = ["--events", str(world / f"events__{TAG}.csv")]
    countries = ["--countries", str(world / f"countries__{TAG}.geojson")]
    layer = ["--layer", str(world / f"cities__{TAG}.geojson")]
    table = ["--table", str(out / f"attractiveness__{TAG}__cities.csv"),
             "--dataset", TAG, "--layer", "cities", "--out", str(out)]
    for argv in (
        ["infer-home", *events, *countries, "--tag", TAG, "--out", str(out)],
        ["attractiveness", *events, *layer, *countries, "--tag", TAG, "--out", str(out)],
        ["fit", *table],
        ["bin", *table],
        ["residuals", *table],
        ["temporal", *events, *layer, *countries, "--tag", TAG, "--out", str(out)],
    ):
        _quiet(argv)
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(
        [f"homes__{TAG}.csv"]
        + [f"{stage}__{TAG}__cities.csv" for stage in ("attractiveness", "binned", "residuals", "scatter", "temporal")]
        + [f"fit__{TAG}__cities.json", f"temporal__{TAG}__cities.json"]
    )
    for name in written:
        assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_outputs_do_not_depend_on_the_order_of_declared_origins(world, tmp_path):
    # the busiest foreign visitor (synth names them f...) declares the
    # target country once and another country once; whichever row comes
    # first, the tie goes to the smaller code, so the user counts as resident
    lines = (world / f"events__{TAG}.csv").read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    user = max({r[0] for r in rows if r[0].startswith("f")}, key=lambda u: (sum(r[0] == u for r in rows), u))
    mine = [i for i, r in enumerate(rows) if r[0] == user]
    rows[mine[0]][4], rows[mine[-1]][4] = "FR", "ES"
    outputs = []
    for name, order in (("forward", rows), ("reversed", rows[::-1])):
        source = tmp_path / f"{name}.csv"
        source.write_text("\n".join([header, *(",".join(r) for r in order)]) + "\n")
        config = {**_config(world, tmp_path / name), "event_sources": [{"path": str(source), "format": "csv", "dataset_tag": TAG}]}
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        _quiet(["pipeline", "--config", str(tmp_path / f"{name}.json")])
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir() if p.name != "run_manifest.json"})
    assert outputs[0] == outputs[1]


def test_failed_publish_leaves_no_manifest(world, tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    _run_pipeline(world, out_dir)
    assert (out_dir / "run_manifest.json").is_file()

    real_replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst).startswith("temporal__"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(pipeline.os, "replace", failing_replace)
    config = pipeline.PipelineConfig(
        event_sources=(pipeline.EventSource(str(world / f"events__{TAG}.csv"), "csv", TAG),),
        country_layer_path=str(world / f"countries__{TAG}.geojson"),
        city_layer_paths=(str(world / f"cities__{TAG}.geojson"),),
        output_dir=str(out_dir),
    )
    with pytest.raises(OSError, match="disk full"):
        pipeline.run_pipeline(config)
    assert not (out_dir / "run_manifest.json").exists()
    # the files moved before the failure are there, the staging directory is not
    assert (out_dir / f"scatter__{TAG}__cities.csv").is_file()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".stage-")] == []


def test_manifest_moves_last(world, tmp_path, monkeypatch):
    moved = []
    real_replace = os.replace

    def recording_replace(src, dst):
        moved.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(pipeline.os, "replace", recording_replace)
    _run_pipeline(world, tmp_path / "run")
    assert moved[-1] == "run_manifest.json"
    assert moved[:-1] == sorted(moved[:-1])
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert sorted(manifest["outputs"]) == moved[:-1]
    assert "threads" not in manifest


@pytest.fixture
def parses(monkeypatch):
    """Empty the CLI's memo and count the real parses from here on."""
    monkeypatch.setattr(cli, "_memo", {})
    calls = []
    real_parse = pipeline.parse_events

    def counting_parse(*args, **kwargs):
        calls.append(args[0])
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_events", counting_parse)
    return calls


ROWS = (
    "user_id,timestamp,lat,lon,origin_country,dataset_tag\n"
    "u1,2012-06-01T12:00:00Z,40.4,-3.7,,t\n"
    "u2,2012-06-02T12:00:00Z,41.4,2.1,FR,t\n"
    "u3,2012-06-03T12:00:00Z,91.0,2.1,,t\n"
)


def _ingest(path, out, *options):
    """``ingest`` of ``path`` into ``out``: its exit code, its events CSV
    lines and its report, both None on failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["ingest", "--input", str(path), "--tag", "t", "--out", str(out), *options])
    if code:
        return code, None, None
    return code, (out / "events__t.csv").read_text().splitlines(), json.loads((out / "ingest__t.json").read_text())


def test_cli_chain_parses_the_events_once(world, tmp_path, parses):
    events = ["--events", str(world / f"events__{TAG}.csv")]
    countries = ["--countries", str(world / f"countries__{TAG}.geojson")]
    layer = ["--layer", str(world / f"cities__{TAG}.geojson")]
    out = ["--tag", TAG, "--out", str(tmp_path)]
    _quiet(["ingest", "--input", str(world / f"events__{TAG}.csv"), *out])
    assert len(parses) == 1
    for argv in (
        ["infer-home", *events, *countries, *out],
        ["assign", *events, *layer, *out],
        ["attractiveness", *events, *layer, *countries, *out],
        ["temporal", *events, *layer, *countries, *out],
    ):
        _quiet(argv)
    assert len(parses) == 1


def test_rewritten_file_is_parsed_again(tmp_path, parses):
    path = tmp_path / "events.csv"
    path.write_text(ROWS)
    before = os.stat(path)
    _, lines, _ = _ingest(path, tmp_path)
    assert [line.split(",")[0] for line in lines[1:]] == ["u1", "u2"]
    # same size, same mtime, other content
    path.write_text(ROWS.replace("u2,", "v2,"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns
    _, lines, _ = _ingest(path, tmp_path)
    assert len(parses) == 2
    assert [line.split(",")[0] for line in lines[1:]] == ["u1", "v2"]


def test_memo_hit_returns_the_table_and_a_fresh_report(tmp_path, parses):
    path = tmp_path / "events.csv"
    path.write_text(ROWS)
    args = argparse.Namespace(format="csv", strict=False, tag="t")
    events, report = cli._read_events(args, str(path))
    report.accepted = 0
    report.rejection_reasons["edited"] = 9
    again, fresh = cli._read_events(args, str(path))
    assert len(parses) == 1
    assert again is events
    assert (fresh.accepted, fresh.rejected, fresh.rejection_reasons) == (2, 1, {"lat out of range": 1})
    _, _, written = _ingest(path, tmp_path)
    assert (written["accepted"], written["rejection_reasons"]) == (2, {"lat out of range": 1})
    assert len(parses) == 1
    # format and strictness are part of the key
    assert _ingest(path, tmp_path, "--strict")[0] == 1
    assert len(parses) == 2
    assert _ingest(path, tmp_path, "--format", "jsonl")[0] == 1
    assert len(parses) == 3


def test_ingest_errors_are_not_memoized(tmp_path, parses, capsys):
    path = tmp_path / "events.csv"
    # the undecodable bytes lie well past the first read of the text decoder
    good_row = ROWS.splitlines(keepends=True)[1]
    path.write_bytes((ROWS + good_row * 500).encode() + b"\xff\xfe,2012-06-01T12:00:00Z,40.4,-3.7,,t\n")
    for _ in range(2):
        # the bad row fails before the later undecodable bytes
        assert _ingest(path, tmp_path, "--strict")[0] == 1
        assert "error [ingest]: t: line 4: lat out of range" in capsys.readouterr().err
    assert len(parses) == 2
    assert _ingest(path, tmp_path)[0] == 1
    assert re.search(r"error \[ingest\]: t: .*can't decode", capsys.readouterr().err)
    assert len(parses) == 3


def test_manifest_digests_hash_each_input_once(world, tmp_path, monkeypatch, parses):
    hashed = []
    real_hash = pipeline.sha256_file

    def counting_hash(path):
        hashed.append(str(path))
        return real_hash(path)

    monkeypatch.setattr(pipeline, "sha256_file", counting_hash)
    _run_pipeline(world, tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    for path, digest in manifest["inputs"].items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), path
    events = str(world / f"events__{TAG}.csv")
    assert hashed.count(events) == 1
    assert parses == [events]


def test_run_pipeline_keeps_no_table_alive(world, tmp_path, monkeypatch):
    tables = []
    real_parse = pipeline.parse_events

    def holding_parse(*args, **kwargs):
        table, report = real_parse(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table, report

    monkeypatch.setattr(pipeline, "parse_events", holding_parse)
    pipeline.run_pipeline(pipeline.load_config(_write_config(world, tmp_path / "run")))
    gc.collect()
    assert len(tables) == 1
    assert tables[0]() is None


def test_runs_do_not_import_numpy_ma(world, tmp_path):
    # numpy imports numpy.ma lazily, for np.unique and the sort path of
    # np.isin; neither is on the run's path, which saves its import time
    events, countries, layer, out = _layer_args(world, tmp_path)
    chain = [
        ["ingest", "--input", str(world / f"events__{TAG}.csv"), *out],
        ["infer-home", *events, *countries, *out],
        ["assign", *events, *layer, *out],
        ["attractiveness", *events, *layer, *countries, *out],
        ["temporal", *events, *layer, *countries, *out],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from cityattract import cli, pipeline\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    pipeline.run_pipeline(pipeline.load_config({str(_write_config(world, tmp_path / 'run'))!r}))\n"
        f"    assert all(cli.main(argv) == 0 for argv in {chain!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


@pytest.fixture
def stages(monkeypatch, parses):
    """Count the real country and city assignments and home tallies from
    an empty memo on: (layer label, ...) per assignment, min_events per
    home inference."""
    calls = {"assign": [], "infer": []}
    real_assign, real_infer = pipeline.assign_events, pipeline.infer_all

    def counting_assign(events, layer):
        calls["assign"].append(layer.label)
        return real_assign(events, layer)

    def counting_infer(stats, min_events=1):
        calls["infer"].append(min_events)
        return real_infer(stats, min_events=min_events)

    monkeypatch.setattr(pipeline, "assign_events", counting_assign)
    monkeypatch.setattr(pipeline, "infer_all", counting_infer)
    return calls


def _layer_args(world, tmp_path, cities=None):
    events = ["--events", str(world / f"events__{TAG}.csv")]
    countries = ["--countries", str(world / f"countries__{TAG}.geojson")]
    layer = ["--layer", str(cities or world / f"cities__{TAG}.geojson")]
    return events, countries, layer, ["--tag", TAG, "--out", str(tmp_path)]


def test_cli_chain_runs_each_stage_once(world, tmp_path, stages):
    events, countries, layer, out = _layer_args(world, tmp_path)
    for argv in (
        ["ingest", "--input", str(world / f"events__{TAG}.csv"), *out],
        ["infer-home", *events, *countries, *out],
        ["assign", *events, *layer, *out],
        ["attractiveness", *events, *layer, *countries, *out],
        ["temporal", *events, *layer, *countries, *out],
    ):
        _quiet(argv)
    assert stages == {"assign": ["countries", "cities"], "infer": [1]}


def test_changed_inputs_recompute_the_stages(world, tmp_path, stages):
    events, countries, layer, out = _layer_args(world, tmp_path)
    _quiet(["attractiveness", *events, *layer, *countries, *out])
    assert stages == {"assign": ["countries", "cities"], "infer": [1]}
    # another min_events reruns the home stage only
    _quiet(["attractiveness", *events, *layer, *countries, *out, "--min-events", "2"])
    assert stages == {"assign": ["countries", "cities", "countries"], "infer": [1, 2]}

    doc = json.loads((world / f"cities__{TAG}.geojson").read_text())
    # the same regions under another path, with other populations: no rerun
    for feature in doc["features"]:
        feature["properties"]["population"] += 1
    repopulated = tmp_path / "repopulated.geojson"
    repopulated.write_text(json.dumps(doc))
    _, _, layer, _ = _layer_args(world, tmp_path, repopulated)
    _quiet(["assign", *events, *layer, *out])
    assert stages["assign"] == ["countries", "cities", "countries"]
    # a moved vertex reruns the city assignment
    ring = doc["features"][0]["geometry"]["coordinates"][0]
    ring[1][0] += 1e-6
    moved = tmp_path / "moved.geojson"
    moved.write_text(json.dumps(doc))
    _, _, layer, _ = _layer_args(world, tmp_path, moved)
    _quiet(["assign", *events, *layer, *out])
    assert stages == {"assign": ["countries", "cities", "countries", "cities"], "infer": [1, 2]}


def test_repopulated_layer_counts_with_its_own_populations(world, tmp_path, parses):
    events, countries, layer, out = _layer_args(world, tmp_path)
    _quiet(["attractiveness", *events, *layer, *countries, *out])
    name = f"attractiveness__{TAG}__cities.csv"
    before = (tmp_path / name).read_text().splitlines()
    doc = json.loads((world / f"cities__{TAG}.geojson").read_text())
    for feature in doc["features"]:
        feature["properties"]["population"] *= 2
    repopulated = tmp_path / "repopulated.geojson"
    repopulated.write_text(json.dumps(doc))
    _, _, layer, _ = _layer_args(world, tmp_path, repopulated)
    _quiet(["attractiveness", *events, *layer, *countries, *out])
    after = (tmp_path / name).read_text().splitlines()
    assert [row.split(",")[1] for row in after[1:]] == [
        str(2 * int(row.split(",")[1])) for row in before[1:]
    ]


def test_shared_stage_results_are_read_only(world, tmp_path, parses):
    events, _ = pipeline.read_events(str(world / f"events__{TAG}.csv"), "csv", TAG)
    country_layer = pipeline.read_layer(str(world / f"countries__{TAG}.geojson"))
    city_layer = pipeline.read_layer(str(world / f"cities__{TAG}.geojson"))
    origins, homes, _ = pipeline.resolve_origins(events, country_layer, 1)
    assignment = assign_events(events, city_layer)
    for array in (assignment.index, origins.code, homes.country, homes.event_count, homes.timespan_seconds):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # a later command gets the very same objects
    args = argparse.Namespace(format="csv", strict=False, tag=TAG, min_events=1)
    events, _ = cli._read_events(args, str(world / f"events__{TAG}.csv"))
    origins = cli._origins(args, events, country_layer)
    assignment = cli._assignment(events, city_layer)
    assert cli._origins(args, events, country_layer) is origins
    assert cli._assignment(events, city_layer) is assignment
    assert cli._read_events(args, str(world / f"events__{TAG}.csv"))[0] is events


def test_stages_of_other_tables_are_not_kept(world, tmp_path, monkeypatch, stages):
    path = tmp_path / "events.csv"
    path.write_text(ROWS)
    held = []
    counting_infer = pipeline.infer_all

    def holding_infer(stats, min_events=1):
        homes = counting_infer(stats, min_events=min_events)
        held.append(weakref.ref(homes))
        return homes

    monkeypatch.setattr(pipeline, "infer_all", holding_infer)
    countries = ["--countries", str(world / f"countries__{TAG}.geojson")]
    argv = ["infer-home", "--events", str(path), *countries, "--tag", "t", "--out", str(tmp_path)]
    _quiet(argv)
    _quiet(argv)
    assert stages["infer"] == [1]
    gc.collect()
    assert held[0]() is not None
    # an equal table that is not the memoized one is computed afresh and
    # leaves the memoized results in place
    args = argparse.Namespace(format="csv", strict=False, tag="t", min_events=1)
    events, _ = cli._read_events(args, str(path))
    country_layer = pipeline.read_layer(countries[1])
    cli._origins(args, replace(events), country_layer)
    cli._assignment(replace(events), country_layer)
    assert (stages["infer"], len(stages["assign"])) == ([1, 1], 3)
    assert cli._origins(args, events, country_layer)[1] is held[0]()
    cli._assignment(events, country_layer)
    assert (stages["infer"], len(stages["assign"])) == ([1, 1], 4)
    # a new parse drops the old table's results
    del events
    path.write_text(ROWS.replace("u2,", "v2,"))
    _ingest(path, tmp_path)
    gc.collect()
    assert held[0]() is None
    _quiet(argv)
    assert stages["infer"] == [1, 1, 1]


@pytest.mark.parametrize("key", ["bins", "min_events"])
@pytest.mark.parametrize("value", [2.7, True, False, "3", None, 1e400])
def test_non_integer_config_counts_exit_2(world, tmp_path, capsys, key, value):
    # int() would run 2.7 and "3" as 2 and 3 bins, and true as 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(_config(world, tmp_path / "out"), **{key: value})))
    assert main(["pipeline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error [input-error]" in err and f"{key} must be an integer" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("target_country", None, "target_country must be a string"),
        ("dataset_tag", None, "dataset_tag must be a string"),
        ("city_layer_paths", "ab", "city_layer_paths must be a list of strings"),
    ],
)
def test_non_string_config_fields_exit_2(world, tmp_path, capsys, key, value, message):
    # str() would run a null target as "None", a null tag as "None", and
    # tuple() the paths "ab" as the two layers "a" and "b"
    raw = _config(world, tmp_path / "out")
    (raw["event_sources"][0] if key == "dataset_tag" else raw)[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error [input-error]" in err and message in err
    assert not (tmp_path / "out").exists()


def test_integral_config_counts_are_taken(world, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(_config(world, tmp_path / "out"), bins=3.0, min_events=2)))
    loaded = pipeline.load_config(config)
    assert (loaded.bins, loaded.min_events) == (3, 2)
    assert type(loaded.bins) is int


def _tagged_config(world, out_dir, *tags):
    """The world's config with one event source per tag, all reading the
    same events file."""
    source = {"path": str(world / f"events__{TAG}.csv"), "format": "csv"}
    return dict(_config(world, out_dir), event_sources=[dict(source, dataset_tag=t) for t in tags])


def test_dataset_tags_naming_one_file_exit_2(world, tmp_path, capsys):
    # "a b" and "a-b" both slug to a-b, so their outputs would overwrite
    # each other and correlate the dataset with itself
    raw = _tagged_config(world, tmp_path / "out", "a b", "a-b")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [input-error]: dataset tags must be distinct as file names")
    assert not (tmp_path / "out").exists()
    # run_pipeline checks a config built in code as load_config does
    direct = pipeline.PipelineConfig(
        event_sources=tuple(pipeline.EventSource(s["path"], s["format"], s["dataset_tag"]) for s in raw["event_sources"]),
        country_layer_path=raw["country_layer_path"],
        city_layer_paths=tuple(raw["city_layer_paths"]),
        output_dir=raw["output_dir"],
    )
    with pytest.raises(pipeline.PipelineError, match="distinct as file names") as exc:
        pipeline.run_pipeline(direct)
    assert exc.value.stage == "input-error"
    assert not (tmp_path / "out").exists()


def test_csv_field_past_the_size_limit_fails_the_ingest_stage(world, tmp_path):
    events = tmp_path / "long.csv"
    lines = (world / f"events__{TAG}.csv").read_text().splitlines(keepends=True)
    events.write_text("".join(lines[:2]) + "u" * 200_000 + lines[2][lines[2].index(","):])
    raw = _config(world, tmp_path / "out")
    config = pipeline.PipelineConfig(
        event_sources=(pipeline.EventSource(str(events), "csv", TAG),),
        country_layer_path=raw["country_layer_path"],
        city_layer_paths=tuple(raw["city_layer_paths"]),
        output_dir=raw["output_dir"],
    )
    with pytest.raises(pipeline.PipelineError, match=f"^{TAG}: line 3: field larger than field limit") as exc:
        pipeline.run_pipeline(config)
    assert exc.value.stage == "ingest"


def _run_tags(world, out_dir, *tags):
    config = out_dir.parent / f"{out_dir.name}-{'-'.join(tags)}.json"
    config.write_text(json.dumps(_tagged_config(world, out_dir, *tags)))
    _quiet(["pipeline", "--config", str(config)])
    return json.loads((out_dir / pipeline.MANIFEST).read_text())


def test_rerun_removes_the_outputs_only_the_old_manifest_lists(world, tmp_path):
    out_dir = tmp_path / "run"
    first = _run_tags(world, out_dir, "a", "c")
    (out_dir / "notes.txt").write_text("mine")
    second = _run_tags(world, out_dir, "b", "c")
    assert any("__a" in name for name in first["outputs"])
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*second["outputs"], pipeline.MANIFEST, "notes.txt"])


def test_old_manifest_entries_that_are_not_bare_file_names_stay(world, tmp_path):
    out_dir = tmp_path / "run"
    (out_dir / "sub").mkdir(parents=True)
    for path in (tmp_path / "outside.txt", out_dir / "sub" / "x.txt", out_dir / "gone.txt", out_dir / "kept.txt"):
        path.write_text("x")
    listed = ["../outside.txt", "sub/x.txt", "sub", "..", ".", "", "a\x00b", pipeline.MANIFEST, "gone.txt"]
    (out_dir / pipeline.MANIFEST).write_text(json.dumps({"outputs": dict.fromkeys(listed, "")}))
    manifest = _run_tags(world, out_dir, "a")
    assert not (out_dir / "gone.txt").exists()
    assert (tmp_path / "outside.txt").is_file() and (out_dir / "sub" / "x.txt").is_file()
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*manifest["outputs"], pipeline.MANIFEST, "kept.txt", "sub"])


@pytest.mark.parametrize(
    "old", ["{not json", '["a.csv"]', '{"outputs": "gone.txt"}', '{"outputs": ["gone.txt"]}', "", '{"outputs": ' * 100_000]
)
def test_unreadable_old_manifest_removes_nothing(world, tmp_path, old):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "gone.txt").write_text("x")
    (out_dir / pipeline.MANIFEST).write_text(old)
    manifest = _run_tags(world, out_dir, "a")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*manifest["outputs"], pipeline.MANIFEST, "gone.txt"])


def test_manifest_keeps_the_layer_diagnostics(tmp_path):
    # city E overlaps A, D has no population, and two events lie in no city;
    # f1 is a foreign visitor and r1 a resident
    world = tmp_path / "world"
    world.mkdir()
    countries = {"type": "FeatureCollection", "name": "countries", "features": [square_feature("ES", 0.0, 0.0, 10.0)]}
    cities = {
        "type": "FeatureCollection",
        "name": "cities",
        "features": [
            square_feature("A", 0.0, 0.0, 1.0, population=1000),
            square_feature("B", 0.0, 2.0, 1.0, population=2000),
            square_feature("C", 0.0, 4.0, 1.0, population=4000),
            square_feature("D", 0.0, 6.0, 1.0),
            square_feature("E", 0.5, 0.5, 1.0, population=500),
        ],
    }
    (world / "countries.geojson").write_text(json.dumps(countries))
    (world / "cities.geojson").write_text(json.dumps(cities))
    points = [("f1", 0.2, 0.2)] * 2 + [("f1", 0.75, 0.75)] + [("f1", 0.5, 2.5)] * 3 + [("f1", 0.5, 4.5)] * 5
    points += [("f1", 0.5, 6.5)] * 4 + [("f1", 5.0, 5.0)] * 2 + [("r1", 0.5, 6.6)]
    rows = [f"{user},2012-06-01T12:00:00Z,{lat},{lon},{'FR' if user == 'f1' else 'ES'},{TAG}" for user, lat, lon in points]
    (world / "events.csv").write_text("\n".join(["user_id,timestamp,lat,lon,origin_country,dataset_tag", *rows]) + "\n")
    config = {
        "event_sources": [{"path": str(world / "events.csv"), "format": "csv", "dataset_tag": TAG}],
        "country_layer_path": str(world / "countries.geojson"),
        "city_layer_paths": [str(world / "cities.geojson")],
        "output_dir": str(tmp_path / "run"),
        "target_country": "ES",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    _quiet(["pipeline", "--config", str(tmp_path / "config.json")])
    manifest = json.loads((tmp_path / "run" / pipeline.MANIFEST).read_text())
    assert manifest["datasets"][TAG]["layers"] == {
        "cities": {"overlap_events": 1, "unassigned": 2, "excluded_events": 4, "excluded_regions": 1}
    }


def test_manifest_records_each_stage_in_run_order(world, tmp_path):
    # one dataset and one layer: every stage runs, and the peak RSS that
    # each records when it last ended never falls in run order
    _run_pipeline(world, tmp_path / "run")
    stages = json.loads((tmp_path / "run" / pipeline.MANIFEST).read_text())["stages"]
    assert sorted(stages) == sorted(pipeline.STAGES)
    assert all(stage["seconds"] >= 0 for stage in stages.values())
    peaks = [stages[name]["peak_rss_mb"] for name in pipeline.STAGES]
    assert peaks[0] > 0 and peaks == sorted(peaks)


def test_stages_record_no_peak_without_the_resource_module(world, tmp_path):
    script = (
        "import sys\n"
        "sys.modules['resource'] = None  # as on a platform without it\n"
        "from cityattract import pipeline\n"
        f"manifest = pipeline.run_pipeline(pipeline.load_config({str(_write_config(world, tmp_path / 'run'))!r}))\n"
        "print(sorted({str(stage['peak_rss_mb']) for stage in manifest['stages'].values()}))\n"
    )
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "['None']\n"), done.stderr
