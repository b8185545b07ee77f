"""One stage path: the CLI subcommands and run_pipeline write the same
files, a failed publish never leaves a manifest behind, and in-process
readers of one event file share one parse and the stage results on it."""

import contextlib
import gc
import hashlib
import io
import json
import os
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from cityattract import pipeline
from cityattract.cli import main

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


def _run_pipeline(world, out_dir):
    config_path = out_dir.parent / f"{out_dir.name}.json"
    config_path.write_text(json.dumps(_config(world, out_dir)))
    _quiet(["pipeline", "--config", str(config_path)])


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
    """Empty the parse memo and count the real parses from here on."""
    monkeypatch.setattr(pipeline, "_last_parse", None)
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
    events, _ = pipeline.read_events(str(path), "csv", "t")
    assert events.user_ids == ("u1", "u2")
    # same size, same mtime, other content
    path.write_text(ROWS.replace("u2,", "v2,"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns
    again, _ = pipeline.read_events(str(path), "csv", "t")
    assert len(parses) == 2
    assert again.user_ids == ("u1", "v2")


def test_memo_hit_returns_the_table_and_a_fresh_report(tmp_path, parses):
    path = tmp_path / "events.csv"
    path.write_text(ROWS)
    events, report = pipeline.read_events(str(path), "csv", "t")
    report.accepted = 0
    report.rejection_reasons["edited"] = 9
    again, fresh = pipeline.read_events(str(path), "csv", "t")
    assert len(parses) == 1
    assert again is events
    assert (fresh.accepted, fresh.rejected, fresh.rejection_reasons) == (2, 1, {"lat out of range": 1})
    # format and strictness are part of the key
    with pytest.raises(pipeline.PipelineError, match="line 4: lat out of range"):
        pipeline.read_events(str(path), "csv", "t", strict=True)
    assert len(parses) == 2


def test_ingest_errors_are_not_memoized(tmp_path, parses):
    path = tmp_path / "events.csv"
    # the undecodable bytes lie well past the first read of the text decoder
    good_row = ROWS.splitlines(keepends=True)[1]
    path.write_bytes((ROWS + good_row * 500).encode() + b"\xff\xfe,2012-06-01T12:00:00Z,40.4,-3.7,,t\n")
    for _ in range(2):
        # the bad row fails before the later undecodable bytes
        with pytest.raises(pipeline.PipelineError, match="t: line 4: lat out of range") as exc:
            pipeline.read_events(str(path), "csv", "t", strict=True)
        assert exc.value.stage == "ingest"
    assert len(parses) == 2
    with pytest.raises(pipeline.PipelineError, match="t: .*can't decode") as exc:
        pipeline.read_events(str(path), "csv", "t")
    assert exc.value.stage == "ingest"
    assert len(parses) == 3


def test_manifest_digests_key_the_parse(world, tmp_path, monkeypatch, parses):
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
    # a later reader of the same content hashes it but does not parse it
    pipeline.read_events(events, "csv", TAG)
    assert hashed.count(events) == 2
    assert parses == [events]


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
    assignment = pipeline.assign_layer(events, city_layer)
    # a later caller gets the very same objects
    assert pipeline.resolve_origins(events, country_layer, 1)[0] is origins
    assert pipeline.assign_layer(events, city_layer) is assignment
    for array in (assignment.index, origins.code, homes.country, homes.event_count, homes.timespan_seconds):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_stages_of_other_tables_are_not_kept(world, tmp_path, stages):
    path = tmp_path / "events.csv"
    path.write_text(ROWS)
    events, _ = pipeline.read_events(str(path), "csv", "t")
    country_layer = pipeline.read_layer(str(world / f"countries__{TAG}.geojson"))
    held = weakref.ref(pipeline.resolve_origins(events, country_layer, 1)[1])
    # an equal table that is not the memoized one is computed afresh
    pipeline.resolve_origins(replace(events), country_layer, 1)
    assert stages["infer"] == [1, 1]
    pipeline.resolve_origins(events, country_layer, 1)
    assert stages["infer"] == [1, 1]
    assert held() is not None
    # a new parse drops the old table's results
    path.write_text(ROWS.replace("u2,", "v2,"))
    del events
    again, _ = pipeline.read_events(str(path), "csv", "t")
    gc.collect()
    assert held() is None
    pipeline.resolve_origins(again, country_layer, 1)
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
