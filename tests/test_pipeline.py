"""One stage path: the CLI subcommands and run_pipeline write the same
files, and a failed publish never leaves a manifest behind."""

import contextlib
import io
import json
import os

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
