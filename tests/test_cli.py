"""Command-line round-trips on a small generated world."""

import csv
import json
import math
from pathlib import Path

import pytest

from cityattract.cli import main


def run_ok(argv):
    assert main(argv) == 0


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    run_ok(
        [
            "synth",
            "--out", str(root),
            "--seed", "5",
            "--regions", "6",
            "--events-total", "4000",
            "--resident-share", "0.2",
            "--tag", "demo",
        ]
    )
    return root


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-out")


def test_synth_emits_world(world):
    names = {p.name for p in world.iterdir()}
    assert names == {
        "events__demo.csv",
        "cities__demo.geojson",
        "countries__demo.geojson",
        "truth__demo.json",
    }
    truth = json.loads((world / "truth__demo.json").read_text())
    assert truth["n_regions"] == 6
    assert truth["seed"] == 5


def test_synth_table_mode(tmp_path):
    run_ok(["synth", "--out", str(tmp_path), "--table", "--seed", "42", "--regions", "10", "--tag", "t"])
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"table__t.csv", "truth__t.json"}
    rows = list(csv.DictReader((tmp_path / "table__t.csv").open()))
    assert len(rows) == 10
    assert abs(math.fsum(float(r["share"]) for r in rows) - 1.0) < 1e-9


def test_ingest(world, out):
    run_ok(
        ["ingest", "--input", str(world / "events__demo.csv"), "--tag", "demo", "--out", str(out)]
    )
    report = json.loads((out / "ingest__demo.json").read_text())
    assert report["rejected"] == 0
    n_lines = len((out / "events__demo.csv").read_text().splitlines())
    assert report["accepted"] == n_lines - 1
    # canonical rewrite of canonical input is byte-stable
    assert (out / "events__demo.csv").read_bytes() == (world / "events__demo.csv").read_bytes()


def test_infer_home(world, out):
    run_ok(
        [
            "infer-home",
            "--events", str(out / "events__demo.csv"),
            "--countries", str(world / "countries__demo.geojson"),
            "--tag", "demo",
            "--out", str(out),
        ]
    )
    rows = list(csv.DictReader((out / "homes__demo.csv").open()))
    users = {r["user_id"]: r["country"] for r in rows}
    events = (out / "events__demo.csv").read_text().splitlines()[1:]
    distinct = {line.split(",")[0] for line in events}
    assert set(users) == distinct
    for uid, country in users.items():
        if uid.startswith("d"):
            assert country == "ES"
        else:
            assert country not in ("ES", "UNDETERMINED")


def test_assign(world, out):
    run_ok(
        [
            "assign",
            "--events", str(out / "events__demo.csv"),
            "--layer", str(world / "cities__demo.geojson"),
            "--tag", "demo",
            "--out", str(out),
        ]
    )
    rows = list(csv.DictReader((out / "assign__demo__cities.csv").open()))
    truth = json.loads((world / "truth__demo.json").read_text())
    assigned = sum(1 for r in rows if r["region_id"])
    assert assigned == truth["total_foreign_events"] + truth["total_resident_events"]


def test_attractiveness_and_fit(world, out):
    run_ok(
        [
            "attractiveness",
            "--events", str(out / "events__demo.csv"),
            "--layer", str(world / "cities__demo.geojson"),
            "--countries", str(world / "countries__demo.geojson"),
            "--tag", "demo",
            "--out", str(out),
        ]
    )
    table_path = out / "attractiveness__demo__cities.csv"
    rows = list(csv.DictReader(table_path.open()))
    assert abs(math.fsum(float(r["share"]) for r in rows) - 1.0) < 1e-9

    run_ok(
        [
            "fit",
            "--table", str(table_path),
            "--dataset", "demo",
            "--layer", "cities",
            "--out", str(out),
        ]
    )
    fit = json.loads((out / "fit__demo__cities.json").read_text())
    assert abs(fit["b"] - 1.5) < 0.05  # only apportionment rounding perturbs it
    assert fit["p_value"] < 0.01


def test_bin_and_residuals(world, out):
    table_path = out / "attractiveness__demo__cities.csv"
    run_ok(["bin", "--table", str(table_path), "--dataset", "demo", "--layer", "cities",
            "--out", str(out), "-k", "3"])
    lines = (out / "binned__demo__cities.csv").read_text().splitlines()
    assert lines[0] == "p_center,mean_A,member_count"
    assert 2 <= len(lines) <= 4

    run_ok(["residuals", "--table", str(table_path), "--dataset", "demo", "--layer", "cities",
            "--out", str(out)])
    res_lines = (out / "residuals__demo__cities.csv").read_text().splitlines()
    assert res_lines[0] == "region_id,res"
    scatter = (out / "scatter__demo__cities.csv").read_text().splitlines()
    assert scatter[0] == "region_id,log10_p,log10_A,fit_log10_A"
    assert len(scatter) == len(res_lines)


def test_temporal(world, out):
    run_ok(
        [
            "temporal",
            "--events", str(out / "events__demo.csv"),
            "--layer", str(world / "cities__demo.geojson"),
            "--countries", str(world / "countries__demo.geojson"),
            "--tag", "demo",
            "--out", str(out),
        ]
    )
    lines = (out / "temporal__demo__cities.csv").read_text().splitlines()
    assert lines[0] == "center_month,b,b_normalized,n,r2,p_value"
    assert len(lines) == 13
    doc = json.loads((out / "temporal__demo__cities.json").read_text())
    assert len(doc["windows"]) == 12


def test_correlate(world, out, tmp_path):
    # second synthetic dataset for a 2x2 correlation table
    run_ok(["synth", "--out", str(tmp_path), "--seed", "9", "--regions", "6",
            "--events-total", "4000", "--sigma", "0.15", "--tag", "alt"])
    for argvs in (
        ["attractiveness", "--events", str(tmp_path / "events__alt.csv"),
         "--layer", str(world / "cities__demo.geojson"),
         "--countries", str(tmp_path / "countries__alt.geojson"),
         "--tag", "alt", "--out", str(tmp_path)],
        ["residuals", "--table", str(tmp_path / "attractiveness__alt__cities.csv"),
         "--dataset", "alt", "--layer", "cities", "--out", str(tmp_path)],
    ):
        run_ok(argvs)
    run_ok(
        [
            "correlate",
            "--pair", f"demo={out / 'residuals__demo__cities.csv'}",
            "--pair", f"alt={tmp_path / 'residuals__alt__cities.csv'}",
            "--layer-label", "cities",
            "--out", str(tmp_path),
        ]
    )
    lines = (tmp_path / "correlations.csv").read_text().splitlines()
    assert lines[0] == "layer,alt|demo"
    label, value = lines[1].split(",")
    assert label == "cities"
    assert -1.0 <= float(value) <= 1.0


def test_pipeline_end_to_end(world, tmp_path):
    config = {
        "event_sources": [
            {"path": str(world / "events__demo.csv"), "format": "csv", "dataset_tag": "demo"}
        ],
        "country_layer_path": str(world / "countries__demo.geojson"),
        "city_layer_paths": [str(world / "cities__demo.geojson")],
        "output_dir": str(tmp_path / "run"),
        "target_country": "ES",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    run_ok(["pipeline", "--config", str(cfg_path)])
    out_dir = tmp_path / "run"
    names = {p.name for p in out_dir.iterdir()}
    for expected in (
        "run_manifest.json",
        "ingest__demo.json",
        "homes__demo.csv",
        "attractiveness__demo__cities.csv",
        "fit__demo__cities.json",
        "binned__demo__cities.csv",
        "residuals__demo__cities.csv",
        "scatter__demo__cities.csv",
        "temporal__demo__cities.csv",
        "temporal__demo__cities.json",
        "correlations.csv",
    ):
        assert expected in names, expected
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["datasets"]["demo"]["rejected"] == 0
    # rerun into a second directory: identical bytes except the manifest
    config["output_dir"] = str(tmp_path / "run2")
    cfg_path.write_text(json.dumps(config))
    run_ok(["pipeline", "--config", str(cfg_path)])
    for name in names - {"run_manifest.json"}:
        assert (out_dir / name).read_bytes() == (tmp_path / "run2" / name).read_bytes(), name


def test_correlate_writes_the_pipeline_matrix(world, tmp_path, capsys):
    # the CLI and the pipeline share one correlation writer: same residuals,
    # same bytes; a pair without enough shared regions fails the CLI command
    lines = (world / "events__demo.csv").read_text().splitlines(keepends=True)
    (tmp_path / "thin.csv").write_text(lines[0] + "".join(lines[1::2]))
    config = {
        "event_sources": [
            {"path": str(world / "events__demo.csv"), "format": "csv", "dataset_tag": "full"},
            {"path": str(tmp_path / "thin.csv"), "format": "csv", "dataset_tag": "thin"},
        ],
        "country_layer_path": str(world / "countries__demo.geojson"),
        "city_layer_paths": [str(world / "cities__demo.geojson")],
        "output_dir": str(tmp_path / "run"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    run_ok(["pipeline", "--config", str(tmp_path / "config.json")])
    run = tmp_path / "run"
    run_ok(["correlate", "--pair", f"thin={run / 'residuals__thin__cities.csv'}",
            "--pair", f"full={run / 'residuals__full__cities.csv'}",
            "--layer-label", "cities", "--out", str(tmp_path / "cli")])
    written = (tmp_path / "cli" / "correlations.csv").read_bytes()
    assert written == (run / "correlations.csv").read_bytes()
    assert written.decode().splitlines()[0] == "layer,full|thin"

    (tmp_path / "lone.csv").write_text("region_id,res\nelsewhere,0.5\n")
    code = main(["correlate", "--pair", f"full={run / 'residuals__full__cities.csv'}",
                 "--pair", f"lone={tmp_path / 'lone.csv'}", "--out", str(tmp_path / "cli")])
    assert code == 1
    assert "error [correlate]: full|lone: insufficient data" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["ingest", "--input", str(tmp_path / "nope.csv"), "--tag", "x", "--out", str(tmp_path)])
    assert code == 2
    assert "input-error" in capsys.readouterr().err


def test_pipeline_missing_config_exits_2(tmp_path, capsys):
    code = main(["pipeline", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "input-error" in capsys.readouterr().err


def test_strict_ingest_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "user_id,timestamp,lat,lon,origin_country,dataset_tag\n"
        "u1,2012-06-01T12:00:00Z,91.0,-3.7,,t\n"
    )
    code = main(["ingest", "--input", str(bad), "--tag", "t", "--out", str(tmp_path), "--strict"])
    assert code == 1
    err = capsys.readouterr().err
    assert "ingest" in err and "lat out of range" in err


def test_deeply_nested_jsonl_line_is_bad_json(tmp_path, capsys):
    # json's scanner raises RecursionError for this line; ingest must
    # reject it, not exit with a traceback
    good = '{"user_id": "u1", "timestamp": "2012-06-01T12:00:00Z", "lat": 40.5, "lon": -3.7, "dataset_tag": "t"}'
    path = tmp_path / "deep.jsonl"
    path.write_text(good + "\n" + '{"a":' + "[" * 100_000 + "\n")
    argv = ["ingest", "--input", str(path), "--format", "jsonl", "--tag", "t", "--out", str(tmp_path)]
    assert main(argv + ["--strict"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and "line 2: bad json" in err
    assert main(argv) == 0
    report = json.loads((tmp_path / "ingest__t.json").read_text())
    assert (report["accepted"], report["rejection_reasons"]) == (1, {"bad json": 1})


def test_fit_insufficient_data_exits_1(tmp_path, capsys):
    table = tmp_path / "short.csv"
    table.write_text("region_id,population,events,share\nr1,1000,1,0.5\nr2,2000,1,0.5\n")
    code = main(["fit", "--table", str(table), "--dataset", "d", "--layer", "l", "--out", str(tmp_path)])
    assert code == 1
    assert "insufficient data" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cityattract" in capsys.readouterr().out


def test_non_finite_layer_exits_2(world, tmp_path, capsys):
    doc = json.loads((world / "cities__demo.geojson").read_text())
    doc["features"][0]["geometry"]["coordinates"][0][1][1] = float("nan")
    layer = tmp_path / "nan.geojson"
    layer.write_text(json.dumps(doc))
    code = main(["assign", "--events", str(world / "events__demo.csv"), "--layer", str(layer),
                 "--tag", "demo", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error [input-error]: cannot load layer" in err and "non-finite coordinate" in err


@pytest.mark.parametrize("population", ["Infinity", "1e400", "NaN"])
def test_non_finite_population_exits_2(world, tmp_path, capsys, population):
    doc = json.loads((world / "cities__demo.geojson").read_text())
    assert "population" in doc["features"][0]["properties"]
    doc["features"][0]["properties"]["population"] = "POPULATION"
    layer = tmp_path / "population.geojson"
    layer.write_text(json.dumps(doc).replace('"POPULATION"', population))
    code = main(["assign", "--events", str(world / "events__demo.csv"), "--layer", str(layer),
                 "--tag", "demo", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error [input-error]: cannot load layer" in err and "population must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("strict", [False, True])
def test_undecodable_events_exit_1(tmp_path, capsys, strict):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(
        b"user_id,timestamp,lat,lon,origin_country,dataset_tag\n"
        b"\xff\xfe,2012-06-01T12:00:00Z,40.4,-3.7,,t\n"
    )
    argv = ["ingest", "--input", str(bad), "--tag", "t", "--out", str(tmp_path / "out")]
    assert main(argv + ["--strict"] * strict) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]: t: ") and "decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "bin", "residuals"])
def test_short_table_row_exits_2(tmp_path, capsys, command):
    table = tmp_path / "table.csv"
    table.write_text("region_id,population,events,share\nr1\n")
    code = main([command, "--table", str(table), "--dataset", "d", "--layer", "l", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error [input-error]: cannot read table {table}")


def test_short_residuals_row_exits_2(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("region_id,res\nr1,0.5\n")
    (tmp_path / "b.csv").write_text("region_id,res\nr1\n")
    code = main(["correlate", "--pair", f"a={tmp_path / 'a.csv'}", "--pair", f"b={tmp_path / 'b.csv'}",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error [input-error]: cannot read residuals {tmp_path / 'b.csv'}")


@pytest.mark.parametrize(
    "row", ["r4,0,1,0.25", "r4,1000,-1,0.25", "r4,1000,1,inf", "r4,1000,1,nan", "r4,1000,1,-0.25"]
)
@pytest.mark.parametrize("command", ["fit", "bin", "residuals"])
def test_bad_table_value_exits_2(tmp_path, capsys, command, row):
    # population < 1, negative events, a non-finite or negative share
    table = tmp_path / "table.csv"
    table.write_text(f"region_id,population,events,share\nr1,1000,1,0.25\nr2,2000,1,0.25\nr3,4000,1,0.25\n{row}\n")
    code = main([command, "--table", str(table), "--dataset", "d", "--layer", "l", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [input-error]: cannot read table {table}: line 5 of {table}: ")


@pytest.mark.parametrize("res", ["inf", "-inf", "nan"])
def test_non_finite_residual_exits_2(tmp_path, capsys, res):
    (tmp_path / "a.csv").write_text("region_id,res\nr1,0.5\nr2,-0.5\nr3,0\n")
    (tmp_path / "b.csv").write_text(f"region_id,res\nr1,0.25\nr2,{res}\nr3,0\n")
    code = main(["correlate", "--pair", f"a={tmp_path / 'a.csv'}", "--pair", f"b={tmp_path / 'b.csv'}",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [input-error]: cannot read residuals {tmp_path / 'b.csv'}: line 3 ")
    assert not (tmp_path / "correlations.csv").exists()


@pytest.mark.parametrize(
    "option",
    [
        ["--b", "nan"],
        ["--b", "inf"],
        ["--sigma", "nan"],
        ["--p-max", "inf"],
        ["--events-per-unit", "nan"],
        ["--seasonal", "x" + ",1.5" * 11],
        ["--seasonal", "nan" + ",1.5" * 11],
        ["--seasonal", "1.5" + ",1.5" * 10],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("table", [False, True])
def test_synth_bad_number_exits_2(tmp_path, capsys, option, table):
    code = main(["synth", "--out", str(tmp_path), "--regions", "5", *option] + ["--table"] * table)
    assert code == 2
    assert capsys.readouterr().err.startswith("error [input-error]: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option",
    [["--b", "400"], ["--p-max", "1e308"], ["--events-per-unit", "1e300"]],
    ids=" ".join,
)
def test_synth_overflowing_number_exits_2(tmp_path, capsys, option):
    # finite, but the generator's float weights overflow
    code = main(["synth", "--out", str(tmp_path), "--regions", "5", *option])
    assert code == 2
    assert capsys.readouterr().err.startswith("error [input-error]: parameters out of range: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", ["infer-home", "attractiveness", "temporal", "bin"])
def test_counts_below_one_exit_2(world, tmp_path, capsys, command, value):
    # a config rejects min_events and bins below 1 as input errors; so does
    # the CLI, before it reads any input
    table = tmp_path / "table.csv"
    table.write_text("region_id,population,events,share\nr1,1000,1,0.5\nr2,2000,1,0.5\n")
    events = ["--events", str(world / "events__demo.csv"), "--countries", str(world / "countries__demo.geojson"),
              "--tag", "demo"]
    layer = ["--layer", str(world / "cities__demo.geojson")]
    argv, option = {
        "infer-home": (events, "--min-events"),
        "attractiveness": ([*events, *layer], "--min-events"),
        "temporal": ([*events, *layer], "--min-events"),
        "bin": (["--table", str(table), "--dataset", "d", "--layer", "l"], "-k"),
    }[command]
    code = main([command, *argv, "--out", str(tmp_path / "out"), option, value])
    assert code == 2
    assert capsys.readouterr().err == f"error [input-error]: {option} must be >= 1, got {value}\n"
    assert not (tmp_path / "out").exists()
