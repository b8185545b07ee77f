"""Build the input files of one benchmark workload from a seed.

Run as a script in its own process, with the checkout's ``src`` on
PYTHONPATH, so that the measuring process never holds a generated world
in memory (a forked child inherits its parent's peak RSS):

    python3 perfbench/worlds.py --workload w1_events --seed 7 --out DIR [--small]

Every world starts from the package's own ``synth`` command, called
through ``cityattract.cli.main``, so its ground truth (``truth__*.json``)
judges the run.  The w2 and w3 builders then rewrite the generated files
with the standard library only.  ``DIR/world.json`` describes the result:
input paths, the layer labels, and the ingest counts the program must
report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
from pathlib import Path

TARGET = "ES"
CITY_LABEL = "cities"
COUNTRY_LABEL = "countries"

# Shared generator settings: the ROADMAP baseline world's exponent, noise
# and resident share.
SYNTH_COMMON = ["--b", "1.5", "--sigma", "0.2", "--resident-share", "0.2", "--target", TARGET]

# Per workload: synth arguments, full and small.  The small sizes feed the
# self-test; they run the same builders on a few thousand events.
SIZES = {
    "w1_events": {
        "full": {"regions": 60, "events_total": 200000},
        "small": {"regions": 60, "events_total": 3000},
    },
    "w2_regions": {
        "full": {"regions": 2000, "events_total": 50000, "grid_cols": 100},
        "small": {"regions": 200, "events_total": 3000, "grid_cols": 20},
    },
    "w3_cli_jsonl": {
        "full": {"regions": 60, "events_total": 50000},
        "small": {"regions": 60, "events_total": 3000},
    },
}
WORKLOADS = tuple(SIZES)

# synth places its city squares (side 0.2 deg, pitch 0.3 deg) in one row at
# lat 40 starting at lon 0; foreign-country squares sit near lat 50.
SYNTH_SIDE = 0.2
SYNTH_PITCH = 0.3
SYNTH_CITY_LAT = 40.0
CITY_LAT_MAX = 45.0  # every synth city event lies below this latitude

# w2 grid: cities at 0.3 deg pitch from this corner, inside a target
# polygon that covers the grid with a 1 deg margin.
GRID_LON0 = -15.0
GRID_LAT0 = 30.0
GRID_VERTICES = 256
# Circumradius of the n-gon whose inscribed circle passes 0.1% outside the
# square's corners; at 0.3 deg pitch neighbouring circles stay 0.017 deg apart.
GRID_MARGIN = 1.001

# w3 dirt: ~5% of the lines are injected bad rows, split evenly over the
# four rejection reasons; ~30% of foreign users declare their true origin.
BAD_SHARE = 0.05
DECLARE_SHARE = 0.3
BAD_REASONS = ("bad json", "bad timestamp", "lat out of range", "missing field")
BAD_TIMESTAMPS = ("2012-13-01T00:00:00Z", "2012-06-01T12:00:00+02:00", "not-a-time")


def synth(out: Path, seed: int, tag: str, regions: int, events_total: int) -> None:
    from cityattract.cli import main as cli_main

    argv = [
        "synth", "--out", str(out), "--seed", str(seed), "--tag", tag,
        "--regions", str(regions), "--events-total", str(events_total), *SYNTH_COMMON,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"synth failed: {' '.join(argv)}")


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def write_csv_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def square_feature(code: str, lon0: float, lat0: float, lon1: float, lat1: float) -> dict:
    ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
    return {
        "type": "Feature",
        "properties": {"id": code, "name": code, "layer": COUNTRY_LABEL},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def ngon_ring(clon: float, clat: float, radius: float, n: int) -> list[list[float]]:
    ring = [
        [clon + radius * math.cos(2.0 * math.pi * k / n), clat + radius * math.sin(2.0 * math.pi * k / n)]
        for k in range(n)
    ]
    ring.append(ring[0])
    return ring


def build_w2(out: Path, tag: str, grid_cols: int) -> None:
    """Move synth's row of cities onto a grid and swap squares for n-gons.

    synth lays its cities in one row at 0.3 deg pitch, which runs past lon
    180 above 600 regions; the grid keeps 2,000 cities inside valid
    coordinates.  Each city's events move with its square, so the truth
    counts stay valid.  Every moved event is checked to lie within the
    inscribed circle of its city's polygon, which proves containment.
    """
    truth = read_json(out / f"truth__{tag}.json")
    n = len(truth["region_ids"])
    rows_n = -(-n // grid_cols)
    centers = []
    offsets = []  # (dlon, dlat) added to every event of city i
    for i in range(n):
        col, row = i % grid_cols, i // grid_cols
        lon0 = GRID_LON0 + col * SYNTH_PITCH
        lat0 = GRID_LAT0 + row * SYNTH_PITCH
        offsets.append((lon0 - i * SYNTH_PITCH, lat0 - SYNTH_CITY_LAT))
        centers.append((lon0 + SYNTH_SIDE / 2.0, lat0 + SYNTH_SIDE / 2.0))
    half_diag = SYNTH_SIDE / 2.0 * math.sqrt(2.0)
    inradius = half_diag * GRID_MARGIN
    radius = inradius / math.cos(math.pi / GRID_VERTICES)

    header, rows = read_csv_rows(out / f"events__{tag}.csv")
    ilat, ilon = header.index("lat"), header.index("lon")
    for row in rows:
        lat, lon = float(row[ilat]), float(row[ilon])
        if lat >= CITY_LAT_MAX:
            continue  # home anchor in a foreign country; stays put
        i = math.floor(lon / SYNTH_PITCH)
        dlon, dlat = offsets[i]
        lat, lon = lat + dlat, lon + dlon
        clon, clat = centers[i]
        if math.hypot(lon - clon, lat - clat) >= inradius:
            raise SystemExit(f"w2 builder: event at ({lat}, {lon}) escapes city {i}")
        row[ilat], row[ilon] = repr(lat), repr(lon)
    write_csv_rows(out / f"events__{tag}.csv", header, rows)

    cities = {
        "type": "FeatureCollection",
        "name": CITY_LABEL,
        "features": [
            {
                "type": "Feature",
                "properties": {"id": rid, "name": f"City {rid}", "layer": CITY_LABEL, "population": pop},
                "geometry": {"type": "Polygon", "coordinates": [ngon_ring(*centers[i], radius, GRID_VERTICES)]},
            }
            for i, (rid, pop) in enumerate(zip(truth["region_ids"], truth["populations"]))
        ],
    }
    write_json(out / f"cities__{tag}.geojson", cities)

    countries = read_json(out / f"countries__{tag}.geojson")
    foreign = [f for f in countries["features"] if f["properties"]["id"] != TARGET]
    target = square_feature(
        TARGET,
        GRID_LON0 - 1.0,
        GRID_LAT0 - 1.0,
        GRID_LON0 + grid_cols * SYNTH_PITCH + 1.0,
        GRID_LAT0 + rows_n * SYNTH_PITCH + 1.0,
    )
    countries["features"] = [target] + foreign
    write_json(out / f"countries__{tag}.geojson", countries)


def foreign_homes(rows: list[list[str]], header: list[str], countries: dict) -> dict[str, str]:
    """Each foreign user's home country, read off their anchor events,
    which synth places inside the home country's square."""
    iu, ilat, ilon = header.index("user_id"), header.index("lat"), header.index("lon")
    boxes = []
    for feat in countries["features"]:
        code = feat["properties"]["id"]
        if code == TARGET:
            continue
        ring = feat["geometry"]["coordinates"][0]
        lons = [p[0] for p in ring]
        lats = [p[1] for p in ring]
        boxes.append((code, min(lats), min(lons), max(lats), max(lons)))
    homes: dict[str, str] = {}
    for row in rows:
        lat, lon = float(row[ilat]), float(row[ilon])
        for code, la0, lo0, la1, lo1 in boxes:
            if la0 <= lat <= la1 and lo0 <= lon <= lo1:
                homes[row[iu]] = code
                break
    return homes


def build_w3(out: Path, tag: str, seed: int) -> dict[str, int]:
    """Rewrite the CSV as JSONL with injected bad rows and declared origins.

    Returns the number of injected rows per rejection reason.  Declared
    origins equal the users' true homes, so the truth counts still hold.
    """
    rng = random.Random(seed * 1_000_003 + 3)
    header, rows = read_csv_rows(out / f"events__{tag}.csv")
    homes = foreign_homes(rows, header, read_json(out / f"countries__{tag}.geojson"))
    declaring = {uid for uid in sorted(homes) if rng.random() < DECLARE_SHARE}
    rejected = {reason: 0 for reason in BAD_REASONS}
    bad_rate = BAD_SHARE / (1.0 - BAD_SHARE)
    with open(out / f"events__{tag}.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            obj = dict(zip(header, row))
            obj["lat"] = float(obj["lat"])
            obj["lon"] = float(obj["lon"])
            if obj["user_id"] in declaring:
                obj["origin_country"] = homes[obj["user_id"]]
            else:
                del obj["origin_country"]
            if rng.random() < bad_rate:
                reason = BAD_REASONS[int(rng.random() * len(BAD_REASONS))]
                bad = dict(obj)
                if reason == "bad timestamp":
                    bad["timestamp"] = BAD_TIMESTAMPS[int(rng.random() * len(BAD_TIMESTAMPS))]
                elif reason == "lat out of range":
                    bad["lat"] = 90.5 + 9.0 * rng.random()
                elif reason == "missing field":
                    del bad["user_id"]
                line = json.dumps(bad, separators=(",", ":"))
                if reason == "bad json":
                    line = line[: len(line) // 2]  # a cut-off object never parses
                fh.write(line + "\n")
                rejected[reason] += 1
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    (out / f"events__{tag}.csv").unlink()
    return {reason: n for reason, n in rejected.items() if n}


def build(workload: str, seed: int, out: Path, small: bool = False) -> dict:
    """Generate one workload's inputs under ``out``; return its description."""
    size = SIZES[workload]["small" if small else "full"]
    tag = workload.split("_")[0]
    out.mkdir(parents=True, exist_ok=True)
    synth(out, seed, tag, size["regions"], size["events_total"])
    rejected: dict[str, int] = {}
    events = out / f"events__{tag}.csv"
    fmt = "csv"
    if workload == "w2_regions":
        build_w2(out, tag, size["grid_cols"])
    elif workload == "w3_cli_jsonl":
        rejected = build_w3(out, tag, seed)
        events, fmt = out / f"events__{tag}.jsonl", "jsonl"
    truth = read_json(out / f"truth__{tag}.json")
    world = {
        "workload": workload,
        "seed": seed,
        "small": small,
        "tag": tag,
        "events": str(events.resolve()),
        "format": fmt,
        "countries": str((out / f"countries__{tag}.geojson").resolve()),
        "cities": str((out / f"cities__{tag}.geojson").resolve()),
        "country_label": COUNTRY_LABEL,
        "city_label": CITY_LABEL,
        "target": TARGET,
        "truth": str((out / f"truth__{tag}.json").resolve()),
        "expected_accepted": truth["total_events"],
        "expected_rejected": rejected,
    }
    write_json(out / "world.json", world)
    return world


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)
    build(args.workload, args.seed, Path(args.out), small=args.small)
    return 0


if __name__ == "__main__":
    sys.exit(main())
