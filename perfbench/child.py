"""One run of a workload in a fresh interpreter, timed from inside.

    python3 perfbench/child.py --world DIR/world.json --out DIR --result FILE [--trace | --setup-only]

Set-up (``setup_raw_s``) is importing ``cityattract`` with the modules the
run calls and loading every layer of the workload, which a user pays on each
CLI call.  ``--setup-only`` stops after it, so that set-up can be timed in
more fresh interpreters than the workload runs in.  The run
(``wall_raw_s``) is one ``run_pipeline`` call for w1 and w2, and the whole
CLI chain called through ``cli.main`` for w3.  Peak RSS is this process's
``ru_maxrss`` right after the run.  A fixed reference kernel is timed
before set-up, between set-up and the run, and after the run
(``ref_s``), so that ``run.py`` can scale both times to one machine speed.
The result file gets those numbers, the sha256 of every output file except
the run manifest (which holds wall-clock timestamps), and with ``--trace``
the per-layer report of ``spans.Tracer`` plus one city assignment at one
thread and at ``max(2, nproc)`` threads.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path


def sha256(path: Path) -> str:
    # not cityattract.output.sha256_file: the oracle must not depend on the
    # code it judges
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


REF_PASSES = 24


def reference_pass(lines: list[str]) -> None:
    counts: dict[str, int] = {}
    total = 0.0
    for line in lines:
        _, b, c, user = line.split(",")
        total += float(c) * (int(b) & 7)
        counts[user] = counts.get(user, 0) + 1


def reference_s() -> float:
    """Seconds of a fixed pure-Python kernel that calls none of the program.

    It splits, converts and counts 20,000 CSV-like lines ``REF_PASSES``
    times, after one untimed pass: about 0.35 s here.  Per-event parsing
    and counting is the kind of work the workloads spend most of their time
    on, and the kernel's time tracks the speed this machine runs it at just
    then.  Its 2 MB of lines are freed on return, so they do not add to a
    run's peak RSS.
    """
    lines = [f"{i},{(i * 7919) % 1000003},{(i * 31) % 97}.{i % 13},u{i % 4099}" for i in range(20000)]
    reference_pass(lines)
    t0 = time.perf_counter()
    for _ in range(REF_PASSES):
        reference_pass(lines)
    return time.perf_counter() - t0


def cli_chain(world: dict, out: Path) -> list[list[str]]:
    """The w3 run: every CLI stage in order, each reading the raw events.

    Thread counts stay at their default of 1, so the chain keeps working if
    the ``--threads`` option goes away.
    """
    tag, ev, fmt = world["tag"], world["events"], world["format"]
    cities, countries, target = world["cities"], world["countries"], world["target"]
    events = ["--events", ev, "--format", fmt]
    table = str(out / f"attractiveness__{tag}__{world['city_label']}.csv")
    by_table = ["--table", table, "--dataset", tag, "--layer", world["city_label"], "--out", str(out)]
    return [
        ["ingest", "--input", ev, "--format", fmt, "--tag", tag, "--out", str(out)],
        ["infer-home", *events, "--countries", countries, "--tag", tag, "--out", str(out)],
        ["assign", *events, "--layer", cities, "--tag", tag, "--out", str(out)],
        ["attractiveness", *events, "--layer", cities, "--countries", countries, "--tag", tag,
         "--out", str(out), "--target", target],
        ["fit", *by_table],
        ["bin", *by_table],
        ["residuals", *by_table],
        ["temporal", *events, "--layer", cities, "--countries", countries, "--tag", tag,
         "--out", str(out), "--target", target],
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--world", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.world, "r", encoding="utf-8") as fh:
        world = json.load(fh)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cli_run = world["workload"] == "w3_cli_jsonl"
    config_path = out.parent / f"{out.name}.config.json"
    if not cli_run:
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "event_sources": [{"path": world["events"], "format": world["format"], "dataset_tag": world["tag"]}],
                    "country_layer_path": world["countries"],
                    "city_layer_paths": [world["cities"]],
                    "output_dir": str(out),
                    "target_country": world["target"],
                },
                fh,
            )

    ref_s = [reference_s()]
    t0 = time.perf_counter()
    import cityattract
    import cityattract.cli
    import cityattract.pipeline

    for path in (world["countries"], world["cities"]):
        cityattract.load_layer(path)
    setup_raw_s = time.perf_counter() - t0
    ref_s.append(reference_s())
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_raw_s": setup_raw_s, "ref_s": ref_s, "cityattract_file": cityattract.__file__}, fh)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer  # perfbench/spans.py; the script's directory leads sys.path

        tracer = Tracer(world["country_label"])
        tracer.install()

    if cli_run:
        chain = cli_chain(world, out)
        t0 = time.perf_counter()
        for cmd in chain:
            code = cityattract.cli.main(cmd)
            if code != 0:
                raise SystemExit(f"cli {cmd[0]} exited {code}")
        wall_raw_s = time.perf_counter() - t0
    else:
        config = cityattract.pipeline.load_config(config_path)
        t0 = time.perf_counter()
        cityattract.pipeline.run_pipeline(config)
        wall_raw_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_s.append(reference_s())

    result: dict = {
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": wall_raw_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "cityattract_file": cityattract.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "digests": {
            p.name: sha256(p)
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != "run_manifest.json"
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
        result["trace"]["metrics"].update(thread_comparison(world))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def thread_comparison(world: dict) -> dict:
    """Time one city assignment at 1 thread and at max(2, nproc) threads.

    Without a ``threads`` parameter only the 1-thread time is measured.
    """
    import cityattract

    events, _ = cityattract.parse_events(world["events"], format=world["format"])
    layer = cityattract.load_layer(world["cities"])
    threads = max(2, os.cpu_count() or 1)
    t0 = time.perf_counter()
    one = cityattract.assign_events(events, layer)
    t1 = time.perf_counter()
    if "threads" in inspect.signature(cityattract.assign_events).parameters:
        many = cityattract.assign_events(events, layer, threads=threads)
    else:
        many, threads = one, 1
    t2 = time.perf_counter()
    return {
        "geo.assign_city_1t_s": t1 - t0,
        "geo.assign_city_2t_s": t2 - t1,
        "geo.assign_threads": threads,
        "geo.threads_agree": int(list(one.region_ids) == list(many.region_ids)),
    }


if __name__ == "__main__":
    sys.exit(main())
