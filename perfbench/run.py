"""Benchmark of the cityattract batch job.

    python3 perfbench/run.py --workload w1_events --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  It builds the workload's inputs from the
seed (``worlds.py``), then starts fresh interpreters (``child.py``), one
per run of the workload, until ``--seconds`` have passed (at least
``MIN_RUNS`` runs).  Each run's outputs are checked against the
generator's truth and against the first run's sha256 digests.  Without
tracing, set-up-only interpreters follow, so that ``setup_s`` is the median
of up to ``SETUP_SAMPLES`` set-ups.  Every time is scaled by a reference
kernel timed in the same interpreter around it (``scale_to_reference``),
which takes this machine's changing speed out of the figures.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` count runs, and ``metrics`` holds the end-to-end metrics
of BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
The line before it is a JSON ``detail`` object with quartiles, sample
counts, the environment, and the layer metrics that only some workloads
have.  ``--trace 1`` alternates untraced and traced runs, so the detail
also gives the tracing overhead, and it writes every span to
``.bench_build/perfbench/trace-<workload>-<seed>.json``.

Exits 2 without a result when the checkout has no ``src/cityattract`` or
the inputs cannot be built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worlds import WORKLOADS  # noqa: E402

MIN_RUNS = 3
SETUP_SAMPLES = 9  # set-ups to time per invocation, the runs' own included,
SETUP_EXTRA_S = 6.0  # as far as set-up-only children fit in this many seconds
DEADLINE_S = 165.0  # the whole invocation must end within 180 s
RUN_TIMEOUT_S = 150.0
B_TOLERANCE = 1e-9
# Seconds of child.reference_s() at the speed the times are scaled to,
# about its median on the machine of BASELINE.md.
REF_S = 0.35
# Share of the reference's swing that shows in the timed span: the slope of
# log(time) on log(reference) over runs of the same code (BASELINE.md).
REF_WEIGHT = 0.75


class SetupError(Exception):
    """The benchmark cannot run in this directory (no result is printed)."""


# ---------------------------------------------------------------------------
# correctness oracle


def ols_slope(truth: dict) -> float:
    """OLS slope of log10(share) on log10(population) over the truth counts,
    dropping zero-count regions as the paper's estimator does."""
    counts = truth["annual_foreign_events"]
    total = sum(counts)
    pts = [
        (math.log10(p), math.log10(c / total))
        for p, c in zip(truth["populations"], counts)
        if c > 0
    ]
    xm = math.fsum(x for x, _ in pts) / len(pts)
    ym = math.fsum(y for _, y in pts) / len(pts)
    sxx = math.fsum((x - xm) ** 2 for x, _ in pts)
    sxy = math.fsum((x - xm) * (y - ym) for x, y in pts)
    return sxy / sxx


def check_outputs(world: dict, truth: dict, out: Path) -> tuple[list[str], float | None]:
    """Problems found in one run's outputs, and the fitted b."""
    tag, lbl = world["tag"], world["city_label"]
    problems: list[str] = []
    try:
        with open(out / f"ingest__{tag}.json", encoding="utf-8") as fh:
            ingest = json.load(fh)
        if ingest["accepted"] != world["expected_accepted"]:
            problems.append(f"accepted {ingest['accepted']} != {world['expected_accepted']}")
        if ingest["rejection_reasons"] != world["expected_rejected"]:
            problems.append(f"rejections {ingest['rejection_reasons']} != {world['expected_rejected']}")
        if ingest["rejected"] != sum(world["expected_rejected"].values()):
            problems.append(f"rejected {ingest['rejected']} != injected rows")

        with open(out / f"attractiveness__{tag}__{lbl}.csv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        got = [(r[0], int(r[1]), int(r[2])) for r in rows if r and r[0]]
        want = list(zip(truth["region_ids"], truth["populations"], truth["annual_foreign_events"]))
        if got != want:
            bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
            problems.append(f"attractiveness counts differ from truth in {bad} regions")

        with open(out / f"fit__{tag}__{lbl}.json", encoding="utf-8") as fh:
            b = float(json.load(fh)["b"])
        b_ref = ols_slope(truth)
        if not abs(b - b_ref) <= B_TOLERANCE:
            problems.append(f"fitted b {b!r} != OLS slope of truth counts {b_ref!r}")
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return problems + [f"unreadable output: {exc!r}"], None
    return problems, b


# ---------------------------------------------------------------------------
# runs


def unit_of(name: str) -> str:
    """Unit of a detail-line metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "1" if name == "b_abs_err" else "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env(root: Path, base: Path) -> dict:
    """Environment of the children: the checkout's ``src`` first on the path,
    bytecode cached under ``base`` (so set-up imports compiled modules, as
    an installed package does, whatever the caller's settings), and one
    BLAS thread.  The allocator keeps its default settings.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(base / "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, timeout: float) -> tuple[bool, str]:
    """Run one child to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        lines = (proc.stderr or "").strip().splitlines()
        return False, lines[-1] if lines else f"exit {proc.returncode}"
    return True, ""


def child_run(flags: list[str], out: Path, env: dict, left: float, root: Path) -> dict:
    """One ``child.py`` run writing to ``out``; its record, with the
    problems found before the outputs are checked."""
    res_path = out.parent / f"{out.name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--world", str(out.parent / "world" / "world.json"),
           "--out", str(out), "--result", str(res_path)] + flags
    t0 = time.monotonic()
    ok, err = run_child(cmd, env, min(RUN_TIMEOUT_S, max(left, 1.0)))
    record: dict = {
        "traced": "--trace" in flags,
        "setup_only": "--setup-only" in flags,
        "duration": time.monotonic() - t0,
        "problems": [],
    }
    if not ok:
        record["problems"].append(f"run raised: {err}")
        return record
    with open(res_path, encoding="utf-8") as fh:
        record.update(json.load(fh))
    src = str((root / "src").resolve())
    if not str(Path(record["cityattract_file"]).resolve()).startswith(src):
        record["problems"].append(f"imported {record['cityattract_file']}, not {src}")
    scale_to_reference(record)
    return record


def scale_to_reference(record: dict) -> None:
    """Add ``setup_s`` and ``wall_s``: the child's raw times at the speed
    where the reference kernel takes ``REF_S``.

    Each time is multiplied by ``(REF_S / ref) ** REF_WEIGHT``, where
    ``ref`` is the mean of the two reference times that bracket it in the
    same process.  The program's code does not enter ``ref``, so a slower
    program still gives larger figures, while a spell in which the machine
    runs everything slower mostly drops out.  The weight is below 1 because
    a 0.35 s reference also catches the machine's sub-second swings, which
    a whole run averages out.
    """
    ref = record["ref_s"]
    record["setup_s"] = record["setup_raw_s"] * (REF_S / ((ref[0] + ref[1]) / 2)) ** REF_WEIGHT
    if "wall_raw_s" in record:
        record["wall_s"] = record["wall_raw_s"] * (REF_S / ((ref[1] + ref[2]) / 2)) ** REF_WEIGHT


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
) -> dict:
    """Build the workload, run it, check it; return the raw run records."""
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "cityattract" / "__init__.py").is_file():
        raise SetupError(f"no src/cityattract under {root}; run from the root of a checkout")
    base = root / ".bench_build" / "perfbench"
    work = base / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root, base)
    try:
        ok, err = run_child(
            [sys.executable, str(HERE / "worlds.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(work / "world")] + (["--small"] if small else []),
            env, DEADLINE_S,
        )
        if not ok:
            raise SetupError(f"cannot build {workload} inputs: {err}")
        with open(work / "world" / "world.json", encoding="utf-8") as fh:
            world = json.load(fh)
        with open(world["truth"], encoding="utf-8") as fh:
            truth = json.load(fh)

        runs: list[dict] = []
        reference: dict | None = None
        measure_start = time.monotonic()
        while True:
            traced = trace and len(runs) % 2 == 1
            elapsed = time.monotonic() - measure_start
            durations = [r["duration"] for r in runs]
            typical = statistics.median(durations) if durations else 0.0
            enough = len(runs) >= (2 if trace else MIN_RUNS)
            if enough and elapsed + typical > seconds:
                break
            left = DEADLINE_S - (time.monotonic() - started)
            if runs and left < 1.5 * max(durations):
                break
            out = work / f"run{len(runs)}"
            record = child_run(["--trace"] if traced else [], out, env, left, root)
            if not record["problems"]:
                problems, record["b"] = check_outputs(world, truth, out)
                record["problems"] += problems
                if reference is None:
                    reference = record["digests"]
                elif record["digests"] != reference:
                    differ = sorted(
                        n for n in set(reference) | set(record["digests"])
                        if reference.get(n) != record["digests"].get(n)
                    )
                    record["problems"].append(f"outputs differ from the first run: {differ}")
                if traced and not record["trace"]["metrics"].get("geo.threads_agree"):
                    record["problems"].append("city assignment differs between 1 and N threads")
            shutil.rmtree(out, ignore_errors=True)
            runs.append(record)

        # set-up is short and its noise large, so time more set-ups than
        # runs; cheap on w1 and w3, about two more on w2
        setups_start = time.monotonic()
        while (
            not trace
            and sum("setup_s" in r for r in runs) < SETUP_SAMPLES
            and time.monotonic() - setups_start < SETUP_EXTRA_S
        ):
            left = DEADLINE_S - (time.monotonic() - started)
            if left < 2 * SETUP_EXTRA_S:
                break
            out = work / f"run{len(runs)}"
            runs.append(child_run(["--setup-only"], out, env, left, root))
            shutil.rmtree(out, ignore_errors=True)
        return {"world": world, "truth": truth, "runs": runs, "base": base}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(bench: dict, workload: str, seed: int, trace: bool, spec: dict) -> tuple[dict, dict]:
    """The result line (metrics named in BENCHMARK.json) and the detail line."""
    world, truth, runs = bench["world"], bench["truth"], bench["runs"]
    failed = [r for r in runs if r["problems"]]
    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    setups = [r["setup_s"] for r in runs if not r["traced"] and "setup_s" in r]
    traced = [r for r in timed if r["traced"]]
    fits = [r["b"] for r in runs if r.get("b") is not None]
    b_abs_err = abs(fits[0] - truth["b_true"]) if fits else None
    detail: dict = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "events_accepted": world["expected_accepted"],
        "rows_rejected": sum(world["expected_rejected"].values()),
        "regions": len(truth["region_ids"]),
        "runs": sum(not r["setup_only"] for r in runs),
        "setup_only_runs": sum(r["setup_only"] for r in runs),
        "problems": sorted({p for r in failed for p in r["problems"]}),
        "b_true": truth["b_true"],
        "env": {
            "python": timed[0].get("python") if timed else None,
            "numpy": timed[0].get("numpy") if timed else None,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
    }
    extra: dict[str, float] = {"failed_run_ratio": len(failed) / len(runs)}
    if b_abs_err is not None:
        extra["b_abs_err"] = b_abs_err
    untraced = [r for r in runs if not r["traced"] and "ref_s" in r]
    samples_of = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "wall_raw_s": [r["wall_raw_s"] for r in plain],
        "setup_raw_s": [r["setup_raw_s"] for r in untraced],
        "ref_s": [t for r in untraced for t in r["ref_s"]],
    }
    for key, samples in samples_of.items():
        if samples:
            q1, med, q3 = quartiles(samples)
            detail[key] = {"median": med, "q1": q1, "q3": q3, "n": len(samples), "unit": unit_of(key)}
    values: dict[str, float] = {}
    if not trace:
        wall = detail.get("wall_s", {}).get("median", float("nan"))
        values = {
            "wall_s": wall,
            "events_per_s": world["expected_accepted"] / wall,
            "peak_rss_mb": detail.get("peak_rss_mb", {}).get("median", float("nan")),
            "setup_s": detail.get("setup_s", {}).get("median", float("nan")),
        }
        names = spec["end_to_end"]
    else:
        layer = {}
        for key in traced[0]["trace"]["metrics"] if traced else ():
            layer[key] = statistics.median(r["trace"]["metrics"][key] for r in traced)
        layer["b_abs_err"] = b_abs_err
        if traced and plain:
            overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in plain
            )
            extra["trace_overhead_s"] = overhead
            extra["trace_overhead_share"] = overhead / statistics.median(r["wall_s"] for r in plain)
        if traced:
            detail["layers_fired"] = traced[0]["trace"]["layers_fired"]
            detail["missing_spans"] = traced[0]["trace"]["missing"]
            detail["count_errors"] = traced[0]["trace"]["count_errors"]
        names = spec["per_layer"]
        declared = {m["name"] for m in names}
        extra.update((k, v) for k, v in layer.items() if k not in declared)
        values = layer
    detail["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(extra.items())}
    metrics = {}
    for m in names:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or v != v:
            v = 0.0  # no successful run measured it; ``correct`` is false then
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed), "metrics": metrics}
    return result, detail


def write_trace(bench: dict, workload: str, seed: int) -> Path | None:
    traced = [r for r in bench["runs"] if r.get("trace")]
    if not traced:
        return None
    path = bench["base"] / f"trace-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [{"run": i, "wall_s": r["wall_s"], **r["trace"]} for i, r in enumerate(traced)], fh
        )
    return path


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark raises SystemExit here, and subprocess.run then
    # kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        spec = load_spec(root)
        bench = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, detail = summarize(bench, args.workload, args.seed, bool(args.trace), spec)
    trace_path = write_trace(bench, args.workload, args.seed)
    if trace_path is not None:
        detail["trace_file"] = str(trace_path.relative_to(root))
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
