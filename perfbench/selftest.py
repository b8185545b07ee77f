"""Self-test of the benchmark on small worlds (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload at its small size it
checks that untraced and traced runs pass the correctness oracle, that
the traced run fires a span for every layer the workload goes through and
reports no missing binding, and that every per-layer metric of
BENCHMARK.json is printed.  It also checks that the w2 polygons put every
city event in the city it was generated for, that the oracle rejects a
wrong count and a wrong ``b``, that times are scaled to the reference
speed as documented, and that the tracer reports a binding that no longer
exists instead of failing.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worlds  # noqa: E402

SEED = 11
PIPELINE_LAYERS = {"events", "geo", "home", "scaling", "temporal", "output", "pipeline"}
EXPECTED_LAYERS = {
    "w1_events": PIPELINE_LAYERS,
    "w2_regions": PIPELINE_LAYERS,
    "w3_cli_jsonl": PIPELINE_LAYERS - {"pipeline"} | {"cli"},
}


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    raise SystemExit(1)


def check_workloads(spec: dict) -> None:
    fired_all: set[str] = set()
    for workload in worlds.WORKLOADS:
        for trace in (False, True):
            bench = run.run_benchmark(workload, SEED, 0.0, trace, small=True)
            result, detail = run.summarize(bench, workload, SEED, trace, spec)
            if not result["correct"]:
                fail(f"{workload} trace={trace}: {detail['problems']}")
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            if list(result["metrics"]) != names:
                fail(f"{workload} trace={trace}: printed {list(result['metrics'])}")
            if trace:
                fired = set(detail["layers_fired"])
                if fired != EXPECTED_LAYERS[workload]:
                    fail(f"{workload}: layers fired {sorted(fired)}")
                if detail["missing_spans"] or detail["count_errors"]:
                    fail(f"{workload}: {detail['missing_spans']} {detail['count_errors']}")
                fired_all |= fired
        print(f"selftest: {workload} ok", file=sys.stderr)
    import spans

    if fired_all != set(spans.LAYERS):
        fail(f"layers never traced: {sorted(set(spans.LAYERS) - fired_all)}")


def check_w2_containment(work: Path) -> None:
    """Every city event lands, by the program's own assignment, in the city
    whose square it was generated in; home anchors land in none."""
    import cityattract

    world = worlds.build("w2_regions", SEED, work / "w2", small=True)
    with open(world["truth"], encoding="utf-8") as fh:
        ids = json.load(fh)["region_ids"]
    cols = worlds.SIZES["w2_regions"]["small"]["grid_cols"]
    events, _ = cityattract.parse_events(world["events"])
    assignment = cityattract.assign_events(events, cityattract.load_layer(world["cities"]))
    for e, rid in zip(events, assignment.region_ids):
        if e.lat >= worlds.CITY_LAT_MAX:
            want = None
        else:
            col = math.floor((e.lon - worlds.GRID_LON0) / worlds.SYNTH_PITCH)
            row = math.floor((e.lat - worlds.GRID_LAT0) / worlds.SYNTH_PITCH)
            want = ids[row * cols + col]
        if rid != want:
            fail(f"w2 event at ({e.lat}, {e.lon}) assigned to {rid}, generated in {want}")
    print(f"selftest: w2 containment ok ({len(events)} events)", file=sys.stderr)


def check_oracle(work: Path) -> None:
    """The oracle accepts outputs equal to the truth and rejects a changed
    count or a changed b."""
    world = worlds.build("w1_events", SEED, work / "w1", small=True)
    with open(world["truth"], encoding="utf-8") as fh:
        truth = json.load(fh)
    out = work / "w1-out"
    out.mkdir()
    tag, lbl = world["tag"], world["city_label"]
    counts = truth["annual_foreign_events"]

    def write(counts: list[int], b: float) -> list[str]:
        with open(out / f"ingest__{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"accepted": truth["total_events"], "rejected": 0, "rejection_reasons": {}}, fh)
        with open(out / f"attractiveness__{tag}__{lbl}.csv", "w", encoding="utf-8") as fh:
            fh.write("region_id,population,events,share\n")
            for rid, pop, c in zip(truth["region_ids"], truth["populations"], counts):
                fh.write(f"{rid},{pop},{c},{c / sum(counts)!r}\n")
        with open(out / f"fit__{tag}__{lbl}.json", "w", encoding="utf-8") as fh:
            json.dump({"b": b}, fh)
        return run.check_outputs(world, truth, out)[0]

    b = run.ols_slope(truth)
    if write(counts, b):
        fail(f"oracle rejects the truth: {write(counts, b)}")
    if not write([counts[0] + 1] + counts[1:], b):
        fail("oracle accepts a wrong count")
    if not write(counts, b + 1e-6):
        fail("oracle accepts a wrong b")
    print("selftest: oracle ok", file=sys.stderr)


def check_scaling() -> None:
    """A child timed at the reference speed keeps its raw times; one whose
    reference ran twice as long has them cut by 2 ** REF_WEIGHT."""
    ref = run.REF_S
    at_speed = {"setup_raw_s": 0.1, "wall_raw_s": 7.0, "ref_s": [ref, ref, ref]}
    slow = {"setup_raw_s": 0.2, "wall_raw_s": 14.0, "ref_s": [2 * ref, 2 * ref, 2 * ref]}
    for record in (at_speed, slow):
        run.scale_to_reference(record)
    if not math.isclose(at_speed["wall_s"], 7.0) or not math.isclose(at_speed["setup_s"], 0.1):
        fail(f"scaling at the reference speed changed the times: {at_speed}")
    cut = 2 ** run.REF_WEIGHT
    if not math.isclose(slow["wall_s"], 14.0 / cut) or not math.isclose(slow["setup_s"], 0.2 / cut):
        fail(f"scaling at half the reference speed: {slow}")
    print("selftest: scaling ok", file=sys.stderr)


def check_missing_binding() -> None:
    import cityattract.pipeline as pipeline
    import spans

    saved = pipeline.origin_map
    del pipeline.origin_map
    try:
        tracer = spans.Tracer("countries")
        tracer.install()
        tracer.uninstall()
    finally:
        pipeline.origin_map = saved
    if tracer.missing != ["cityattract.pipeline.origin_map"]:
        fail(f"missing bindings reported as {tracer.missing}")
    if hasattr(pipeline.compute_attractiveness, "__wrapped__"):
        fail("tracer left a wrapper installed")
    print("selftest: missing binding ok", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = run.load_spec(ROOT)
    work = ROOT / ".bench_build" / "perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_oracle(work)
        check_scaling()
        check_missing_binding()
        check_w2_containment(work)
        check_workloads(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
