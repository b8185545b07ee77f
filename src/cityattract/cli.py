"""Command-line interface.

Every pipeline stage is its own subcommand so each step can be run and
inspected in isolation; `pipeline` chains them from a JSON config.  All
outputs are deterministic files under --out; exit status is 2 for bad
inputs or config, 1 for a failed stage, 0 on success.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from . import __version__, pipeline
from .events import EventTable, IngestReport, write_events_csv
from .geo import Assignment, RegionLayer, write_assignments_csv, write_layer_geojson
from .output import dumps_stable, write_text
from .pipeline import PipelineConfig, PipelineError
from .scaling import foreign_counts, table_to_csv
from .synthetic import (
    SyntheticSpec,
    events_per_unit_for_total,
    generate_events,
    generate_table,
)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# Results kept for scripts that call main() more than once in a process:
# stage name -> (key, result).  "events" holds the last successful parse,
# keyed by the file's sha256, format and strictness, so a file rewritten in
# place is parsed again; "origins" and "assign" hold the latest result on
# that table, keyed by the content of their other inputs.  A new parse
# drops them all, so the process keeps at most one table alive.
_memo: dict[str, tuple] = {}


def _memoized(stage: str, key, compute: Callable, events: EventTable | None = None):
    """``compute()``, or the result it gave before for ``stage`` and
    ``key``; nothing is kept when it raises.  A stage on ``events`` other
    than the memoized table is computed afresh and not kept."""
    if stage == "events":
        if _memo.get(stage, (None,))[0] != key:
            _memo.clear()
    elif _memo.get("events", (None, (None,)))[1][0] is not events:
        return compute()
    held = _memo.pop(stage, None)
    if held is None or held[0] != key:
        held = (key, compute())
    _memo[stage] = held
    return held[1]


def _layer_key(layer: RegionLayer) -> tuple:
    """The content assignment depends on: region ids and geometry, in order."""
    return tuple(
        (region.id, tuple((outer.tobytes(), *(hole.tobytes() for hole in holes)) for outer, holes in region.polygons))
        for region in layer.regions
    )


def _read_events(args, path: str) -> tuple[EventTable, IngestReport]:
    """The events at ``path``, parsed once per content, format and
    strictness; the report is a fresh copy."""
    key = (pipeline.sha256_file(path), args.format, args.strict)
    events, report = _memoized("events", key, lambda: pipeline.read_events(path, args.format, args.tag, args.strict))
    return events, replace(report, rejection_reasons=dict(report.rejection_reasons))


def _inputs(args, *layer_paths: str):
    """Check that the events and layers exist, load the layers, then read
    the events."""
    pipeline.require_files([args.events, *layer_paths])
    layers = [pipeline.read_layer(p) for p in layer_paths]
    events, _ = _read_events(args, args.events)
    return events, layers


def _origins(args, events: EventTable, country_layer: RegionLayer):
    key = (_layer_key(country_layer), args.min_events)
    return _memoized("origins", key, lambda: pipeline.resolve_origins(events, country_layer, args.min_events), events)


def _assignment(events: EventTable, layer: RegionLayer) -> Assignment:
    return _memoized("assign", _layer_key(layer), lambda: pipeline.assign_events(events, layer), events)


def _foreign_counts(args):
    """Read the events and count foreign visitors per region and month."""
    events, (layer, country_layer) = _inputs(args, args.layer, args.countries)
    origins, _, _ = _origins(args, events, country_layer)
    return foreign_counts(events, _assignment(events, layer), origins, layer, args.target, dataset_tag=args.tag)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    pipeline.require_files([args.input])
    events, report = _read_events(args, args.input)
    out = _out_dir(args)
    path = out / pipeline.output_name("events", args.tag)
    write_events_csv(events, path)
    pipeline.write_ingest_report(out, args.tag, report)
    print(f"accepted {report.accepted}, rejected {report.rejected} -> {path}")
    return 0


def _cmd_infer_home(args) -> int:
    events, (country_layer,) = _inputs(args, args.countries)
    _, homes, _ = _origins(args, events, country_layer)
    out = _out_dir(args)
    pipeline.write_homes(out, args.tag, homes)
    print(f"inferred homes for {len(homes)} users -> {out / pipeline.output_name('homes', args.tag)}")
    return 0


def _cmd_assign(args) -> int:
    events, (layer,) = _inputs(args, args.layer)
    assignment = _assignment(events, layer)
    out = _out_dir(args)
    path = out / pipeline.output_name("assign", args.tag, layer.label)
    write_assignments_csv(assignment, path)
    print(
        f"assigned {len(events) - assignment.unassigned}/{len(events)} events "
        f"({assignment.overlap_events} overlaps) -> {path}"
    )
    return 0


def _cmd_attractiveness(args) -> int:
    counts = _foreign_counts(args)
    out = _out_dir(args)
    table = pipeline.write_attractiveness(out, counts)
    path = out / pipeline.output_name("attractiveness", table.dataset_tag, table.layer)
    print(f"{table.total_events} foreign events over {len(table.rows)} regions -> {path}")
    return 0


def _cmd_fit(args) -> int:
    table = pipeline.read_table(args.table, args.dataset, args.layer)
    out = _out_dir(args)
    fit = pipeline.write_fit(out, table)
    path = out / pipeline.output_name("fit", args.dataset, args.layer, "json")
    print(f"b = {fit.b:.6g} (r2 = {fit.r2:.6g}, n = {fit.n}) -> {path}")
    return 0


def _cmd_bin(args) -> int:
    table = pipeline.read_table(args.table, args.dataset, args.layer)
    out = _out_dir(args)
    trend = pipeline.write_binned(out, table, args.k)
    path = out / pipeline.output_name("binned", args.dataset, args.layer)
    print(f"{len(trend.bins)} non-empty of {trend.k} bins -> {path}")
    return 0


def _cmd_residuals(args) -> int:
    table = pipeline.read_table(args.table, args.dataset, args.layer)
    fit = pipeline.fit_table(table)
    out = _out_dir(args)
    scores = pipeline.write_residuals(out, table, fit)
    print(f"{len(scores)} residuals -> {out / pipeline.output_name('residuals', args.dataset, args.layer)}")
    return 0


def _cmd_temporal(args) -> int:
    counts = _foreign_counts(args)
    out = _out_dir(args)
    windows = pipeline.write_temporal(out, counts)
    print(
        f"mean b = {windows.mean_b:.6g}, {windows.insufficient} insufficient windows "
        f"-> {out / pipeline.output_name('temporal', args.tag, windows.layer)}"
    )
    return 0


def _cmd_correlate(args) -> int:
    pairs: dict[str, str] = {}
    for item in args.pair:
        tag, sep, path = item.partition("=")
        if not sep or not tag or not path:
            raise PipelineError("input-error", f"--pair must look like TAG=PATH, got {item!r}")
        if tag in pairs:
            raise PipelineError("input-error", f"duplicate tag in --pair: {tag}")
        pairs[tag] = path
    if len(pairs) < 2:
        raise PipelineError("input-error", "need at least two --pair arguments")
    scores = {(tag, args.layer_label): pipeline.read_residuals(path) for tag, path in pairs.items()}
    out = _out_dir(args)
    pipeline.write_correlations(out, list(pairs), [args.layer_label], scores, strict=True)
    n = len(pairs)
    print(f"{n * (n - 1) // 2} correlations -> {out / 'correlations.csv'}")
    return 0


def _cmd_synth(args) -> int:
    try:
        seasonal = tuple(float(p) for p in args.seasonal.split(",")) if args.seasonal else None
        spec = SyntheticSpec(
            n_regions=args.regions,
            p_min=args.p_min,
            p_max=args.p_max,
            b_true=args.b,
            noise_sigma=args.sigma,
            events_per_unit=args.events_per_unit,
            seed=args.seed,
            seasonal_b=seasonal,
            resident_share=args.resident_share,
            target_country=args.target,
        )
        if args.events_total is not None:
            spec = events_per_unit_for_total(spec, args.events_total)
        if args.table:
            table, truth = generate_table(spec, dataset_tag=args.tag)
        else:
            bundle = generate_events(spec, year=args.year, dataset_tag=args.tag)
    except ValueError as exc:
        raise PipelineError("input-error", str(exc)) from exc
    except OverflowError as exc:  # finite parameters whose weights exceed a float
        raise PipelineError("input-error", f"parameters out of range: {exc}") from exc
    out = _out_dir(args)

    def path(stage: str, ext: str = "csv") -> Path:
        return out / pipeline.output_name(stage, args.tag, ext=ext)

    if args.table:
        write_text(path("table"), table_to_csv(table))
        write_text(path("truth", "json"), dumps_stable(truth))
        print(f"{len(table.rows)} regions -> {path('table')}")
    else:
        write_events_csv(bundle.events, path("events"))
        write_layer_geojson(bundle.city_layer, path("cities", "geojson"))
        write_layer_geojson(bundle.country_layer, path("countries", "geojson"))
        write_text(path("truth", "json"), dumps_stable(bundle.truth))
        print(f"{len(bundle.events)} events -> {path('events')}")
    return 0


def _cmd_pipeline(args) -> int:
    pipeline.require_files([args.config])
    config = pipeline.load_config(args.config)
    manifest = pipeline.run_pipeline(config, strict=args.strict)
    print(f"wrote {len(manifest['outputs']) + 1} files to {config.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one option, for ``parents=``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cityattract",
        description="City attractiveness scaling analysis from geotagged events.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each listed in their order
    out = _option("--out", required=True)
    tag = _option("--tag", required=True, help="dataset tag")
    layer = _option("--layer", required=True)
    events = _option("--events", required=True)
    countries = _option("--countries", required=True, help="country-layer GeoJSON")
    target = _option("--target", default=PipelineConfig.target_country, help="target country code")
    min_events = _option("--min-events", type=int, default=PipelineConfig.min_events)
    table = _option("--table", required=True)
    dataset = _option("--dataset", required=True)
    event_format = argparse.ArgumentParser(add_help=False)
    event_format.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="event file format")
    event_format.add_argument("--strict", action="store_true", help="fail on the first malformed record")

    def command(name: str, func: Callable, help: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    command("ingest", _cmd_ingest, "parse raw events into canonical CSV plus a report",
            _option("--input", required=True), tag, out, event_format)
    command("infer-home", _cmd_infer_home, "infer each user's home country",
            events, countries, tag, out, min_events, event_format)
    command("assign", _cmd_assign, "assign events to regions of one layer", events, layer, tag, out, event_format)
    command("attractiveness", _cmd_attractiveness, "per-region foreign-visitor shares",
            events, layer, countries, tag, out, target, min_events, event_format)
    command("fit", _cmd_fit, "fit the power law on an attractiveness table", table, dataset, layer, out)
    p = command("bin", _cmd_bin, "log-bin an attractiveness table", table, dataset, layer, out)
    p.add_argument("-k", type=int, default=PipelineConfig.bins, help="number of bins")
    command("residuals", _cmd_residuals, "residual scores and scatter data", table, dataset, layer, out)
    command("temporal", _cmd_temporal, "scaling exponent over moving 3-month windows",
            events, layer, countries, tag, out, target, min_events, event_format)

    command("correlate", _cmd_correlate, "correlate residual rankings across datasets",
            _option("--pair", action="append", required=True, metavar="TAG=PATH",
                    help="dataset tag and its residuals CSV; repeat 2+ times"),
            _option("--layer-label", default="layer"), out)

    p = command("synth", _cmd_synth, "generate synthetic ground-truth data", out, target)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regions", type=int, default=30)
    p.add_argument("--p-min", type=float, default=1e4)
    p.add_argument("--p-max", type=float, default=1e6)
    p.add_argument("--b", type=float, default=1.5)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--events-per-unit", type=float, default=1e-4)
    p.add_argument("--events-total", type=int, default=None,
                   help="rescale so expected foreign city events equal this")
    p.add_argument("--resident-share", type=float, default=0.0)
    p.add_argument("--seasonal", default=None, help="12 comma-separated monthly exponents")
    p.add_argument("--year", type=int, default=2012)
    p.add_argument("--tag", default="synthetic")
    p.add_argument("--table", action="store_true", help="emit a share table instead of events")

    p = command("pipeline", _cmd_pipeline, "run every stage from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--strict", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, flag in (("min_events", "--min-events"), ("k", "-k")):  # as a config's min_events, bins
            if getattr(args, dest, 1) < 1:
                raise PipelineError("input-error", f"{flag} must be >= 1, got {getattr(args, dest)}")
        return args.func(args)
    except PipelineError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 2 if exc.stage == "input-error" else 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
