"""Command-line interface.

Every pipeline stage is its own subcommand so each step can be run and
inspected in isolation; `pipeline` chains them from a JSON config.  All
outputs are deterministic files under --out; exit status is 2 for bad
inputs or config, 1 for a failed stage, 0 on success.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, pipeline
from .events import write_events_csv
from .geo import write_assignments_csv, write_layer_geojson
from .output import dumps_stable, write_text
from .pipeline import PipelineError
from .scaling import table_to_csv
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


def _inputs(args, *layer_paths: str):
    """Check that the events and layers exist, load the layers, then read
    the events."""
    pipeline.require_files([args.events, *layer_paths])
    layers = [pipeline.read_layer(p) for p in layer_paths]
    events, _ = pipeline.read_events(args.events, args.format, args.tag, args.strict)
    return events, layers


def _foreign_counts(args):
    """Read the events and count foreign visitors per region and month."""
    events, (layer, country_layer) = _inputs(args, args.layer, args.countries)
    origins, _, _ = pipeline.resolve_origins(events, country_layer, args.min_events)
    return pipeline.count_foreign(events, layer, origins, args.target, args.tag)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    pipeline.require_files([args.input])
    events, report = pipeline.read_events(args.input, args.format, args.tag, args.strict)
    out = _out_dir(args)
    path = out / pipeline.output_name("events", args.tag)
    write_events_csv(events, path)
    pipeline.write_ingest_report(out, args.tag, report)
    print(f"accepted {report.accepted}, rejected {report.rejected} -> {path}")
    return 0


def _cmd_infer_home(args) -> int:
    events, (country_layer,) = _inputs(args, args.countries)
    _, homes, _ = pipeline.resolve_origins(events, country_layer, args.min_events)
    out = _out_dir(args)
    pipeline.write_homes(out, args.tag, homes)
    print(f"inferred homes for {len(homes)} users -> {out / pipeline.output_name('homes', args.tag)}")
    return 0


def _cmd_assign(args) -> int:
    events, (layer,) = _inputs(args, args.layer)
    assignment = pipeline.assign_layer(events, layer)
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
    tag = pipeline.slug(args.tag)
    if args.table:
        write_text(out / f"table__{tag}.csv", table_to_csv(table))
        write_text(out / f"truth__{tag}.json", dumps_stable(truth))
        print(f"{len(table.rows)} regions -> {out / f'table__{tag}.csv'}")
    else:
        write_events_csv(bundle.events, out / f"events__{tag}.csv")
        write_layer_geojson(bundle.city_layer, out / f"cities__{tag}.geojson")
        write_layer_geojson(bundle.country_layer, out / f"countries__{tag}.geojson")
        write_text(out / f"truth__{tag}.json", dumps_stable(bundle.truth))
        print(f"{len(bundle.events)} events -> {out / f'events__{tag}.csv'}")
    return 0


def _cmd_pipeline(args) -> int:
    pipeline.require_files([args.config])
    config = pipeline.load_config(args.config)
    manifest = pipeline.run_pipeline(config, strict=args.strict)
    print(f"wrote {len(manifest['outputs']) + 1} files to {config.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_event_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="event file format")
    p.add_argument("--strict", action="store_true", help="fail on the first malformed record")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cityattract",
        description="City attractiveness scaling analysis from geotagged events.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw events into canonical CSV plus a report")
    p.add_argument("--input", required=True)
    p.add_argument("--tag", required=True, help="dataset tag")
    p.add_argument("--out", required=True)
    _add_event_opts(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("infer-home", help="infer each user's home country")
    p.add_argument("--events", required=True)
    p.add_argument("--countries", required=True, help="country-layer GeoJSON")
    p.add_argument("--tag", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-events", type=int, default=1)
    _add_event_opts(p)
    p.set_defaults(func=_cmd_infer_home)

    p = sub.add_parser("assign", help="assign events to regions of one layer")
    p.add_argument("--events", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--out", required=True)
    _add_event_opts(p)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("attractiveness", help="per-region foreign-visitor shares")
    p.add_argument("--events", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--countries", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", default="ES", help="target country code")
    p.add_argument("--min-events", type=int, default=1)
    _add_event_opts(p)
    p.set_defaults(func=_cmd_attractiveness)

    p = sub.add_parser("fit", help="fit the power law on an attractiveness table")
    p.add_argument("--table", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bin", help="log-bin an attractiveness table")
    p.add_argument("--table", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-k", type=int, default=5, help="number of bins")
    p.set_defaults(func=_cmd_bin)

    p = sub.add_parser("residuals", help="residual scores and scatter data")
    p.add_argument("--table", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("temporal", help="scaling exponent over moving 3-month windows")
    p.add_argument("--events", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--countries", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", default="ES")
    p.add_argument("--min-events", type=int, default=1)
    _add_event_opts(p)
    p.set_defaults(func=_cmd_temporal)

    p = sub.add_parser("correlate", help="correlate residual rankings across datasets")
    p.add_argument("--pair", action="append", required=True, metavar="TAG=PATH",
                   help="dataset tag and its residuals CSV; repeat 2+ times")
    p.add_argument("--layer-label", default="layer")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("synth", help="generate synthetic ground-truth data")
    p.add_argument("--out", required=True)
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
    p.add_argument("--target", default="ES")
    p.add_argument("--tag", default="synthetic")
    p.add_argument("--table", action="store_true", help="emit a share table instead of events")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_pipeline)

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
