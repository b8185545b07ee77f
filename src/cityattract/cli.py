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

from . import __version__
from .events import EventTable, IngestError, parse_events, write_events_csv
from .geo import (
    LayerError,
    assign_events,
    load_layer,
    write_assignments_csv,
    write_layer_geojson,
)
from .home import accumulate_stats_seq, homes_to_csv, infer_all, origin_map
from .output import dumps_stable, write_text
from .pipeline import PipelineError, correlations_csv, load_config, run_pipeline, slug
from .scaling import (
    StatsError,
    binned_to_csv,
    compute_attractiveness,
    fit_power_law,
    fit_to_json,
    foreign_counts,
    log_bin,
    read_residuals_csv,
    read_table_csv,
    residuals,
    residuals_to_csv,
    scatter_to_csv,
    table_to_csv,
)
from .synthetic import (
    SyntheticSpec,
    events_per_unit_for_total,
    generate_events,
    generate_table,
)
from .temporal import window_exponents, windows_to_csv, windows_to_json


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_events(path: str, format: str, strict: bool):
    if not Path(path).is_file():
        raise PipelineError("input-error", f"missing input file: {path}")
    try:
        events, report = parse_events(path, format=format, strict=strict)
    except IngestError as exc:
        raise PipelineError("ingest", str(exc)) from exc
    if not events:
        raise PipelineError("ingest", f"no events accepted from {path}")
    return events, report


def _load_layer(path: str):
    if not Path(path).is_file():
        raise PipelineError("input-error", f"missing layer file: {path}")
    try:
        return load_layer(path)
    except (LayerError, ValueError) as exc:
        raise PipelineError("input-error", f"cannot load layer {path}: {exc}") from exc


def _origins_for(events, country_layer, min_events: int, threads: int):
    country_assign = assign_events(events, country_layer, threads=threads)
    stats, _ = accumulate_stats_seq(events, country_assign)
    homes = infer_all(stats, min_events=min_events)
    return origin_map(events, homes), homes


def _foreign_counts(args):
    """Read the events and count foreign visitors per region and month."""
    events, _ = _read_events(args.events, args.format, args.strict)
    layer = _load_layer(args.layer)
    country_layer = _load_layer(args.countries)
    origins, _ = _origins_for(events, country_layer, args.min_events, args.threads)
    assignment = assign_events(events, layer, threads=args.threads)
    return foreign_counts(events, assignment, origins, layer, args.target, dataset_tag=args.tag)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    events, report = _read_events(args.input, args.format, args.strict)
    out = _out_dir(args)
    tag = slug(args.tag)
    write_events_csv(events, out / f"events__{tag}.csv")
    write_text(out / f"ingest__{tag}.json", report.to_json())
    print(f"accepted {report.accepted}, rejected {report.rejected} -> {out / f'events__{tag}.csv'}")
    return 0


def _cmd_infer_home(args) -> int:
    events, _ = _read_events(args.events, args.format, args.strict)
    country_layer = _load_layer(args.countries)
    _, homes = _origins_for(events, country_layer, args.min_events, args.threads)
    out = _out_dir(args)
    path = out / f"homes__{slug(args.tag)}.csv"
    write_text(path, homes_to_csv(homes))
    print(f"inferred homes for {len(homes)} users -> {path}")
    return 0


def _cmd_assign(args) -> int:
    events, _ = _read_events(args.events, args.format, args.strict)
    layer = _load_layer(args.layer)
    assignment = assign_events(events, layer, threads=args.threads)
    out = _out_dir(args)
    path = out / f"assign__{slug(args.tag)}__{slug(layer.label)}.csv"
    write_assignments_csv(assignment, path)
    print(
        f"assigned {len(events) - assignment.unassigned}/{len(events)} events "
        f"({assignment.overlap_events} overlaps) -> {path}"
    )
    return 0


def _cmd_attractiveness(args) -> int:
    try:
        counts = _foreign_counts(args)
        table = compute_attractiveness(counts)
    except StatsError as exc:
        raise PipelineError("attractiveness", str(exc)) from exc
    out = _out_dir(args)
    path = out / f"attractiveness__{slug(args.tag)}__{slug(counts.layer.label)}.csv"
    write_text(path, table_to_csv(table))
    print(f"{table.total_events} foreign events over {len(table.rows)} regions -> {path}")
    return 0


def _read_table(args):
    if not Path(args.table).is_file():
        raise PipelineError("input-error", f"missing table file: {args.table}")
    try:
        return read_table_csv(args.table, dataset_tag=args.dataset, layer=args.layer)
    except (StatsError, ValueError) as exc:
        raise PipelineError("input-error", f"cannot read table {args.table}: {exc}") from exc


def _cmd_fit(args) -> int:
    table = _read_table(args)
    try:
        fit = fit_power_law(table)
    except StatsError as exc:
        raise PipelineError("fit", str(exc)) from exc
    out = _out_dir(args)
    path = out / f"fit__{slug(args.dataset)}__{slug(args.layer)}.json"
    write_text(path, dumps_stable(fit_to_json(fit, args.dataset, args.layer)))
    print(f"b = {fit.b:.6g} (r2 = {fit.r2:.6g}, n = {fit.n}) -> {path}")
    return 0


def _cmd_bin(args) -> int:
    table = _read_table(args)
    try:
        trend = log_bin(table, k=args.k)
    except StatsError as exc:
        raise PipelineError("bin", str(exc)) from exc
    out = _out_dir(args)
    path = out / f"binned__{slug(args.dataset)}__{slug(args.layer)}.csv"
    write_text(path, binned_to_csv(trend))
    print(f"{len(trend.bins)} non-empty of {trend.k} bins -> {path}")
    return 0


def _cmd_residuals(args) -> int:
    table = _read_table(args)
    try:
        fit = fit_power_law(table)
    except StatsError as exc:
        raise PipelineError("fit", str(exc)) from exc
    scores = residuals(table, fit)
    out = _out_dir(args)
    base = f"{slug(args.dataset)}__{slug(args.layer)}"
    write_text(out / f"residuals__{base}.csv", residuals_to_csv(scores))
    write_text(out / f"scatter__{base}.csv", scatter_to_csv(table, fit))
    print(f"{len(scores)} residuals -> {out / f'residuals__{base}.csv'}")
    return 0


def _cmd_temporal(args) -> int:
    try:
        counts = _foreign_counts(args)
        windows = window_exponents(counts)
    except StatsError as exc:
        raise PipelineError("temporal", str(exc)) from exc
    out = _out_dir(args)
    base = f"{slug(args.tag)}__{slug(counts.layer.label)}"
    write_text(out / f"temporal__{base}.csv", windows_to_csv(windows))
    write_text(out / f"temporal__{base}.json", dumps_stable(windows_to_json(windows)))
    print(
        f"mean b = {windows.mean_b:.6g}, {windows.insufficient} insufficient windows "
        f"-> {out / f'temporal__{base}.csv'}"
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
    scores = {}
    for tag, path in pairs.items():
        if not Path(path).is_file():
            raise PipelineError("input-error", f"missing residuals file: {path}")
        try:
            scores[(tag, args.layer_label)] = read_residuals_csv(path)
        except (StatsError, ValueError) as exc:
            raise PipelineError("input-error", f"cannot read residuals {path}: {exc}") from exc
    try:
        text = correlations_csv(list(pairs), [args.layer_label], scores, strict=True)
    except StatsError as exc:
        raise PipelineError("correlate", str(exc)) from exc
    out = _out_dir(args)
    path = out / "correlations.csv"
    write_text(path, text)
    n = len(pairs)
    print(f"{n * (n - 1) // 2} correlations -> {path}")
    return 0


def _cmd_synth(args) -> int:
    seasonal = None
    if args.seasonal:
        parts = args.seasonal.split(",")
        if len(parts) != 12:
            raise PipelineError(
                "input-error", f"--seasonal needs 12 comma-separated exponents, got {len(parts)}"
            )
        seasonal = tuple(float(p) for p in parts)
    try:
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
    except ValueError as exc:
        raise PipelineError("input-error", str(exc)) from exc
    out = _out_dir(args)
    tag = slug(args.tag)
    if args.table:
        table, truth = generate_table(spec, dataset_tag=args.tag)
        write_text(out / f"table__{tag}.csv", table_to_csv(table))
        write_text(out / f"truth__{tag}.json", dumps_stable(truth))
        print(f"{len(table.rows)} regions -> {out / f'table__{tag}.csv'}")
    else:
        bundle = generate_events(spec, year=args.year, dataset_tag=args.tag)
        write_events_csv(EventTable.from_records(bundle.events), out / f"events__{tag}.csv")
        write_layer_geojson(bundle.city_layer, out / f"cities__{tag}.geojson")
        write_layer_geojson(bundle.country_layer, out / f"countries__{tag}.geojson")
        write_text(out / f"truth__{tag}.json", dumps_stable(bundle.truth))
        print(f"{len(bundle.events)} events -> {out / f'events__{tag}.csv'}")
    return 0


def _cmd_pipeline(args) -> int:
    if not Path(args.config).is_file():
        raise PipelineError("input-error", f"missing config file: {args.config}")
    config = load_config(args.config)
    manifest = run_pipeline(config, threads=args.threads, strict=args.strict)
    print(f"wrote {len(manifest['outputs']) + 1} files to {config.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_event_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="event file format")
    p.add_argument("--strict", action="store_true", help="fail on the first malformed record")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1, help="worker threads (never changes results)")


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
    _add_threads(p)
    p.set_defaults(func=_cmd_infer_home)

    p = sub.add_parser("assign", help="assign events to regions of one layer")
    p.add_argument("--events", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--out", required=True)
    _add_event_opts(p)
    _add_threads(p)
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
    _add_threads(p)
    p.set_defaults(func=_cmd_attractiveness)

    p = sub.add_parser("fit", help="fit the power law on an attractiveness table")
    p.add_argument("--table", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layer", required=True)
    p.add_argument("--out", required=True)
    _add_threads(p)
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
    _add_threads(p)
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
    _add_threads(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 2 if exc.stage == "input-error" else 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
