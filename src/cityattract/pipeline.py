"""End-to-end orchestration: config, staged output, run manifest.

A run reads every configured event source, infers user origins against
the country layer, and produces per dataset x city-layer the
attractiveness table, power-law fit, binned trend, residual ranking,
scatter data, and seasonal window series, plus one residual correlation
matrix across datasets and a manifest of input/output digests and of
each stage's seconds and peak RSS.

Its stage functions, which the CLI subcommands call too, are the one
place that decides stage tags and output file names: each writer computes
and writes one output family, and a StatsError from a stage becomes a
PipelineError carrying that stage's tag.  Stage results are read-only:
the event table, assignment, tallies, homes, origins and counts mark
their arrays so on construction, so one result can be shared by every
later stage.  foreign_counts joins by position, so it takes the origins
from origin_map on the same event table and the assignment from
assign_events of that table to the same layer.

All files are written into a temporary staging directory and moved into
output_dir only when the whole run succeeds.  Any old manifest is removed
before the first file moves and the new one moves last, so a
run_manifest.json in output_dir means every file it lists was published.
Then the files that only the old manifest listed are removed.  Every
file is deterministic: reruns with the same inputs are byte-identical,
and wall-clock timestamps and stage figures appear only in the manifest.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .events import FORMATS, EventTable, IngestError, IngestReport, parse_events
from .geo import RegionLayer, assign_events, load_layer
from .home import Homes, Origins, accumulate_stats_seq, homes_csv_blocks, infer_all, origin_map
from .scaling import (
    AttractivenessTable,
    BinnedTrend,
    ForeignCounts,
    ResidualScore,
    ScalingFit,
    StatsError,
    binned_to_csv,
    compute_attractiveness,
    correlate_residuals,
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
from .output import csv_text, dumps_stable, fmt_num, sha256_file, write_text
from .temporal import WindowedExponents, window_exponents, windows_to_csv, windows_to_json

try:
    import resource
except ImportError:  # not on every platform; stages then record no peak RSS
    resource = None

MANIFEST = "run_manifest.json"

# run_pipeline's stages in run order, as the manifest's ``stages`` names them
STAGES = ("parse", "origins", "city_assignment", "attractiveness", "fit_bin_residuals", "temporal", "write")


class PipelineError(Exception):
    """A stage-tagged pipeline failure; input-error means bad inputs/config."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class EventSource:
    path: str
    format: str
    dataset_tag: str


@dataclass(frozen=True)
class PipelineConfig:
    event_sources: tuple[EventSource, ...]
    country_layer_path: str
    city_layer_paths: tuple[str, ...]
    output_dir: str
    target_country: str = "ES"
    min_events: int = 1
    bins: int = 5


def load_config(path: str | Path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise PipelineError("input-error", f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
        raise PipelineError("input-error", f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PipelineError("input-error", "config must be a JSON object")
    try:
        sources = tuple(
            EventSource(_config_field(s, "path", _STRING), _config_field(s, "format", _STRING, "csv"), _config_field(s, "dataset_tag", _STRING))
            for s in raw["event_sources"]
        )
        config = PipelineConfig(
            event_sources=sources,
            country_layer_path=_config_field(raw, "country_layer_path", _STRING),
            city_layer_paths=tuple(_config_field(raw, "city_layer_paths", _STRINGS)),
            output_dir=_config_field(raw, "output_dir", _STRING),
            target_country=_config_field(raw, "target_country", _STRING, PipelineConfig.target_country),
            min_events=int(_config_field(raw, "min_events", _INTEGER, PipelineConfig.min_events)),
            bins=int(_config_field(raw, "bins", _INTEGER, PipelineConfig.bins)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineError("input-error", f"bad config field: {exc!r}") from exc
    validate_config(config)
    return config


# config value kinds, each a name and a test; no value is coerced, where str()
# would run a null target country as "None" and int() 2.7 bins as 2
_STRING = ("a string", lambda v: type(v) is str)
_STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(p) is str for p in v))
_INTEGER = ("an integer", lambda v: type(v) is int or isinstance(v, float) and v.is_integer())


def _config_field(raw: dict, key: str, kind: tuple, default=None):
    """``raw[key]``, or ``default`` where one is given and the key is absent;
    a value not of ``kind`` is an input error."""
    value = raw[key] if default is None else raw.get(key, default)
    if not kind[1](value):
        raise PipelineError("input-error", f"{key} must be {kind[0]}, got {value!r}")
    return value


def validate_config(config: PipelineConfig) -> None:
    if not config.event_sources:
        raise PipelineError("input-error", "config lists no event sources")
    if not config.city_layer_paths:
        raise PipelineError("input-error", "config lists no city layers")
    if not config.country_layer_path:
        raise PipelineError("input-error", "config has empty country_layer_path")
    if not config.output_dir:
        raise PipelineError("input-error", "config has empty output_dir")
    if config.bins < 1:
        raise PipelineError("input-error", f"bins must be >= 1, got {config.bins}")
    if config.min_events < 1:
        raise PipelineError("input-error", f"min_events must be >= 1, got {config.min_events}")
    tags = [s.dataset_tag for s in config.event_sources]
    if len(set(map(slug, tags))) != len(tags):
        raise PipelineError("input-error", f"dataset tags must be distinct as file names, got {tags}")
    for s in config.event_sources:
        if s.format not in FORMATS:
            raise PipelineError(
                "input-error", f"unknown format {s.format!r} for {s.dataset_tag}"
            )


def slug(s: str) -> str:
    """Filename-safe version of a dataset tag or layer label."""
    out = re.sub(r"[^A-Za-z0-9_.-]+", "-", s).strip("-")
    return out or "x"


def output_name(stage: str, dataset: str, layer: str | None = None, ext: str = "csv") -> str:
    """``stage__dataset.ext``, or ``stage__dataset__layer.ext`` for a layer output."""
    parts = (stage, dataset) if layer is None else (stage, dataset, layer)
    return "__".join(slug(p) for p in parts) + f".{ext}"


@contextmanager
def _stage(tag: str, dataset: str, layer: str):
    """Re-raise a StatsError from the block as a PipelineError tagged ``tag``,
    prefixed with the dataset and layer it concerns."""
    try:
        yield
    except StatsError as exc:
        raise PipelineError(tag, f"{slug(dataset)}__{slug(layer)}: {exc}") from exc


def require_files(paths: Iterable[str]) -> None:
    missing = [p for p in paths if not Path(p).is_file()]
    if missing:
        raise PipelineError("input-error", f"missing input files: {', '.join(missing)}")


def read_layer(path: str) -> RegionLayer:
    try:
        return load_layer(path)
    except (ValueError, OSError, RecursionError) as exc:  # LayerError, bad or too deeply nested JSON, bad UTF-8
        raise PipelineError("input-error", f"cannot load layer {path}: {exc}") from exc


def read_events(path: str, format: str, dataset_tag: str, strict: bool = False) -> tuple[EventTable, IngestReport]:
    """Parse an event file into a read-only table and its report."""
    try:
        events, report = parse_events(path, format=format, strict=strict)
    except (IngestError, UnicodeDecodeError) as exc:
        raise PipelineError("ingest", f"{dataset_tag}: {exc}") from exc
    if not events:
        raise PipelineError("ingest", f"{dataset_tag}: no events accepted")
    return events, report


def read_table(path: str, dataset: str, layer: str) -> AttractivenessTable:
    require_files([path])
    try:
        return read_table_csv(path, dataset_tag=dataset, layer=layer)
    except ValueError as exc:  # StatsError on a bad header or row, or undecodable text
        raise PipelineError("input-error", f"cannot read table {path}: {exc}") from exc


def read_residuals(path: str) -> list[ResidualScore]:
    require_files([path])
    try:
        return read_residuals_csv(path)
    except ValueError as exc:  # StatsError on a bad header or row, or undecodable text
        raise PipelineError("input-error", f"cannot read residuals {path}: {exc}") from exc


def resolve_origins(
    events: EventTable, country_layer: RegionLayer, min_events: int
) -> tuple[Origins, Homes, int]:
    """Country assignment, then the per-user tally, homes and origins; also
    returns the number of events outside every country."""
    stats, unresolved = accumulate_stats_seq(events, assign_events(events, country_layer))
    homes = infer_all(stats, min_events=min_events)
    return origin_map(events, homes), homes, unresolved


def fit_table(table: AttractivenessTable) -> ScalingFit:
    with _stage("fit", table.dataset_tag, table.layer):
        return fit_power_law(table)


def write_ingest_report(out: Path, dataset_tag: str, report: IngestReport) -> None:
    write_text(out / output_name("ingest", dataset_tag, ext="json"), report.to_json())


def write_homes(out: Path, dataset_tag: str, homes: Homes) -> None:
    write_text(out / output_name("homes", dataset_tag), homes_csv_blocks(homes))


def write_attractiveness(out: Path, counts: ForeignCounts) -> AttractivenessTable:
    with _stage("attractiveness", counts.dataset_tag, counts.layer.label):
        table = compute_attractiveness(counts)
    write_text(out / output_name("attractiveness", table.dataset_tag, table.layer), table_to_csv(table))
    return table


def write_fit(out: Path, table: AttractivenessTable) -> ScalingFit:
    fit = fit_table(table)
    write_text(
        out / output_name("fit", table.dataset_tag, table.layer, "json"),
        dumps_stable(fit_to_json(fit, table.dataset_tag, table.layer)),
    )
    return fit


def write_binned(out: Path, table: AttractivenessTable, k: int) -> BinnedTrend:
    with _stage("bin", table.dataset_tag, table.layer):
        trend = log_bin(table, k=k)
    write_text(out / output_name("binned", table.dataset_tag, table.layer), binned_to_csv(trend))
    return trend


def write_residuals(out: Path, table: AttractivenessTable, fit: ScalingFit) -> list[ResidualScore]:
    """The residual ranking plus the scatter data behind it."""
    scores = residuals(table, fit)
    write_text(out / output_name("residuals", table.dataset_tag, table.layer), residuals_to_csv(scores))
    write_text(out / output_name("scatter", table.dataset_tag, table.layer), scatter_to_csv(table, fit))
    return scores


def write_temporal(out: Path, counts: ForeignCounts) -> WindowedExponents:
    with _stage("temporal", counts.dataset_tag, counts.layer.label):
        windows = window_exponents(counts)
    write_text(out / output_name("temporal", windows.dataset_tag, windows.layer), windows_to_csv(windows))
    write_text(
        out / output_name("temporal", windows.dataset_tag, windows.layer, "json"),
        dumps_stable(windows_to_json(windows)),
    )
    return windows


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far, in MiB."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere


class _StageClock:
    """Per stage of one run: the seconds spent in it, summed over datasets
    and layers, and the peak RSS of the process when it last ended."""

    def __init__(self) -> None:
        self.stages = {name: {"seconds": 0.0, "peak_rss_mb": None} for name in STAGES}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        yield
        self.stages[name]["seconds"] += time.perf_counter() - start
        self.stages[name]["peak_rss_mb"] = _peak_rss_mb()


def run_pipeline(config: PipelineConfig, strict: bool = False) -> dict:
    """Execute the full analysis; returns the manifest dict.

    Raises PipelineError with a stage tag on any failure; in that case no
    files are added to output_dir.
    """
    started = datetime.now(timezone.utc)
    validate_config(config)
    paths = [s.path for s in config.event_sources] + [config.country_layer_path, *config.city_layer_paths]
    require_files(paths)
    country_layer = read_layer(config.country_layer_path)
    city_layers = [read_layer(p) for p in config.city_layer_paths]
    labels = [layer.label for layer in city_layers]
    if len(set(slug(l) for l in labels)) != len(labels):
        raise PipelineError("input-error", f"city layer labels must be distinct, got {labels}")

    out_dir = Path(config.output_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".stage-", dir=out_dir.parent))
    inputs = {p: sha256_file(p) for p in sorted(set(paths))}
    try:
        clock = _StageClock()
        residual_lists: dict[tuple[str, str], list] = {}  # (tag, layer label) -> scores
        dataset_summaries: dict[str, dict] = {}
        for source in config.event_sources:
            tag = source.dataset_tag
            with clock("parse"):
                events, report = read_events(source.path, source.format, tag, strict)
            with clock("write"):
                write_ingest_report(tmp, tag, report)
            with clock("origins"):
                origins, homes, unresolved = resolve_origins(events, country_layer, config.min_events)
            with clock("write"):
                write_homes(tmp, tag, homes)
            dataset_summaries[tag] = {
                "events": len(events),
                "rejected": report.rejected,
                "users": len(homes),
                "events_outside_countries": unresolved,
                "layers": {},
            }
            for layer in city_layers:
                with clock("city_assignment"):
                    assignment = assign_events(events, layer)
                with clock("attractiveness"):
                    counts = foreign_counts(events, assignment, origins, layer, config.target_country, dataset_tag=tag)
                    table = write_attractiveness(tmp, counts)
                dataset_summaries[tag]["layers"][layer.label] = {
                    "overlap_events": assignment.overlap_events,
                    "unassigned": assignment.unassigned,
                    "excluded_events": table.excluded_events,
                    "excluded_regions": len(table.excluded_regions),
                }
                with clock("fit_bin_residuals"):
                    fit = write_fit(tmp, table)
                    write_binned(tmp, table, config.bins)
                    residual_lists[(tag, layer.label)] = write_residuals(tmp, table, fit)
                with clock("temporal"):
                    write_temporal(tmp, counts)

        with clock("write"):
            write_correlations(tmp, [s.dataset_tag for s in config.event_sources], labels, residual_lists)
            outputs = {f.name: sha256_file(f) for f in sorted(tmp.iterdir())}
        manifest = {
            "tool": "cityattract",
            "version": __version__,
            "config": asdict(config),
            "strict": strict,
            "datasets": dataset_summaries,
            "stages": clock.stages,
            "inputs": inputs,
            "outputs": outputs,
            "started_at": started.isoformat(),
            "finished_at": datetime.now(timezone.utc).isoformat(),
        }
        write_text(tmp / MANIFEST, dumps_stable(manifest))

        out_dir.mkdir(exist_ok=True)
        stale = _listed_outputs(out_dir / MANIFEST).difference(outputs)
        (out_dir / MANIFEST).unlink(missing_ok=True)
        for name in [*outputs, MANIFEST]:
            os.replace(tmp / name, out_dir / name)
        for name in stale:  # the new manifest already lists this run's files
            with suppress(OSError):
                (out_dir / name).unlink()
        return manifest
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _listed_outputs(manifest: Path) -> set[str]:
    """The bare file names an old manifest lists as outputs; none if it is absent or unreadable."""
    try:
        names = json.loads(manifest.read_text(encoding="utf-8"))["outputs"].keys()
    except (OSError, ValueError, RecursionError, LookupError, TypeError, AttributeError):
        return set()
    return {n for n in names if n not in ("", ".", "..", MANIFEST) and not set(n) & set("/\\\0")}


def write_correlations(
    out: Path,
    tags: Sequence[str],
    layer_labels: Sequence[str],
    residual_lists: Mapping[tuple[str, str], Sequence[ResidualScore]],
    strict: bool = False,
) -> None:
    """Write the correlation matrix of residual rankings: rows are layers,
    columns are dataset pairs in tag order.  ``residual_lists`` maps (tag,
    layer label) to that dataset's residuals on that layer.  A pair sharing
    too few regions to correlate gets a blank cell, or with ``strict``
    fails the correlate stage naming the pair."""
    tags = sorted(tags)
    pairs = [(a, b) for i, a in enumerate(tags) for b in tags[i + 1 :]]
    rows = []
    for label in layer_labels:
        cells: list[str] = [label]
        for a, b in pairs:
            try:
                result = correlate_residuals(residual_lists[(a, label)], residual_lists[(b, label)])
                cells.append(fmt_num(result.r))
            except StatsError as exc:
                if strict:
                    raise PipelineError("correlate", f"{a}|{b}: {exc}") from exc
                cells.append("")
        rows.append(cells)
    write_text(out / "correlations.csv", csv_text(["layer"] + [f"{a}|{b}" for a, b in pairs], rows))
