"""End-to-end orchestration: config, staged output, run manifest.

A run reads every configured event source, infers user origins against
the country layer, and produces per dataset x city-layer the
attractiveness table, power-law fit, binned trend, residual ranking,
scatter data, and seasonal window series, plus one residual correlation
matrix across datasets and a manifest of input/output digests.

All files are written into a temporary staging directory and moved into
output_dir only when the whole run succeeds, so a failed run leaves no
partial outputs behind.  Every file is deterministic: reruns with the
same inputs are byte-identical, and wall-clock timestamps appear only in
the manifest.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .events import IngestError, parse_events
from .geo import LayerError, assign_events, load_layer
from .home import accumulate_stats_seq, infer_all, origin_map, homes_to_csv
from .scaling import (
    ResidualScore,
    StatsError,
    binned_to_csv,
    compute_attractiveness,
    correlate_residuals,
    fit_power_law,
    fit_to_json,
    foreign_counts,
    log_bin,
    residuals,
    residuals_to_csv,
    scatter_to_csv,
    table_to_csv,
)
from .output import dumps_stable, fmt_num, sha256_file, write_text
from .temporal import window_exponents, windows_to_csv, windows_to_json

VALID_FORMATS = ("csv", "jsonl")


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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["event_sources"] = [asdict(s) for s in self.event_sources]
        d["city_layer_paths"] = list(self.city_layer_paths)
        return d


def load_config(path: str | Path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise PipelineError("input-error", f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PipelineError("input-error", f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise PipelineError("input-error", "config must be a JSON object")
    try:
        sources = tuple(
            EventSource(str(s["path"]), str(s.get("format", "csv")), str(s["dataset_tag"]))
            for s in raw["event_sources"]
        )
        config = PipelineConfig(
            event_sources=sources,
            country_layer_path=str(raw["country_layer_path"]),
            city_layer_paths=tuple(str(p) for p in raw["city_layer_paths"]),
            output_dir=str(raw["output_dir"]),
            target_country=str(raw.get("target_country", "ES")),
            min_events=int(raw.get("min_events", 1)),
            bins=int(raw.get("bins", 5)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineError("input-error", f"bad config field: {exc!r}") from exc
    validate_config(config)
    return config


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
    if len(set(tags)) != len(tags):
        raise PipelineError("input-error", f"dataset tags must be unique, got {tags}")
    for s in config.event_sources:
        if s.format not in VALID_FORMATS:
            raise PipelineError(
                "input-error", f"unknown format {s.format!r} for {s.dataset_tag}"
            )


def slug(s: str) -> str:
    """Filename-safe version of a dataset tag or layer label."""
    out = re.sub(r"[^A-Za-z0-9_.-]+", "-", s).strip("-")
    return out or "x"


def run_pipeline(config: PipelineConfig, threads: int = 1, strict: bool = False) -> dict:
    """Execute the full analysis; returns the manifest dict.

    Raises PipelineError with a stage tag on any failure; in that case no
    files are added to output_dir.
    """
    started = datetime.now(timezone.utc)
    missing = [
        p
        for p in [s.path for s in config.event_sources]
        + [config.country_layer_path]
        + list(config.city_layer_paths)
        if not Path(p).is_file()
    ]
    if missing:
        raise PipelineError("input-error", f"missing input files: {', '.join(missing)}")

    try:
        country_layer = load_layer(config.country_layer_path)
        city_layers = [load_layer(p) for p in config.city_layer_paths]
    except (LayerError, OSError, json.JSONDecodeError) as exc:
        raise PipelineError("input-error", f"cannot load layer: {exc}") from exc
    labels = [layer.label for layer in city_layers]
    if len(set(slug(l) for l in labels)) != len(labels):
        raise PipelineError("input-error", f"city layer labels must be distinct, got {labels}")

    out_dir = Path(config.output_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".stage-", dir=out_dir.parent))
    inputs = {
        p: sha256_file(p)
        for p in sorted(
            {s.path for s in config.event_sources}
            | {config.country_layer_path}
            | set(config.city_layer_paths)
        )
    }
    try:
        residual_lists: dict[tuple[str, str], list] = {}  # (tag, layer label) -> scores
        dataset_summaries: dict[str, dict] = {}
        for source in config.event_sources:
            tag = slug(source.dataset_tag)
            try:
                events, report = parse_events(source.path, format=source.format, strict=strict)
            except IngestError as exc:
                raise PipelineError("ingest", f"{source.dataset_tag}: {exc}") from exc
            if not events:
                raise PipelineError("ingest", f"{source.dataset_tag}: no events accepted")
            write_text(tmp / f"ingest__{tag}.json", report.to_json())

            country_assign = assign_events(events, country_layer, threads=threads)
            stats, unresolved = accumulate_stats_seq(events, country_assign)
            homes = infer_all(stats, min_events=config.min_events)
            write_text(tmp / f"homes__{tag}.csv", homes_to_csv(homes))
            origins = origin_map(events, homes)
            dataset_summaries[source.dataset_tag] = {
                "events": len(events),
                "rejected": report.rejected,
                "users": len(homes),
                "events_outside_countries": unresolved,
            }

            for layer in city_layers:
                lbl = slug(layer.label)
                suffix = f"{tag}__{lbl}"
                assignment = assign_events(events, layer, threads=threads)
                try:
                    counts = foreign_counts(
                        events,
                        assignment,
                        origins,
                        layer,
                        config.target_country,
                        dataset_tag=source.dataset_tag,
                    )
                    table = compute_attractiveness(counts)
                except StatsError as exc:
                    raise PipelineError("attractiveness", f"{suffix}: {exc}") from exc
                write_text(tmp / f"attractiveness__{suffix}.csv", table_to_csv(table))
                try:
                    fit = fit_power_law(table)
                except StatsError as exc:
                    raise PipelineError("fit", f"{suffix}: {exc}") from exc
                write_text(
                    tmp / f"fit__{suffix}.json",
                    dumps_stable(fit_to_json(fit, source.dataset_tag, layer.label)),
                )
                try:
                    trend = log_bin(table, k=config.bins)
                except StatsError as exc:
                    raise PipelineError("bin", f"{suffix}: {exc}") from exc
                write_text(tmp / f"binned__{suffix}.csv", binned_to_csv(trend))
                scores = residuals(table, fit)
                residual_lists[(source.dataset_tag, layer.label)] = scores
                write_text(tmp / f"residuals__{suffix}.csv", residuals_to_csv(scores))
                write_text(tmp / f"scatter__{suffix}.csv", scatter_to_csv(table, fit))
                try:
                    windows = window_exponents(counts)
                except StatsError as exc:
                    raise PipelineError("temporal", f"{suffix}: {exc}") from exc
                write_text(tmp / f"temporal__{suffix}.csv", windows_to_csv(windows))
                write_text(tmp / f"temporal__{suffix}.json", dumps_stable(windows_to_json(windows)))

        write_text(
            tmp / "correlations.csv",
            correlations_csv(
                [s.dataset_tag for s in config.event_sources],
                [layer.label for layer in city_layers],
                residual_lists,
            ),
        )

        outputs = {f.name: sha256_file(f) for f in sorted(tmp.iterdir())}
        manifest = {
            "tool": "cityattract",
            "version": __version__,
            "config": config.to_dict(),
            "threads": threads,
            "strict": strict,
            "datasets": dataset_summaries,
            "inputs": inputs,
            "outputs": outputs,
            "started_at": started.isoformat(),
            "finished_at": datetime.now(timezone.utc).isoformat(),
        }
        write_text(tmp / "run_manifest.json", dumps_stable(manifest))

        out_dir.mkdir(exist_ok=True)
        for f in sorted(tmp.iterdir()):
            os.replace(f, out_dir / f.name)
        return manifest
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def correlations_csv(
    tags: Sequence[str],
    layer_labels: Sequence[str],
    residual_lists: Mapping[tuple[str, str], Sequence[ResidualScore]],
    strict: bool = False,
) -> str:
    """Correlation matrix of residual rankings: rows are layers, columns
    are dataset pairs in tag order.  ``residual_lists`` maps (tag, layer
    label) to that dataset's residuals on that layer.  A pair sharing too
    few regions to correlate gets a blank cell, or with ``strict`` raises
    StatsError naming the pair."""
    tags = sorted(tags)
    pairs = [(a, b) for i, a in enumerate(tags) for b in tags[i + 1 :]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer"] + [f"{a}|{b}" for a, b in pairs])
    for label in layer_labels:
        cells: list[str] = [label]
        for a, b in pairs:
            try:
                result = correlate_residuals(residual_lists[(a, label)], residual_lists[(b, label)])
                cells.append(fmt_num(result.r))
            except StatsError as exc:
                if strict:
                    raise StatsError(f"{a}|{b}: {exc}") from exc
                cells.append("")
        writer.writerow(cells)
    return buf.getvalue()
