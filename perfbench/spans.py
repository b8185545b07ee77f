"""Spans around the program's layer calls, recorded from outside.

The tracer replaces the public functions as ``cityattract.pipeline``,
``cityattract.cli`` and ``cityattract.temporal`` bind them with wrappers
that record a span (name, start, end, parent) and a few counts taken from
the arguments and results.  Nothing under ``src/`` changes.  Spans stay in
memory; ``Tracer.report`` turns them into per-layer self times (a span's
length minus its child spans) and counts.

A binding that no longer exists is reported in ``missing`` rather than
failing the run, so later refactors that merge functions still trace.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time

# span kinds by the name a module binds; "geo.assign" splits into country
# and city assignment at call time, "cli.main" into one span per command
_STAGES = {
    "parse_events": "events.parse",
    "load_layer": "geo.load_layer",
    "assign_events": "geo.assign",
    "accumulate_stats_seq": "home.accumulate",
    "infer_all": "home.infer",
    "origin_map": "home.origin_map",
    "compute_attractiveness": "scaling.attractiveness",
    "fit_power_law": "scaling.fit",
    "log_bin": "scaling.fit",
    "residuals": "scaling.fit",
    "scatter_to_csv": "scaling.fit",
    "correlate_residuals": "scaling.fit",
    "window_exponents": "temporal.windows",
    "write_text": "output.write",
    "write_events_csv": "output.write",
    "write_assignments_csv": "output.write",
    "dumps_stable": "output.write",
    "homes_to_csv": "output.write",
    "table_to_csv": "output.write",
    "fit_to_json": "output.write",
    "binned_to_csv": "output.write",
    "residuals_to_csv": "output.write",
    "windows_to_csv": "output.write",
    "windows_to_json": "output.write",
    "sha256_file": "output.hash",
    "run_pipeline": "pipeline.run",
    "main": "cli.main",
}

BINDINGS = {
    "cityattract.pipeline": (
        "run_pipeline", "parse_events", "load_layer", "assign_events",
        "accumulate_stats_seq", "infer_all", "origin_map",
        "compute_attractiveness", "fit_power_law", "log_bin", "residuals",
        "scatter_to_csv", "correlate_residuals", "window_exponents",
        "write_text", "dumps_stable", "homes_to_csv", "table_to_csv",
        "fit_to_json", "binned_to_csv", "residuals_to_csv", "windows_to_csv",
        "windows_to_json", "sha256_file",
    ),
    "cityattract.cli": (
        "main", "run_pipeline", "parse_events", "load_layer", "assign_events",
        "accumulate_stats_seq", "infer_all", "origin_map",
        "compute_attractiveness", "fit_power_law", "log_bin", "residuals",
        "scatter_to_csv", "correlate_residuals", "window_exponents",
        "write_events_csv", "write_assignments_csv", "write_text",
        "dumps_stable", "homes_to_csv", "table_to_csv", "fit_to_json",
        "binned_to_csv", "residuals_to_csv", "windows_to_csv", "windows_to_json",
    ),
    "cityattract.temporal": ("assign_events", "compute_attractiveness", "fit_power_law"),
}

# writers whose file path is this positional argument
_PATH_ARG = {"write_text": 0, "write_events_csv": 1, "write_assignments_csv": 1}

# self-time metrics, each the sum over the listed span names
SELF_TIMES = {
    "events.parse_s": ("events.parse",),
    "geo.load_layer_s": ("geo.load_layer",),
    "geo.assign_country_s": ("geo.assign_country",),
    "geo.assign_city_s": ("geo.assign_city",),
    "home.accumulate_s": ("home.accumulate",),
    "home.infer_s": ("home.infer",),
    "home.origin_map_s": ("home.origin_map",),
    "scaling.attractiveness_s": ("scaling.attractiveness",),
    "scaling.fit_s": ("scaling.fit",),
    "temporal.windows_s": ("temporal.windows",),
    "output.write_s": ("output.write",),
    "output.hash_s": ("output.hash",),
    "pipeline.self_s": ("pipeline.run",),
}

CLI_COMMANDS = (
    "ingest", "infer-home", "assign", "attractiveness", "fit", "bin", "residuals", "temporal",
)

LAYERS = ("events", "geo", "home", "scaling", "temporal", "output", "pipeline", "cli")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vertices(layer) -> int:
    return sum(
        len(ring)
        for region in layer.regions
        for outer, holes in region.polygons
        for ring in (outer, *holes)
    )


class Tracer:
    """Records spans for one run; ``install`` before it, ``uninstall`` after."""

    def __init__(self, country_label: str):
        self.country_label = country_label
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._paths: set[str] = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, names in BINDINGS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        stage = _STAGES[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._span_name(stage, args, kwargs)
            rss0 = _maxrss_mb() if stage == "events.parse" else 0.0
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            try:
                tracer._count(name, span, args, kwargs, result, rss0)
            except (AttributeError, TypeError, IndexError, KeyError, OSError) as exc:
                tracer.count_errors.append(f"{span}: {exc!r}")
            return result

        return wrapper

    def _span_name(self, stage: str, args, kwargs) -> str:
        if stage == "geo.assign":
            layer = args[1] if len(args) > 1 else kwargs.get("layer")
            label = getattr(layer, "label", None)
            return "geo.assign_country" if label == self.country_label else "geo.assign_city"
        if stage == "cli.main":
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.{argv[0]}" if argv else "cli.main"
        return stage

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self.stack.pop()

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _inside(self, prefix: str) -> bool:
        """Whether an open span's name starts with ``prefix``."""
        return any(self.spans[i]["name"].startswith(prefix) for i in self.stack)

    def _count(self, name: str, span: str, args, kwargs, result, rss0: float) -> None:
        """Counts at the layer boundary, taken after the span has closed."""
        if span == "events.parse":
            _, report = result
            self._add("events.rows_read", report.accepted + report.rejected)
            self._add("events.rows_rejected", report.rejected)
            self._add("events.rss_growth_mb", _maxrss_mb() - rss0)
            if self._inside("cli."):
                self._add("cli.parse_passes", 1)
            self.counts.setdefault("events.accepted_first", report.accepted)
        elif span == "geo.load_layer":
            if getattr(result, "label", None) != self.country_label:
                self.counts.setdefault("geo.vertices", _vertices(result))
        elif span == "geo.assign_city":
            self.counts.setdefault("geo.unassigned", result.unassigned)
            self.counts.setdefault("geo.overlap_events", result.overlap_events)
        elif span == "home.infer":
            self.counts.setdefault("home.users", len(result))
            self.counts.setdefault(
                "home.undetermined_users",
                sum(1 for h in result.values() if h.country == "UNDETERMINED"),
            )
        elif span == "scaling.attractiveness":
            self._add("scaling.attractiveness_calls", 1)
            if not self._inside("temporal."):
                self.counts.setdefault("scaling.counted_events", result.total_events)
        elif name == "fit_power_law":
            if not self._inside("temporal."):
                self.counts.setdefault("scaling.excluded_zero_A", result.excluded_zero_A)
        elif span == "temporal.windows":
            self._add("temporal.insufficient_windows", result.insufficient)
        elif name in _PATH_ARG:
            path = args[_PATH_ARG[name]] if len(args) > _PATH_ARG[name] else kwargs.get("path")
            self._add("output.bytes_written", os.path.getsize(path))
            self._paths.add(os.path.abspath(path))
            self.counts["output.files"] = len(self._paths)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's length minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out

    def report(self) -> dict:
        """Per-layer metrics of this run, plus the raw spans."""
        selfs = self.self_times()
        metrics: dict[str, float] = {
            key: sum(selfs.get(n, 0.0) for n in names) for key, names in SELF_TIMES.items()
        }
        metrics["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
        for cmd in CLI_COMMANDS:
            metrics[f"cli.{cmd}_s"] = sum(
                s["end"] - s["start"] for s in self.spans if s["name"] == f"cli.{cmd}"
            )
        for key in (
            "events.rows_read", "events.rows_rejected", "events.rss_growth_mb",
            "geo.vertices", "geo.unassigned", "geo.overlap_events",
            "home.users", "home.undetermined_users",
            "scaling.attractiveness_calls", "scaling.excluded_zero_A",
            "temporal.insufficient_windows",
            "output.bytes_written", "output.files", "cli.parse_passes",
        ):
            metrics[key] = self.counts.get(key, 0)
        accepted = self.counts.get("events.accepted_first", 0)
        counted = self.counts.get("scaling.counted_events", 0)
        metrics["scaling.counted_ratio"] = counted / accepted if accepted else 0.0
        fired = sorted({s["name"].split(".")[0] for s in self.spans})
        return {
            "metrics": metrics,
            "layers_fired": fired,
            "missing": list(self.missing),
            "count_errors": list(self.count_errors),
            "spans": self.spans,
        }
