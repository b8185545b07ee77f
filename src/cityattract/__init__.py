"""Quantify how strongly cities attract foreign visitors from geotagged activity data.

The package turns raw geotagged event records (photos, tweets, card
transactions) into per-city attractiveness shares, fits the superlinear
power law linking attractiveness to population, scores cities by their
scale-free residuals, and tracks the scaling exponent across seasonal
windows.  A deterministic synthetic generator provides ground truth for
end-to-end validation.
"""

__version__ = "0.1.0"

from .events import EventRecord, EventTable, IngestReport, parse_events
from .home import (
    UNDETERMINED,
    HomeRecord,
    Homes,
    Origins,
    accumulate_stats_seq,
    infer_all,
    origin_map,
)
from .geo import Assignment, Region, RegionLayer, assign_events, load_layer, point_in_region
from .scaling import (
    AttractivenessTable,
    BinnedTrend,
    ForeignCounts,
    ResidualScore,
    ScalingFit,
    compute_attractiveness,
    correlate_residuals,
    fit_power_law,
    foreign_counts,
    log_bin,
    pearson,
    residuals,
)
from .temporal import WindowedExponents, window_exponents
from .synthetic import SyntheticSpec, generate_events, generate_table

__all__ = [
    "EventRecord",
    "EventTable",
    "IngestReport",
    "parse_events",
    "UNDETERMINED",
    "HomeRecord",
    "Homes",
    "Origins",
    "accumulate_stats_seq",
    "infer_all",
    "origin_map",
    "Assignment",
    "Region",
    "RegionLayer",
    "load_layer",
    "point_in_region",
    "assign_events",
    "AttractivenessTable",
    "ForeignCounts",
    "ScalingFit",
    "BinnedTrend",
    "ResidualScore",
    "compute_attractiveness",
    "foreign_counts",
    "fit_power_law",
    "log_bin",
    "residuals",
    "pearson",
    "correlate_residuals",
    "WindowedExponents",
    "window_exponents",
    "SyntheticSpec",
    "generate_table",
    "generate_events",
]
