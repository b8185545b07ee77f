"""Seasonality of the scaling exponent via moving three-month windows.

Window m (m = 1..12) aggregates events whose UTC calendar month is m-1, m,
or m+1, wrapping across the year boundary, so window 1 covers {Dec, Jan,
Feb} and every event lands in exactly three windows.  Each window gets the
same attractiveness-and-fit treatment as the full dataset, and the twelve
exponents are normalized by their own mean, putting datasets of different
absolute activity on one axis.

Windows whose filtered table cannot support a fit (fewer than 3 regions
with events) are carried as markers: they keep their slot in the output
but stay out of the normalization mean.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .scaling import ForeignCounts, ScalingFit, StatsError, compute_attractiveness, fit_power_law

_NUM_WINDOWS = 12


def window_months(center_month: int) -> tuple[int, int, int]:
    """The three calendar months of the window centered on center_month."""
    if not 1 <= center_month <= 12:
        raise ValueError(f"center month must be in 1..12, got {center_month}")
    prev = (center_month + 10) % 12 + 1
    nxt = center_month % 12 + 1
    return (prev, center_month, nxt)


@dataclass(frozen=True)
class WindowFit:
    center_month: int
    months: tuple[int, int, int]
    fit: ScalingFit | None
    error: str | None  # set instead of fit when the window cannot be fitted


@dataclass(frozen=True)
class WindowedExponents:
    dataset_tag: str
    layer: str
    windows: tuple[WindowFit, ...]  # always 12, center months 1..12
    normalized: dict[int, float]  # center_month -> b / mean(b over fitted windows)
    mean_b: float
    insufficient: int


def window_exponents(counts: ForeignCounts) -> WindowedExponents:
    """Fit the scaling exponent in each of the 12 moving windows.

    Window m's table sums the three month columns of ``counts``.
    """
    windows: list[WindowFit] = []
    for m in range(1, _NUM_WINDOWS + 1):
        months = window_months(m)
        try:
            fit = fit_power_law(compute_attractiveness(counts, months))
            windows.append(WindowFit(m, months, fit, None))
        except StatsError as exc:
            windows.append(WindowFit(m, months, None, str(exc)))

    fitted = [w for w in windows if w.fit is not None]
    if not fitted:
        raise StatsError("insufficient data: no window produced a fit")
    mean_b = math.fsum(w.fit.b for w in fitted) / len(fitted)
    if mean_b == 0.0:
        raise StatsError("degenerate abscissa: mean window exponent is 0, cannot normalize")
    normalized = {w.center_month: w.fit.b / mean_b for w in fitted}
    return WindowedExponents(
        dataset_tag=counts.dataset_tag,
        layer=counts.layer.label,
        windows=tuple(windows),
        normalized=normalized,
        mean_b=mean_b,
        insufficient=_NUM_WINDOWS - len(fitted),
    )


def _num(x: float) -> str:
    return format(x, ".12g")


def windows_to_csv(we: WindowedExponents) -> str:
    """One row per window; unfittable windows keep empty numeric fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("center_month", "b", "b_normalized", "n", "r2", "p_value"))
    for w in we.windows:
        if w.fit is None:
            writer.writerow((w.center_month, "", "", "", "", ""))
        else:
            writer.writerow(
                (
                    w.center_month,
                    _num(w.fit.b),
                    _num(we.normalized[w.center_month]),
                    w.fit.n,
                    _num(w.fit.r2),
                    _num(w.fit.p_value),
                )
            )
    return buf.getvalue()


def windows_to_json(we: WindowedExponents) -> dict:
    entries = []
    for w in we.windows:
        entry: dict = {"center_month": w.center_month, "months": list(w.months)}
        if w.fit is None:
            entry["error"] = w.error
        else:
            entry.update(
                b=w.fit.b,
                b_normalized=we.normalized[w.center_month],
                n=w.fit.n,
                r2=w.fit.r2,
                p_value=w.fit.p_value,
                stderr_b=w.fit.stderr_b,
                excluded_zero_A=w.fit.excluded_zero_A,
            )
        entries.append(entry)
    return {
        "dataset": we.dataset_tag,
        "layer": we.layer,
        "mean_b": we.mean_b,
        "insufficient_windows": we.insufficient,
        "windows": entries,
    }
