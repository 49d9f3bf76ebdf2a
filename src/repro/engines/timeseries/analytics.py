"""Time-series analytics: resolution adaptation, comparison, correlation,
transformations (§II.F: "they provide functionality like resolution
adoption, comparison functions, correlation, transformations").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engines.timeseries.series import TimeSeries
from repro.errors import TimeSeriesError

_AGGREGATORS: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda values: float(np.mean(values)),
    "sum": lambda values: float(np.sum(values)),
    "min": lambda values: float(np.min(values)),
    "max": lambda values: float(np.max(values)),
    "first": lambda values: float(values[0]),
    "last": lambda values: float(values[-1]),
    "count": lambda values: float(len(values)),
}


def resample(series: TimeSeries, interval: int, how: str = "mean") -> TimeSeries:
    """Resolution adaptation: aggregate into buckets of ``interval`` seconds.

    Bucket timestamps are the bucket starts (aligned to the epoch grid).
    Empty buckets are omitted.
    """
    if interval <= 0:
        raise TimeSeriesError("interval must be positive")
    aggregator = _AGGREGATORS.get(how)
    if aggregator is None:
        raise TimeSeriesError(f"unknown resample aggregator {how!r}")
    if len(series) == 0:
        return series
    buckets = (series.timestamps // interval) * interval
    out_ts: list[int] = []
    out_vs: list[float] = []
    start = 0
    for index in range(1, len(buckets) + 1):
        if index == len(buckets) or buckets[index] != buckets[start]:
            out_ts.append(int(buckets[start]))
            out_vs.append(aggregator(series.values[start:index]))
            start = index
    return TimeSeries(out_ts, out_vs)


def align(a: TimeSeries, b: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Values of both series at their common timestamps."""
    common, a_index, b_index = np.intersect1d(
        a.timestamps, b.timestamps, return_indices=True
    )
    if len(common) == 0:
        raise TimeSeriesError("series share no timestamps; resample first")
    return a.values[a_index], b.values[b_index]


def correlation(a: TimeSeries, b: TimeSeries) -> float:
    """Pearson correlation over the common timestamps."""
    left, right = align(a, b)
    if len(left) < 2:
        raise TimeSeriesError("need at least two common points")
    left_std = float(np.std(left))
    right_std = float(np.std(right))
    if left_std == 0.0 or right_std == 0.0:
        return 0.0
    return float(np.corrcoef(left, right)[0, 1])


def euclidean_distance(a: TimeSeries, b: TimeSeries) -> float:
    """Comparison function: L2 distance over common timestamps."""
    left, right = align(a, b)
    return float(np.sqrt(np.sum((left - right) ** 2)))


def moving_average(series: TimeSeries, window: int) -> TimeSeries:
    """Simple moving average over the last ``window`` points."""
    if window <= 0:
        raise TimeSeriesError("window must be positive")
    if len(series) < window:
        return TimeSeries([], [])
    kernel = np.ones(window) / window
    smoothed = np.convolve(series.values, kernel, mode="valid")
    return TimeSeries(series.timestamps[window - 1 :], smoothed)


def exponential_smoothing(series: TimeSeries, alpha: float) -> TimeSeries:
    """EWMA transformation."""
    if not 0 < alpha <= 1:
        raise TimeSeriesError("alpha must be in (0, 1]")
    if len(series) == 0:
        return series
    out = np.empty(len(series))
    out[0] = series.values[0]
    for index in range(1, len(series)):
        out[index] = alpha * series.values[index] + (1 - alpha) * out[index - 1]
    return TimeSeries(series.timestamps, out)


def difference(series: TimeSeries) -> TimeSeries:
    """First difference (value deltas at the later timestamp)."""
    if len(series) < 2:
        return TimeSeries([], [])
    return TimeSeries(series.timestamps[1:], np.diff(series.values))


def normalize(series: TimeSeries) -> TimeSeries:
    """Z-score normalisation (constant series map to zeros)."""
    if len(series) == 0:
        return series
    std = float(np.std(series.values))
    if std == 0.0:
        return TimeSeries(series.timestamps, np.zeros(len(series)))
    mean = float(np.mean(series.values))
    return TimeSeries(series.timestamps, (series.values - mean) / std)


def interpolate_gaps(series: TimeSeries, interval: int) -> TimeSeries:
    """Fill the regular grid [start, end] by linear interpolation."""
    if len(series) == 0:
        return series
    grid = np.arange(series.start, series.end + 1, interval, dtype=np.int64)
    values = np.interp(grid, series.timestamps, series.values)
    return TimeSeries(grid, values)


def anomalies(series: TimeSeries, window: int = 20, threshold: float = 3.0) -> list[int]:
    """Timestamps whose value deviates > ``threshold`` sigma from the
    trailing-window mean (simple sensor-fault detector for Scenario V.2)."""
    flagged: list[int] = []
    values = series.values
    for index in range(window, len(series)):
        trailing = values[index - window : index]
        std = float(np.std(trailing))
        if std == 0.0:
            continue
        if abs(values[index] - float(np.mean(trailing))) > threshold * std:
            flagged.append(int(series.timestamps[index]))
    return flagged
