"""Evaluation statistics: R^2, RMSE, MAPE, MASE, truncated means and
averaged per-group correlations, plus the bucketed comparison tables."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import _pick, factorize, sorted_codes


@dataclass(frozen=True)
class PairedSeries:
    """Actual vs predicted spreads keyed by (firm, date)."""

    firm_ids: tuple[str, ...]
    dates: tuple[str, ...]
    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.firm_ids)
        if not (n == len(self.dates) == self.actual.shape[0] == self.predicted.shape[0]):
            raise ValueError("paired series lengths do not match")
        if n < 1:
            raise ValueError("paired series must have at least one row")
        if not (np.isfinite(self.actual).all() and np.isfinite(self.predicted).all()):
            raise ValueError("paired series values must be finite")

    @property
    def n_rows(self) -> int:
        return self.actual.shape[0]

    def take(self, rows) -> PairedSeries:
        """The series at the given row indices, in their order."""
        return PairedSeries(_pick(self.firm_ids, rows), _pick(self.dates, rows),
                            self.actual[rows], self.predicted[rows])


def r_squared_arrays(actual: np.ndarray, predicted: np.ndarray) -> float | np.ndarray:
    """R^2 = 1 - SS_res / SS_tot; errors when the actuals have no variance.

    A 2-D predicted gives one R^2 per row, each equal to the R^2 of that row
    alone.
    """
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("R^2 undefined: actual values have zero variance")
    r2 = 1.0 - np.sum((actual - predicted) ** 2, axis=-1) / ss_tot
    return float(r2) if r2.ndim == 0 else r2


def r_squared(series: PairedSeries) -> float:
    if series.n_rows < 2:
        raise ValueError("R^2 requires at least two rows")
    return r_squared_arrays(series.actual, series.predicted)


def rmse(series: PairedSeries) -> float:
    err = series.actual - series.predicted
    return float(np.sqrt(np.mean(err * err)))


def mape(series: PairedSeries) -> float:
    if np.any(series.actual == 0.0):
        raise ValueError("MAPE undefined: actual series contains zeros")
    return float(np.mean(np.abs(series.actual - series.predicted) / np.abs(series.actual)))


def mase(series: PairedSeries) -> float:
    """Mean absolute error scaled by the panel's naive forecast error.

    The scale is the per-firm mean absolute one-step (lag-1 by date) change
    of the actual series, averaged over firms with at least two dates. This
    panel adaptation of the usual scaling is a documented convention here;
    firms observed on a single date contribute to the numerator only.
    """
    scale = _naive_scale(series)
    if scale is None:
        raise ValueError("MASE undefined: no firm has two or more dates")
    if scale == 0.0:
        raise ValueError("MASE undefined: naive forecast error is zero")
    return float(np.mean(np.abs(series.actual - series.predicted))) / scale


def _groups(codes: np.ndarray, *columns: np.ndarray) -> list[list[np.ndarray]]:
    """Each column split into per-code runs, codes ascending and rows in
    their given order within a code."""
    order = np.argsort(codes, kind="stable")
    bounds = np.flatnonzero(np.diff(codes[order])) + 1
    return [np.split(col[order], bounds) for col in columns]


def _naive_scale(series: PairedSeries) -> float | None:
    # Firms in order of first appearance, each one's rows by date.
    by_date = np.argsort(sorted_codes(series.dates)[1], kind="stable")
    (values,) = _groups(factorize(series.firm_ids)[1][by_date], series.actual[by_date])
    firm_errors = [float(np.mean(np.abs(np.diff(v)))) for v in values if v.size >= 2]
    if not firm_errors:
        return None
    return float(np.mean(firm_errors))


def truncated_mean(values, trim_frac: float) -> float:
    """Mean after dropping floor(trim_frac * n) points from each tail."""
    if not 0.0 <= trim_frac < 0.5:
        raise ValueError(f"trim_frac must be in [0, 0.5), got {trim_frac}")
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("truncated_mean of an empty list")
    k = int(math.floor(trim_frac * arr.size))
    return float(arr[k : arr.size - k].mean())


def avg_correlation(series_by_group: dict) -> float | None:
    """Mean Pearson correlation across groups of paired vectors.

    Groups with fewer than two points or zero variance on either side are
    skipped, with one warning per call that counts them; when every group
    is, the mean is undefined: None, with one more warning.
    """
    correlations = []
    for a, b in series_by_group.values():
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if a.size >= 2 and np.any(a != a[0]) and np.any(b != b[0]):
            correlations.append(float(np.corrcoef(a, b)[0, 1]))
    skipped = len(series_by_group) - len(correlations)
    if skipped:
        warnings.warn(f"{skipped} of {len(series_by_group)} groups degenerate for "
                      "correlation, skipped", stacklevel=2)
    if not correlations:
        warnings.warn("correlation unavailable: no group had a defined correlation",
                      stacklevel=2)
        return None
    return float(np.mean(correlations))


def group_pairs(series: PairedSeries, mode: str) -> dict:
    """Group (actual, predicted) vectors by firm or by date."""
    if mode == "by_firm":
        keys = series.firm_ids
    elif mode == "by_date":
        keys = series.dates
    else:
        raise ValueError(f"mode must be 'by_firm' or 'by_date', got {mode!r}")
    names, codes = sorted_codes(keys)
    actual, predicted = _groups(codes, series.actual, series.predicted)
    return dict(zip(names, zip(actual, predicted)))


# ---------------------------------------------------------------------------
# Bucketed comparison tables
# ---------------------------------------------------------------------------


def _trim_rows_by_actual(actual: np.ndarray, trim_frac: float) -> np.ndarray:
    """Row indices that survive dropping the extreme trim_frac tails of the
    actual values (stable order among ties)."""
    n = actual.shape[0]
    k = int(math.floor(trim_frac * n))
    order = np.argsort(actual, kind="stable")
    keep = np.sort(order[k : n - k])
    return keep


def accuracy_metrics(
    series: PairedSeries, trim_frac: float = 0.10
) -> dict[str, float | None]:
    """RMSE / MAPE / MASE after trimming rows by the actual value.

    MAPE and MASE fall back to None (with a warning) where undefined: MAPE
    when a trimmed actual value is zero, MASE when the trimmed rows leave no
    firm with two dates or no naive forecast error.
    """
    trimmed = series.take(_trim_rows_by_actual(series.actual, trim_frac))
    out: dict[str, float | None] = {"rmse": rmse(trimmed)}
    for name, metric in (("mape", mape), ("mase", mase)):
        try:
            out[name] = metric(trimmed)
        except ValueError as exc:
            warnings.warn(f"{name.upper()} unavailable: {exc}", stacklevel=2)
            out[name] = None
    return out


def bucket_comparison(
    bucket_keys,
    firm_ids,
    dates,
    actual: np.ndarray,
    models: dict[str, np.ndarray],
    trim_frac: float = 0.10,
) -> list[dict]:
    """One table row per bucket: observation count, median and truncated mean
    of the actual and of each model, and trimmed accuracy metrics per model.

    Buckets too small to trim (fewer than ceil(1/trim_frac) rows) are skipped
    with a warning.
    """
    rows = []
    names, codes = sorted_codes(bucket_keys)
    (buckets,) = _groups(codes, np.arange(codes.shape[0]))
    min_rows = math.ceil(1.0 / trim_frac) if trim_frac > 0 else 1
    for bucket, idx in zip(names, buckets):
        if idx.size < min_rows:
            warnings.warn(
                f"bucket {bucket!r} has {idx.size} rows (< {min_rows}), skipped",
                stacklevel=2,
            )
            continue
        row: dict = {"bucket": bucket, "obs": int(idx.size)}
        row["median_actual"] = float(np.median(actual[idx]))
        row["tmean_actual"] = truncated_mean(actual[idx], trim_frac)
        for name, values in models.items():
            row[f"median_{name}"] = float(np.median(values[idx]))
            row[f"tmean_{name}"] = truncated_mean(values[idx], trim_frac)
            sub = PairedSeries(firm_ids, dates, actual, values).take(idx)
            for metric, value in accuracy_metrics(sub, trim_frac).items():
                row[f"{metric}_{name}"] = value
        rows.append(row)
    return rows
