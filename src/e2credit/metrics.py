"""Evaluation statistics, each computed once per table: R^2, RMSE, MAPE,
MASE, truncated means, averaged per-group correlations, and the overall and
bucket tables. Each table trims the actuals and finds their MASE scale once
for all models (the bucket tables once per bucket); the overall table also
groups the rows by firm and by date once."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import _pick, factorize, sorted_codes

#: Share of rows dropped from each tail of the actuals before the accuracy
#: metrics and truncated means: the evaluation's fixed 10%, not a setting.
TRIM_FRAC = 0.10


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
    return _mase(series, _naive_scale(series))


def _mase(series: PairedSeries, scale: float | None) -> float:
    if scale is None:
        raise ValueError("MASE undefined: no firm has two or more dates")
    if scale == 0.0:
        raise ValueError("MASE undefined: naive forecast error is zero")
    return float(np.mean(np.abs(series.actual - series.predicted))) / scale


def _splitter(codes: np.ndarray):
    """A function that splits a column into per-code runs, codes ascending
    and rows in their given order within a code."""
    order = np.argsort(codes, kind="stable")
    bounds = np.flatnonzero(np.diff(codes[order])) + 1
    return lambda column: np.split(column[order], bounds)


def _naive_scale(series: PairedSeries) -> float | None:
    # Firms in order of first appearance, each one's rows by date: one step
    # array over them all, each firm's mean over its own slice of it.
    by_date = np.argsort(sorted_codes(series.dates)[1], kind="stable")
    firms = factorize(series.firm_ids)[1][by_date]
    steps = np.abs(np.diff(series.actual[by_date[np.argsort(firms, kind="stable")]]))
    stops = np.cumsum(np.bincount(firms)).tolist()
    firm_errors = [float(np.mean(steps[start : stop - 1]))
                   for start, stop in zip([0, *stops], stops) if stop - start >= 2]
    if not firm_errors:
        return None
    return float(np.mean(firm_errors))


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit: the np.mean of the
    middle one or two values of the same np.partition, NaN if the array
    holds one. np.median's own NaN check imports numpy.ma."""
    n = values.shape[0]
    part = np.partition(values, [(n - 1) // 2, n // 2, -1] if n % 2 == 0 else [n // 2, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[(n - 1) // 2 : n // 2 + 1]))


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

    The groups are concatenated once, and each group's r is
    sum(da*db) / sqrt(sum(da*da) * sum(db*db)) over its values centred on
    their means, from segment sums (np.add.reduceat), clipped to [-1, 1]
    as np.corrcoef clips: within 1e-12 of np.corrcoef.

    Groups with fewer than two points or a constant side (max == min) are
    skipped, with one warning per call that counts them; when every group
    is, the mean is undefined: None, with one more warning.
    """
    kept = [np.array(p, dtype=np.float64) for p in series_by_group.values() if len(p[0]) > 1]
    sizes = np.array([pair.shape[1] for pair in kept], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    # Row 0 holds every group's a, row 1 its b; the empty block covers no kept group.
    x = np.concatenate([np.empty((2, 0)), *kept], axis=1)
    varies = np.all(np.maximum.reduceat(x, starts, 1) != np.minimum.reduceat(x, starts, 1), 0)
    d = x - np.repeat(np.add.reduceat(x, starts, axis=1) / sizes, sizes, axis=1)
    sab, saa, sbb = (np.add.reduceat(v, starts)[varies] for v in (d[0] * d[1], *(d * d)))
    correlations = np.clip(sab / np.sqrt(saa * sbb), -1.0, 1.0)
    skipped = len(series_by_group) - correlations.size
    if skipped:
        warnings.warn(f"{skipped} of {len(series_by_group)} groups degenerate for "
                      "correlation, skipped", stacklevel=2)
    if not correlations.size:
        warnings.warn("correlation unavailable: no group had a defined correlation",
                      stacklevel=2)
        return None
    return float(np.mean(correlations))


def group_pairs(series: PairedSeries, mode: str) -> dict:
    """Group (actual, predicted) vectors by firm or by date."""
    keys = {"by_firm": series.firm_ids, "by_date": series.dates}.get(mode)
    if keys is None:
        raise ValueError(f"mode must be 'by_firm' or 'by_date', got {mode!r}")
    return _pairs_by(keys, series.actual)(series.predicted)


def _pairs_by(keys, actual: np.ndarray):
    """group_pairs by the given keys with the grouping and the actual's
    groups found once: a function of the predicted values."""
    names, codes = sorted_codes(keys)
    split = _splitter(codes)
    actual_groups = split(actual)
    return lambda predicted: dict(zip(names, zip(actual_groups, split(predicted))))


# ---------------------------------------------------------------------------
# Bucketed comparison tables
# ---------------------------------------------------------------------------


def _trim_rows_by_actual(actual: np.ndarray, trim_frac: float) -> np.ndarray:
    """Row indices that survive dropping the extreme trim_frac tails of the
    actual values (stable order among ties)."""
    n = actual.shape[0]
    k = int(math.floor(trim_frac * n))
    order = np.argsort(actual, kind="stable")
    return np.sort(order[k : n - k])


def _accuracy(trimmed: PairedSeries, scale: float | None) -> dict[str, float | None]:
    """accuracy_metrics of rows already trimmed, MASE by the given scale."""
    out: dict[str, float | None] = {"rmse": rmse(trimmed)}
    for name, metric in (("mape", mape), ("mase", lambda s: _mase(s, scale))):
        try:
            out[name] = metric(trimmed)
        except ValueError as exc:
            warnings.warn(f"{name.upper()} unavailable: {exc}", stacklevel=3)
            out[name] = None
    return out


def accuracy_metrics(
    series: PairedSeries, trim_frac: float = TRIM_FRAC
) -> dict[str, float | None]:
    """RMSE / MAPE / MASE after trimming rows by the actual value.

    MAPE and MASE fall back to None (with a warning) where undefined: MAPE
    when a trimmed actual value is zero, MASE when the trimmed rows leave no
    firm with two dates or no naive forecast error.
    """
    trimmed = series.take(_trim_rows_by_actual(series.actual, trim_frac))
    return _accuracy(trimmed, _naive_scale(trimmed))


def _scores(rows: np.ndarray, firm_ids, dates, actual: np.ndarray, models: dict,
            trim_frac: float):
    """Each model's accuracy_metrics on the given rows, one model at a time,
    in model order: the rows are trimmed by the actual and the MASE scale
    found once for all models. A warning names the line that draws them."""
    keep = rows[_trim_rows_by_actual(actual[rows], trim_frac)]
    trimmed = PairedSeries(firm_ids, dates, actual, actual).take(keep)
    scale = _naive_scale(trimmed)
    for values in models.values():
        yield _accuracy(replace(trimmed, predicted=values[keep]), scale)


def overall_comparison(
    firm_ids,
    dates,
    actual: np.ndarray,
    models: dict[str, np.ndarray],
    trim_frac: float = TRIM_FRAC,
) -> list[dict]:
    """One table row per model: R^2 on every row, accuracy_metrics, and the
    avg_correlation of its group_pairs by firm and by date. The actuals are
    trimmed, MASE-scaled and grouped by firm and by date once for all
    models; each cell and warning is the one the per-model calls give.
    """
    by_firm, by_date = _pairs_by(firm_ids, actual), _pairs_by(dates, actual)
    scores = _scores(np.arange(actual.shape[0]), firm_ids, dates, actual, models, trim_frac)
    rows = []
    for name, values in models.items():
        PairedSeries(firm_ids, dates, actual, values)  # every value must be finite
        scored = next(scores)
        rows.append({
            "model": name,
            "r2": r_squared_arrays(actual, values),
            **scored,
            "corr_by_firm": avg_correlation(by_firm(values)),
            "corr_by_date": avg_correlation(by_date(values)),
        })
    return rows


def bucket_comparison(
    bucket_keys,
    firm_ids,
    dates,
    actual: np.ndarray,
    models: dict[str, np.ndarray],
    trim_frac: float = TRIM_FRAC,
) -> list[dict]:
    """One table row per bucket: observation count, median and truncated mean
    of the actual and of each model, and accuracy_metrics of each model on
    the bucket's rows, whose trimming and MASE scale are found once per bucket.

    Buckets too small to trim (fewer than ceil(1/trim_frac) rows) are skipped
    with a warning.
    """
    rows = []
    names, codes = sorted_codes(bucket_keys)
    buckets = _splitter(codes)(np.arange(codes.shape[0]))
    min_rows = math.ceil(1.0 / trim_frac) if trim_frac > 0 else 1
    for bucket, idx in zip(names, buckets):
        if idx.size < min_rows:
            warnings.warn(
                f"bucket {bucket!r} has {idx.size} rows (< {min_rows}), skipped",
                stacklevel=2,
            )
            continue
        row: dict = {"bucket": bucket, "obs": int(idx.size)}
        row["median_actual"] = _median(actual[idx])
        row["tmean_actual"] = truncated_mean(actual[idx], trim_frac)
        scores = _scores(idx, firm_ids, dates, actual, models, trim_frac)
        for name, values in models.items():
            row[f"median_{name}"] = _median(values[idx])
            row[f"tmean_{name}"] = truncated_mean(values[idx], trim_frac)
            row.update((f"{metric}_{name}", value) for metric, value in next(scores).items())
        rows.append(row)
    return rows
