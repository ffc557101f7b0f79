"""Output checks computed apart from the program.

Every check recomputes a result from the program's own outputs (or from the
inputs the benchmark wrote) with formulas written out here, and raises
CheckFailed on the first disagreement. Nothing is compared against a stored
copy of an earlier run. Rows are dicts of CSV cell strings, as csv.DictReader
yields them; the seeds loop builds the same shapes from library results.
"""
from __future__ import annotations

import csv
import math
import statistics
from collections import Counter

from workloads import QUOTE_COLUMNS

# The default calibration (RunConfig) every workload runs with.
RECOVERY = 0.3
DEBT_RECOVERY = 0.5
DEBT_RECOVERY_VOL = 0.3
MATURITY = 5.0
MAX_SPREAD_BPS = 1.0e6
FIRM_FRAC = 0.2
DATE_FRAC = 0.2


class CheckFailed(Exception):
    pass


def _fail_unless(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_key_values(path) -> dict:
    """Two-column CSVs: train_metrics.csv (metric, value)."""
    return {row["metric"]: row["value"] for row in read_rows(path)}


def read_split_manifest(path) -> tuple[set, set]:
    rows = read_rows(path)
    firms = {r["value"] for r in rows if r["kind"] == "removed_firm"}
    dates = {r["value"] for r in rows if r["kind"] == "removed_date"}
    return firms, dates


def _priced(rows):
    return [row for row in rows if row["reason"] == ""]


# ---------------------------------------------------------------------------
# Spread outputs
# ---------------------------------------------------------------------------


def check_e2c(rows) -> None:
    """e2c_bps = (1-R)(4/9) LD/(S0+LD) vol^2 1e4 from the row's own
    debt_per_share and selected_vol."""
    for row in _priced(rows):
        s0 = float(row["stock_price"])
        ld = DEBT_RECOVERY * float(row["debt_per_share"])
        vol = float(row["selected_vol"])
        want = (1.0 - RECOVERY) * (4.0 / 9.0) * ld / (s0 + ld) * vol * vol * 1e4
        got = float(row["e2c_bps"])
        _fail_unless(math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12),
                     f"e2c_bps {got!r} != {want!r} on {row['firm_id']} {row['date']}")


def check_vol_median(rows) -> None:
    """selected_vol is the median of the row's present quotes."""
    for row in _priced(rows):
        quotes = [float(row[c]) for c in QUOTE_COLUMNS if row[c] != ""]
        want = statistics.median(quotes)
        got = float(row["selected_vol"])
        _fail_unless(math.isclose(got, want, rel_tol=1e-15),
                     f"selected_vol {got!r} != median {want!r} on "
                     f"{row['firm_id']} {row['date']}")


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def creditgrades_oracle(s0: float, vol: float, d: float) -> float:
    """CreditGrades spread in bps through the erfc form of the normal CDF."""
    if d == 0.0:
        return 0.0
    ld = DEBT_RECOVERY * d
    lam2 = DEBT_RECOVERY_VOL**2
    big_d = (s0 + ld) / ld * math.exp(lam2)
    a = math.sqrt((vol * s0 / (s0 + ld)) ** 2 * MATURITY + lam2)
    surv = _phi(-a / 2 + math.log(big_d) / a) - big_d * _phi(-a / 2 - math.log(big_d) / a)
    surv = min(max(surv, 0.0), 1.0)
    if surv >= 1.0:
        return 0.0
    if surv <= 0.0:
        return MAX_SPREAD_BPS
    return min((1.0 - RECOVERY) * -math.log(surv) / MATURITY * 1e4, MAX_SPREAD_BPS)


def check_creditgrades(rows) -> None:
    for row in _priced(rows):
        want = creditgrades_oracle(float(row["stock_price"]), float(row["selected_vol"]),
                                   float(row["debt_per_share"]))
        got = float(row["creditgrades_bps"])
        # The program's Cody erfc and libm's differ in the last digits;
        # near survival 1 that becomes ~1e-12 bps.
        _fail_unless(abs(got - want) <= 1e-9 * abs(want) + 1e-6,
                     f"creditgrades_bps {got!r} != {want!r} on "
                     f"{row['firm_id']} {row['date']}")


def check_debt_floor(rows) -> None:
    """debt_per_share >= 0.1 * stock_price wherever there is debt."""
    for row in _priced(rows):
        d = float(row["debt_per_share"])
        s0 = float(row["stock_price"])
        _fail_unless(d == 0.0 or d >= 0.1 * s0,
                     f"debt_per_share {d!r} under the 10% floor of {s0!r} on "
                     f"{row['firm_id']} {row['date']}")


def _reason_kind(reason: str) -> str:
    return reason.split(", got ")[0]


def check_reasons(rows, expected: dict) -> None:
    """Each row priced or failed as the benchmark's own alterations say,
    and the priced count and per-reason counts agree."""
    _fail_unless(len(rows) == len(expected),
                 f"{len(rows)} spread rows, {len(expected)} input rows")
    for row in rows:
        want = expected.get((row["firm_id"], row["date"]))
        got = _reason_kind(row["reason"])
        _fail_unless(got == want, f"reason {row['reason']!r} != {want!r} on "
                                  f"{row['firm_id']} {row['date']}")
    got_counts = Counter(_reason_kind(row["reason"]) for row in rows)
    _fail_unless(got_counts == Counter(expected.values()),
                 f"reason counts {dict(got_counts)} != {dict(Counter(expected.values()))}")


def spread_checks(rows, expected: dict) -> list:
    return [
        ("e2c_formula", check_e2c, rows),
        ("vol_median", check_vol_median, rows),
        ("creditgrades_formula", check_creditgrades, rows),
        ("debt_floor", check_debt_floor, rows),
        ("failure_reasons", check_reasons, rows, expected),
    ]


# ---------------------------------------------------------------------------
# Training, evaluation and importance outputs
# ---------------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_split(train_metrics: dict, removed: tuple, complete_keys: set) -> None:
    """Row accounting of the firm/date split, recounted from the removed
    firms and dates over the rows the benchmark knows to be complete."""
    firms, dates = removed
    n_firms = len({f for f, _ in complete_keys})
    n_dates = len({d for _, d in complete_keys})
    _fail_unless(len(firms) == _round_half_up(FIRM_FRAC * n_firms),
                 f"{len(firms)} firms removed of {n_firms}")
    _fail_unless(len(dates) == _round_half_up(DATE_FRAC * n_dates),
                 f"{len(dates)} dates removed of {n_dates}")
    n_in = sum(1 for f, d in complete_keys if f not in firms and d not in dates)
    n_complete = len(complete_keys)
    for name, want in (("n_complete_rows", n_complete), ("n_in_sample", n_in),
                       ("n_out_of_sample", n_complete - n_in)):
        _fail_unless(float(train_metrics[name]) == want,
                     f"{name} {train_metrics[name]} != {want}")
    frac = float(train_metrics["realized_oos_fraction"])
    _fail_unless(math.isclose(frac, (n_complete - n_in) / n_complete, rel_tol=1e-12),
                 f"realized_oos_fraction {frac}")


def check_grid(train_metrics: dict, n_firms: int, n_dates: int) -> None:
    """On a complete F x T panel: (F - 0.2F)(T - 0.2T) rows in sample."""
    n_in = (n_firms - _round_half_up(FIRM_FRAC * n_firms)) * (
        n_dates - _round_half_up(DATE_FRAC * n_dates))
    _fail_unless(float(train_metrics["n_in_sample"]) == n_in,
                 f"n_in_sample {train_metrics['n_in_sample']} != {n_in}")
    frac = float(train_metrics["realized_oos_fraction"])
    want = 1.0 - n_in / (n_firms * n_dates)
    _fail_unless(math.isclose(frac, want, rel_tol=1e-12),
                 f"realized_oos_fraction {frac} != {want}")


def _r2(actual: list, predicted: list) -> float:
    mean = math.fsum(actual) / len(actual)
    ss_tot = math.fsum((a - mean) ** 2 for a in actual)
    ss_res = math.fsum((a - p) ** 2 for a, p in zip(actual, predicted))
    return 1.0 - ss_res / ss_tot


def check_overall_r2(overall_rows, timeseries_rows) -> None:
    """overall_metrics.csv R^2 per model, recomputed from timeseries.csv."""
    actual = [float(r["cds_5y_bps"]) for r in timeseries_rows]
    _fail_unless(len(overall_rows) == 3, f"{len(overall_rows)} overall rows")
    for row in overall_rows:
        pred = [float(r[f"{row['model']}_bps"]) for r in timeseries_rows]
        want = _r2(actual, pred)
        got = float(row["r2"])
        _fail_unless(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12),
                     f"{row['model']} r2 {got!r} != {want!r}")


def check_reloaded_r2(train_metrics: dict, timeseries_rows, removed: tuple) -> None:
    """The forest that evaluate reloaded reproduces the in-sample and
    out-of-sample R^2 that train reported."""
    firms, dates = removed
    groups = {True: ([], []), False: ([], [])}
    for r in timeseries_rows:
        actual, pred = groups[r["firm_id"] not in firms and r["date"] not in dates]
        actual.append(float(r["cds_5y_bps"]))
        pred.append(float(r["forest_bps"]))
    for in_sample, name in ((True, "in_sample_r2"), (False, "out_of_sample_r2")):
        want = _r2(*groups[in_sample])
        got = float(train_metrics[name])
        _fail_unless(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12),
                     f"{name} {got!r} != reloaded {want!r}")


def check_mdi(importance_rows) -> None:
    mdi = [float(r["mdi"]) for r in importance_rows]
    _fail_unless(min(mdi) >= 0.0, f"negative MDI {min(mdi)!r}")
    _fail_unless(abs(math.fsum(mdi) - 1.0) <= 1e-12, f"MDI sums to {math.fsum(mdi)!r}")


def _top(importance_rows, column) -> str:
    """The feature with the highest score (the first of equal ones)."""
    return max(importance_rows, key=lambda r: float(r[column]))["feature"]


def e2c_first(importance_rows) -> bool:
    return _top(importance_rows, "mdi") == _top(importance_rows, "permutation_vi") == "e2c_bps"


def check_win_share(wins: int, total: int) -> None:
    _fail_unless(wins >= 0.95 * total, f"e2c_bps first in {wins}/{total} seeds")


def run_checks(checks: list) -> list[str]:
    """Run (name, check, *args) entries; return 'name: detail' per failure.
    An output too malformed to recompute (a blank or non-numeric cell, a
    missing column) fails the check that reads it."""
    failures = []
    for name, check, *args in checks:
        try:
            check(*args)
        except CheckFailed as exc:
            failures.append(f"{name}: {exc}")
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            failures.append(f"{name}: unreadable output ({type(exc).__name__}: {exc})")
    return failures
