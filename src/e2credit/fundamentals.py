"""Balance-sheet inputs for the spread formulas.

Derives financial debt, debt-per-share (with the standard caps and floor)
and the volatility input (median of all available quotes) from plain
numbers. Each function checks its own arguments in order and raises
ValueError naming the first bad one. The *_columns functions compute the
same values over float64 columns, one entry per row, in the same operation
order; they check nothing, so callers mask the rows whose arguments fail.
"""
from __future__ import annotations

import math
import statistics

import numpy as np

#: Snapshot columns of the annualized vol quotes: historical by window
#: (days), then implied by option maturity (months, puts 0.5 sigma out of
#: the money).
QUOTE_COLUMNS = tuple(f"hist_vol_{w}" for w in (30, 60, 120, 200, 260, 360)) + tuple(
    f"impl_vol_{m}m" for m in (3, 6, 12, 18, 24)
)


AMOUNT_PROBLEM = "{} must be a finite amount >= 0, got {!r}"
POSITIVE_PROBLEM = "{} must be finite and > 0, got {!r}"


def _check_amount(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(AMOUNT_PROBLEM.format(name, value))
    return value


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(POSITIVE_PROBLEM.format(name, value))
    return value


def financial_debt(
    long_term_debt: float,
    short_term_debt: float = 0.0,
    other_lt_liabilities: float = 0.0,
    other_st_liabilities: float = 0.0,
    lease_obligations: float = 0.0,
    is_banking: bool = False,
) -> float:
    """Financial debt, in report currency: long-term debt for banks
    (deposits are not leverage); otherwise LTD + STD + 0.5 * other
    liabilities + 0.4 * lease obligations. Every amount must be >= 0."""
    ltd = _check_amount("long_term_debt", long_term_debt)
    std = _check_amount("short_term_debt", short_term_debt)
    olt = _check_amount("other_lt_liabilities", other_lt_liabilities)
    ost = _check_amount("other_st_liabilities", other_st_liabilities)
    lease = _check_amount("lease_obligations", lease_obligations)
    if is_banking:
        return ltd
    return ltd + std + 0.5 * (olt + ost) + 0.4 * lease


def debt_per_share(
    fin_debt: float,
    minority_interest: float,
    preferred_equity: float,
    stock_price: float,
    market_cap: float,
    fx_report_to_quote: float = 1.0,
) -> float:
    """Debt per adjusted share, in quote currency.

    Report-currency amounts (financial debt, minority interest, preferred
    equity) are converted first; minority interest is capped at 50% of the
    financial debt and preferred equity at 50% of the market cap. The share
    count is (market_cap + preferred) / stock_price, and the result is
    floored at 10% of the stock price (which also absorbs any negative
    numerator left by FX rounding). A firm with no financial debt at all
    yields 0: the default barrier vanishes and the spread models treat the
    hazard as null, so the floor must not manufacture debt.
    """
    min_int = _check_amount("minority_interest", minority_interest)
    pref = _check_amount("preferred_equity", preferred_equity)
    price = _check_positive("stock_price", stock_price)
    cap = _check_positive("market_cap", market_cap)
    fx = _check_positive("fx_report_to_quote", fx_report_to_quote)
    fin_d = _check_amount("fin_debt", fin_debt) * fx
    if fin_d == 0.0:
        return 0.0
    min_int = min(min_int * fx, 0.5 * fin_d)
    pref = min(pref * fx, 0.5 * cap)
    shares = (cap + pref) / price
    d_raw = (fin_d - min_int) / shares
    return max(d_raw, 0.1 * price)


def select_volatility(quotes: list[float]) -> float:
    """Median of the quotes (mean of the central two when even); each must
    be >= 0 and at least one is required."""
    if not quotes:
        raise ValueError("at least one volatility quote is required")
    pool = [_check_amount("volatility quote", q) for q in quotes]
    return float(statistics.median(pool))


# Python's min(a, b) and max(a, b) elementwise: the first argument unless the
# second compares smaller (larger), so a NaN first argument is kept.
def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def financial_debt_columns(ltd, std, olt, ost, lease, is_banking):
    """financial_debt per row; a bank's other amounts are not read."""
    return np.where(is_banking == 1.0, ltd, ltd + std + 0.5 * (olt + ost) + 0.4 * lease)


def debt_per_share_columns(fin_debt, minority_interest, preferred_equity, stock_price,
                           market_cap, fx_report_to_quote):
    """debt_per_share per row."""
    fin_d = fin_debt * fx_report_to_quote
    min_int = _min(minority_interest * fx_report_to_quote, 0.5 * fin_d)
    pref = _min(preferred_equity * fx_report_to_quote, 0.5 * market_cap)
    shares = (market_cap + pref) / stock_price
    d_raw = (fin_d - min_int) / shares
    return np.where(fin_d == 0.0, 0.0, _max(d_raw, 0.1 * stock_price))


def select_volatility_columns(quotes: np.ndarray) -> np.ndarray:
    """select_volatility per row of a (rows, quotes) array, NaN for a blank
    quote. A stable sort keeps equal quotes (0.0 and -0.0) in column order,
    as sorted() does."""
    ordered = np.sort(quotes, axis=1, kind="stable")  # blanks sort last
    count = np.count_nonzero(~np.isnan(quotes), axis=1)
    rows = np.arange(quotes.shape[0])
    upper = ordered[rows, count // 2]
    lower = ordered[rows, count // 2 - 1]
    return np.where(count % 2 == 1, upper, (lower + upper) / 2)
