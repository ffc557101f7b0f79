"""Balance-sheet inputs for the spread formulas.

Derives financial debt, debt-per-share (with the standard caps and floor)
and the volatility input (median of all available quotes) over float64
columns, one entry per row. Nothing is checked here: snapshots._price masks
the rows whose arguments fail, and names the first bad one with the
message templates below.
"""
from __future__ import annotations

import numpy as np

#: Snapshot columns of the annualized vol quotes: historical by window
#: (days), then implied by option maturity (months, puts 0.5 sigma out of
#: the money).
QUOTE_COLUMNS = tuple(f"hist_vol_{w}" for w in (30, 60, 120, 200, 260, 360)) + tuple(
    f"impl_vol_{m}m" for m in (3, 6, 12, 18, 24)
)


AMOUNT_PROBLEM = "{} must be a finite amount >= 0, got {!r}"
POSITIVE_PROBLEM = "{} must be finite and > 0, got {!r}"


# Python's min(a, b) and max(a, b) elementwise: the first argument unless the
# second compares smaller (larger), so a NaN first argument is kept.
def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def financial_debt(ltd, std, olt, ost, lease, is_banking):
    """Financial debt per row, in report currency: long-term debt for banks
    (deposits are not leverage, and their other amounts are not read);
    otherwise LTD + STD + 0.5 * other liabilities + 0.4 * lease
    obligations."""
    return np.where(is_banking == 1.0, ltd, ltd + std + 0.5 * (olt + ost) + 0.4 * lease)


def debt_per_share(fin_debt, minority_interest, preferred_equity, stock_price, market_cap,
                   fx_report_to_quote):
    """Debt per adjusted share per row, in quote currency.

    Report-currency amounts (financial debt, minority interest, preferred
    equity) are converted first; minority interest is capped at 50% of the
    financial debt and preferred equity at 50% of the market cap. The share
    count is (market_cap + preferred) / stock_price, and the result is
    floored at 10% of the stock price (which also absorbs any negative
    numerator left by FX rounding). A firm with no financial debt at all
    yields 0: the default barrier vanishes and the spread models treat the
    hazard as null, so the floor must not manufacture debt.
    """
    fin_d = fin_debt * fx_report_to_quote
    min_int = _min(minority_interest * fx_report_to_quote, 0.5 * fin_d)
    pref = _min(preferred_equity * fx_report_to_quote, 0.5 * market_cap)
    shares = (market_cap + pref) / stock_price
    d_raw = (fin_d - min_int) / shares
    return np.where(fin_d == 0.0, 0.0, _max(d_raw, 0.1 * stock_price))


def select_volatility(quotes: np.ndarray) -> np.ndarray:
    """Median of each row's quotes (mean of the central two when even), per
    row of a (rows, quotes) array, NaN for a blank quote. A stable sort keeps
    equal quotes (0.0 and -0.0) in column order, as sorted() does."""
    ordered = np.sort(quotes, axis=1, kind="stable")  # blanks sort last
    count = np.count_nonzero(~np.isnan(quotes), axis=1)
    rows = np.arange(quotes.shape[0])
    upper = ordered[rows, count // 2]
    lower = ordered[rows, count // 2 - 1]
    return np.where(count % 2 == 1, upper, (lower + upper) / 2)
