import numpy as np
import pytest

from e2credit.fundamentals import (
    debt_per_share,
    financial_debt,
    select_volatility,
)

from conftest import col, spread_reason


def fin_debt(ltd, std=0.0, olt=0.0, ost=0.0, lease=0.0, is_banking=False):
    """financial_debt of one row, as a float."""
    return float(financial_debt(col(ltd), col(std), col(olt), col(ost), col(lease),
                                col(is_banking))[0])


def dps(fin, minority_interest, preferred_equity, stock_price, market_cap,
        fx_report_to_quote=1.0):
    """debt_per_share of one row, as a float."""
    return float(debt_per_share(col(fin), col(minority_interest), col(preferred_equity),
                                col(stock_price), col(market_cap), col(fx_report_to_quote))[0])


def median(*quotes):
    """select_volatility of one row of quotes, as a float."""
    return float(select_volatility(col(*quotes)[None, :])[0])


class TestFinancialDebt:
    def test_banking_uses_only_ltd(self):
        assert fin_debt(200, 77, 31, 12, 9, is_banking=True) == 200
        assert fin_debt(200, 1e6, 1e6, 1e6, 1e6, is_banking=True) == 200
        # A bank's blank amounts are not read.
        assert fin_debt(200, np.nan, np.nan, np.nan, np.nan, is_banking=True) == 200

    def test_non_banking_weights(self):
        assert fin_debt(100, 50, 40, 20, 10) == 184  # 100 + 50 + 0.5*60 + 0.4*10

    def test_zero_balance_sheet(self):
        assert fin_debt(0.0) == 0

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"long_term_debt": -1.0}, "long_term_debt must be a finite amount >= 0, got -1.0"),
            # A bank's unused amounts are still checked.
            ({"is_banking": True, "lease_obligations": -1.0},
             "lease_obligations must be a finite amount >= 0, got -1.0"),
        ],
    )
    def test_negative_amount_rejected(self, tmp_path, overrides, reason):
        assert spread_reason(tmp_path / "s.csv", **overrides) == reason


class TestDebtPerShare:
    def test_plain(self):
        assert dps(1000, 100, 0, stock_price=10, market_cap=500) == 18.0

    def test_minority_cap_active(self):
        assert dps(1000, 800, 0, stock_price=10, market_cap=500) == 10.0

    def test_floor_active(self):
        assert dps(10, 0, 0, stock_price=10, market_cap=1000) == 1.0

    def test_zero_financial_debt_yields_zero(self):
        # No debt means no default barrier; the floor must not invent one.
        assert dps(0.0, 0, 0, stock_price=10, market_cap=1000) == 0.0

    def test_preferred_cap(self):
        shares = (500 + 250) / 10  # preferred 400 capped to 250
        assert dps(900, 0, 400, stock_price=10, market_cap=500) == 900 / shares

    def test_caps_idempotent(self):
        first = dps(1000, 800, 400, stock_price=10, market_cap=500)
        assert dps(1000, 500, 250, stock_price=10, market_cap=500) == first

    def test_fx_applied_before_caps(self):
        # Minority 900 is 450 after fx, capped at 250.
        d = dps(1000, 900, 0, stock_price=10, market_cap=500, fx_report_to_quote=0.5)
        assert d == (500.0 - 250.0) / 50.0

    # Each argument check as the spread command applies it. A CSV cell cannot
    # hold a NaN or an infinity, so those become a blank cell and a zero FX
    # rate; the financial debt fails only by overflowing.
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"minority_interest": -1.0}, "minority_interest must be a finite amount >= 0"),
            ({"preferred_equity": None}, "missing preferred_equity"),
            ({"stock_price": 0.0}, "stock_price must be finite and > 0"),
            ({"market_cap": -5.0}, "market_cap must be finite and > 0"),
            ({"fx_rate": 0.0}, "fx_report_to_quote must be finite and > 0"),
            ({"long_term_debt": 1.7e308, "short_term_debt": 1.7e308},
             "fin_debt must be a finite amount >= 0, got inf"),
        ],
    )
    def test_bad_argument_named(self, tmp_path, overrides, message):
        assert spread_reason(tmp_path / "s.csv", **overrides).startswith(message)

    def test_floor_invariant_randomized(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(300):
            price = rng.uniform(1, 200)
            rows.append((rng.uniform(0.01, 1e4), rng.uniform(0, 1e4), rng.uniform(0, 1e4), price,
                         rng.uniform(10, 1e5), rng.uniform(0.2, 3.0)))
        fin, minority, preferred, price, cap, fx = np.array(rows).T
        d = debt_per_share(fin, minority, preferred, price, cap, fx)
        assert (d >= 0.1 * price - 1e-12).all()


class TestSelectVolatility:
    def test_odd_median(self):
        assert median(0.2, 0.3, 0.4) == 0.3

    def test_singleton(self):
        assert median(0.25) == 0.25

    def test_even_median_mean_of_central(self):
        assert median(0.2, 0.3, 0.4, 0.5) == pytest.approx(0.35)

    def test_within_range(self):
        vol = median(0.21, 0.33, 0.18, 0.52, 0.44)
        assert 0.18 <= vol <= 0.52

    def test_empty_rejected(self, tmp_path):
        blank = dict.fromkeys(("hist_vol_30", "hist_vol_60", "hist_vol_120"))
        assert spread_reason(tmp_path / "s.csv", **blank) == "no volatility quotes"

    def test_negative_quote_rejected(self, tmp_path):
        assert spread_reason(tmp_path / "s.csv", hist_vol_60=-0.1) == (
            "volatility quote must be a finite amount >= 0, got -0.1")
