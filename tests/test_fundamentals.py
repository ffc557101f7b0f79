import pytest

from e2credit.fundamentals import (
    debt_per_share,
    financial_debt,
    select_volatility,
)


class TestFinancialDebt:
    def test_banking_uses_only_ltd(self):
        assert financial_debt(200, 77, 31, 12, 9, is_banking=True) == 200
        assert financial_debt(200, 1e6, 1e6, 1e6, 1e6, is_banking=True) == 200

    def test_non_banking_weights(self):
        assert financial_debt(100, 50, 40, 20, 10) == 184  # 100 + 50 + 0.5*60 + 0.4*10

    def test_zero_balance_sheet(self):
        assert financial_debt(0.0) == 0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError, match="long_term_debt"):
            financial_debt(-1)
        # A bank's unused amounts are still checked.
        with pytest.raises(ValueError, match="lease_obligations"):
            financial_debt(200, lease_obligations=-1, is_banking=True)


class TestDebtPerShare:
    def test_plain(self):
        assert debt_per_share(1000, 100, 0, stock_price=10, market_cap=500) == 18.0

    def test_minority_cap_active(self):
        assert debt_per_share(1000, 800, 0, stock_price=10, market_cap=500) == 10.0

    def test_floor_active(self):
        assert debt_per_share(10, 0, 0, stock_price=10, market_cap=1000) == 1.0

    def test_zero_financial_debt_yields_zero(self):
        # No debt means no default barrier; the floor must not invent one.
        assert debt_per_share(0.0, 0, 0, stock_price=10, market_cap=1000) == 0.0

    def test_preferred_cap(self):
        shares = (500 + 250) / 10  # preferred 400 capped to 250
        assert debt_per_share(900, 0, 400, stock_price=10, market_cap=500) == 900 / shares

    def test_caps_idempotent(self):
        first = debt_per_share(1000, 800, 400, stock_price=10, market_cap=500)
        assert debt_per_share(1000, 500, 250, stock_price=10, market_cap=500) == first

    def test_fx_applied_before_caps(self):
        # Minority 900 is 450 after fx, capped at 250.
        d = debt_per_share(1000, 900, 0, stock_price=10, market_cap=500,
                           fx_report_to_quote=0.5)
        assert d == (500.0 - 250.0) / 50.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"minority_interest": -1}, "minority_interest must be a finite amount >= 0"),
            ({"preferred_equity": float("nan")}, "preferred_equity must be a finite amount"),
            ({"stock_price": 0}, "stock_price must be finite and > 0"),
            ({"market_cap": -5}, "market_cap must be finite and > 0"),
            ({"fx_report_to_quote": float("inf")}, "fx_report_to_quote must be finite"),
            ({"fin_debt": -1}, "fin_debt must be a finite amount >= 0"),
        ],
    )
    def test_bad_argument_named(self, kwargs, message):
        args = dict(fin_debt=1000, minority_interest=0, preferred_equity=0,
                    stock_price=10, market_cap=500, fx_report_to_quote=1.0)
        with pytest.raises(ValueError, match=message):
            debt_per_share(**{**args, **kwargs})

    def test_floor_invariant_randomized(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(300):
            price = rng.uniform(1, 200)
            d = debt_per_share(
                rng.uniform(0.01, 1e4),
                rng.uniform(0, 1e4),
                rng.uniform(0, 1e4),
                stock_price=price,
                market_cap=rng.uniform(10, 1e5),
                fx_report_to_quote=rng.uniform(0.2, 3.0),
            )
            assert d >= 0.1 * price - 1e-12


class TestSelectVolatility:
    def test_odd_median(self):
        assert select_volatility([0.2, 0.3, 0.4]) == 0.3

    def test_singleton(self):
        assert select_volatility([0.25]) == 0.25

    def test_even_median_mean_of_central(self):
        assert select_volatility([0.2, 0.3, 0.4, 0.5]) == pytest.approx(0.35)

    def test_within_range(self):
        vol = select_volatility([0.21, 0.33, 0.18, 0.52, 0.44])
        assert 0.18 <= vol <= 0.52

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_volatility([])

    def test_negative_quote_rejected(self):
        with pytest.raises(ValueError, match="volatility quote must be a finite amount"):
            select_volatility([0.2, -0.1])
