import math

import numpy as np
import pytest

from e2credit.structural import (
    BPS,
    GAUSS_FACTOR,
    MAX_SPREAD_BPS,
    ModelParams,
    _clamp_probability,
    creditgrades_spread,
    creditgrades_survival,
    e2c_spread,
)

from conftest import col, oracle_survival, spread_reason

PARAMS = ModelParams()


def e2c(s0, vol, d, params=PARAMS):
    """e2c_spread of one row, as a float."""
    return float(e2c_spread(col(s0), col(vol), col(d), params)[0])


def survival(s0, vol, d, horizon, params=PARAMS):
    return float(creditgrades_survival(col(s0), col(vol), col(d), params, horizon)[0])


def cg(s0, vol, d, params=PARAMS):
    return float(creditgrades_spread(col(s0), col(vol), col(d), params)[0])


def debt_ratio(s0, d, debt_recovery):
    """The market-adjusted debt ratio L*D / (S0 + L*D) inside E2C, read back
    from a spread with no recovery and a vol whose square is exact."""
    spread = e2c(s0, 1.5, d, ModelParams(recovery=0.0, debt_recovery=debt_recovery))
    return spread / (GAUSS_FACTOR * 2.25 * BPS)


class TestMadRatio:
    def test_examples(self):
        assert debt_ratio(100, 50, 0.5) == pytest.approx(0.2, abs=1e-15)
        assert debt_ratio(100, 0, 0.5) == 0.0
        assert debt_ratio(50, 100, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotonicity(self):
        base = debt_ratio(100, 50, 0.5)
        assert debt_ratio(100, 60, 0.5) > base
        assert debt_ratio(110, 50, 0.5) < base

    def test_bounds_and_limit(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s0, d = rng.uniform(1, 500), rng.uniform(0, 1000)
            ratio = debt_ratio(s0, d, rng.uniform(0.1, 1.0))
            assert 0.0 <= ratio < 1.0
        s0 = 40.0
        assert debt_ratio(s0, 1e12 * s0, 0.5) > 0.999

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"stock_price": -1.0}, "stock_price must be finite and > 0, got -1.0"),
            ({"hist_vol_30": -0.3}, "volatility quote must be a finite amount >= 0, got -0.3"),
            # D = inf: the financial debt of a bank is finite, but not once
            # converted to the quote currency.
            ({"is_banking": True, "long_term_debt": 1e308, "fx_rate": 10.0},
             "debt_per_share must be finite, got inf"),
        ],
    )
    def test_domain_errors(self, tmp_path, overrides, reason):
        assert spread_reason(tmp_path / "s.csv", **overrides) == reason


class TestE2C:
    def test_hand_examples(self):
        spreads = e2c_spread(col(100, 100, 50), col(0.30, 0.30, 0.60), col(50, 0, 100), PARAMS)
        assert spreads[0] == pytest.approx(56.0, rel=1e-12)
        assert spreads[1] == 0.0
        assert spreads[2] == pytest.approx(560.0, rel=1e-12)

    def test_zero_conditions(self):
        assert e2c(100, 0.0, 50) == 0.0
        full_recovery = ModelParams(recovery=1.0)
        assert e2c(100, 0.3, 50, full_recovery) == 0.0

    def test_monotonicity(self):
        base = e2c(100, 0.30, 50)
        assert e2c(100, 0.30, 60) > base
        assert e2c(100, 0.35, 50) > base
        assert e2c(120, 0.30, 50) < base

    def test_overflow_rejected(self, tmp_path):
        with np.errstate(over="ignore"):
            assert e2c(100, 1e200, 50) == math.inf
        reason = spread_reason(tmp_path / "s.csv", hist_vol_30=1e200, hist_vol_60=1e200,
                               hist_vol_120=1e200)
        assert reason == "e2c_bps must be finite, got inf"

    def test_linear_in_one_minus_recovery(self):
        no_recovery = e2c(87.0, 0.41, 33.0, ModelParams(recovery=0.0))
        assert no_recovery * 0.7 == pytest.approx(e2c(87.0, 0.41, 33.0), rel=1e-12)


class TestCreditGradesSurvival:
    def test_reference_value(self):
        surv = survival(100, 0.30, 50, 5.0)
        oracle = oracle_survival(100, 0.30, 50, 0.5, 0.3, 5.0)
        assert abs(surv - oracle) < 1e-12
        assert surv == pytest.approx(0.98717, abs=2e-5)

    def test_vanishing_volatility(self):
        params = ModelParams(debt_recovery_vol=0.0)
        values = creditgrades_survival(col(100, 100), col(1e-9, 0.0), col(50, 50), params, 5.0)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == 1.0

    def test_zero_debt_convention(self):
        assert survival(100, 0.3, 0.0, 5.0) == 1.0

    def test_probability_bounds_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s0, vol, d = rng.uniform(0.5, 400), rng.uniform(0, 2.5), rng.uniform(0, 800)
            surv = survival(s0, vol, d, rng.uniform(0.1, 30))
            assert 0.0 <= surv <= 1.0

    def test_monotone_in_horizon(self):
        values = [survival(100, 0.30, 50, float(t)) for t in range(1, 11)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            survival(100, 0.3, 50, 0.0)

    def test_clamp_warning(self):
        with pytest.warns(RuntimeWarning):
            assert _clamp_probability(col(1.0 + 1e-6)).tolist() == [1.0]
        with pytest.warns(RuntimeWarning):
            assert _clamp_probability(col(-1e-6)).tolist() == [0.0]
        # inside tolerance, silent
        assert _clamp_probability(col(1.0 + 1e-12)).tolist() == [1.0]

    def test_one_warning_per_call(self):
        with pytest.warns(RuntimeWarning, match="2 survival probabilities") as caught:
            assert _clamp_probability(col(-1e-6, 0.5, 1.0 + 1e-6)).tolist() == [0.0, 0.5, 1.0]
        assert len(caught) == 1


class TestCreditGradesSpread:
    def test_reference_value(self):
        spread = cg(100, 0.30, 50)
        oracle_surv = oracle_survival(100, 0.30, 50, 0.5, 0.3, 5.0)
        expected = -math.log(oracle_surv) / 5.0 * 0.7 * 1e4
        assert spread == pytest.approx(expected, rel=1e-9)
        assert spread == pytest.approx(18.1, abs=0.1)

    def test_zero_debt(self):
        assert cg(100, 0.30, 0.0) == 0.0

    def test_monotone_in_debt(self):
        base, doubled = creditgrades_spread(col(100, 100), col(0.30, 0.30), col(50, 100), PARAMS)
        assert doubled > base

    def test_saturation(self):
        assert cg(100, 200.0, 50) == MAX_SPREAD_BPS

    def test_infinite_scaled_vol_saturates(self):
        # vol^2 overflows: the survival reaches 0 rather than raising.
        assert cg(100, 1e200, 50) == MAX_SPREAD_BPS

    def test_underflowing_barrier_is_never_hit(self):
        # debt_recovery * debt_per_share rounds to 0.
        params = ModelParams(debt_recovery=1e-320)
        assert cg(100, 0.3, 1e-10, params) == 0.0

    def test_largest_debt_recovery_vol_stays_finite(self):
        # exp(lam^2) * (S0 + L*D) / (L*D) exceeds the float range: the
        # barrier is out of reach, not a NaN.
        params = ModelParams(debt_recovery_vol=26.64)
        assert cg(100, 0.3, 10, params) == 0.0

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(11)
        draws = np.array([(rng.uniform(0.5, 400), rng.uniform(0, 2.5), rng.uniform(0, 800))
                          for _ in range(1000)])
        inputs = (draws[:, 0], draws[:, 1], draws[:, 2], PARAMS)
        for spreads in (e2c_spread(*inputs), creditgrades_spread(*inputs)):
            assert (spreads >= 0.0).all() and np.isfinite(spreads).all()

    def test_empty_input(self):
        assert creditgrades_spread(col(), col(), col(), PARAMS).shape == (0,)

    def test_rows_priced_alone_or_together_agree(self):
        # Every branch in one call: no debt, no variance, an unreachable
        # barrier, saturation and a plain row.
        params = ModelParams(debt_recovery_vol=0.0)
        s0, vol = col(100, 100, 100, 100, 100), col(0.3, 0.0, 0.3, 200.0, 0.3)
        d = col(0.0, 50, 1e-310, 50, 50)
        together = creditgrades_spread(s0, vol, d, params)
        alone = [cg(*row, params) for row in zip(s0, vol, d)]
        assert together.tolist() == alone
        assert together[:4].tolist() == [0.0, 0.0, 0.0, MAX_SPREAD_BPS]


class TestModelParams:
    def test_defaults(self):
        assert (PARAMS.recovery, PARAMS.debt_recovery) == (0.3, 0.5)
        assert (PARAMS.debt_recovery_vol, PARAMS.maturity) == (0.3, 5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"recovery": -0.1},
            {"recovery": 1.1},
            {"debt_recovery": 0.0},
            {"debt_recovery": 1.5},
            {"debt_recovery_vol": -0.2},
            {"debt_recovery_vol": 26.65},
            {"debt_recovery_vol": 30.0},
            {"maturity": 0.0},
            {"maturity": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)
