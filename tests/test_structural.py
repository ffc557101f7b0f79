import math

import numpy as np
import pytest

from e2credit.structural import (
    MAX_SPREAD_BPS,
    ModelParams,
    SpreadInputs,
    _clamp_probability,
    creditgrades_spread,
    creditgrades_survival,
    e2c_spread,
    mad_ratio,
)

PARAMS = ModelParams()


def survival_oracle(s0, vol, d, lbar, lam, t):
    """Independent evaluation of the survival formula via math.erfc."""
    ld = lbar * d
    dd = (s0 + ld) / ld * math.exp(lam * lam)
    a = math.sqrt((vol * s0 / (s0 + ld)) ** 2 * t + lam * lam)
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    return phi(-a / 2 + math.log(dd) / a) - dd * phi(-a / 2 - math.log(dd) / a)


class TestMadRatio:
    def test_examples(self):
        assert mad_ratio(SpreadInputs(100, 0.3, 50), 0.5) == pytest.approx(0.2, abs=1e-15)
        assert mad_ratio(SpreadInputs(100, 0.3, 0), 0.5) == 0.0
        assert mad_ratio(SpreadInputs(50, 0.3, 100), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotonicity(self):
        base = mad_ratio(SpreadInputs(100, 0.3, 50), 0.5)
        assert mad_ratio(SpreadInputs(100, 0.3, 60), 0.5) > base
        assert mad_ratio(SpreadInputs(110, 0.3, 50), 0.5) < base

    def test_bounds_and_limit(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            inputs = SpreadInputs(rng.uniform(1, 500), 0.3, rng.uniform(0, 1000))
            ratio = mad_ratio(inputs, rng.uniform(0.1, 1.0))
            assert 0.0 <= ratio < 1.0
        s0 = 40.0
        assert mad_ratio(SpreadInputs(s0, 0.3, 1e12 * s0), 0.5) > 0.999

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            SpreadInputs(-1.0, 0.3, 50)
        with pytest.raises(ValueError):
            SpreadInputs(100.0, -0.3, 50)
        with pytest.raises(ValueError):
            SpreadInputs(100.0, 0.3, float("nan"))
        with pytest.raises(ValueError):
            mad_ratio(SpreadInputs(100, 0.3, 50), 0.0)


class TestE2C:
    def test_hand_examples(self):
        assert e2c_spread(SpreadInputs(100, 0.30, 50), PARAMS) == pytest.approx(
            56.0, rel=1e-12
        )
        assert e2c_spread(SpreadInputs(100, 0.30, 0), PARAMS) == 0.0
        assert e2c_spread(SpreadInputs(50, 0.60, 100), PARAMS) == pytest.approx(
            560.0, rel=1e-12
        )

    def test_zero_conditions(self):
        assert e2c_spread(SpreadInputs(100, 0.0, 50), PARAMS) == 0.0
        full_recovery = ModelParams(recovery=1.0)
        assert e2c_spread(SpreadInputs(100, 0.3, 50), full_recovery) == 0.0

    def test_monotonicity(self):
        base = e2c_spread(SpreadInputs(100, 0.30, 50), PARAMS)
        assert e2c_spread(SpreadInputs(100, 0.30, 60), PARAMS) > base
        assert e2c_spread(SpreadInputs(100, 0.35, 50), PARAMS) > base
        assert e2c_spread(SpreadInputs(120, 0.30, 50), PARAMS) < base

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="e2c_bps must be finite, got inf"):
            e2c_spread(SpreadInputs(100, 1e200, 50), PARAMS)

    def test_linear_in_one_minus_recovery(self):
        inputs = SpreadInputs(87.0, 0.41, 33.0)
        no_recovery = e2c_spread(inputs, ModelParams(recovery=0.0))
        assert no_recovery * 0.7 == pytest.approx(
            e2c_spread(inputs, PARAMS), rel=1e-12
        )


class TestCreditGradesSurvival:
    def test_reference_value(self):
        surv = creditgrades_survival(SpreadInputs(100, 0.30, 50), PARAMS, 5.0)
        oracle = survival_oracle(100, 0.30, 50, 0.5, 0.3, 5.0)
        assert abs(surv - oracle) < 1e-12
        assert surv == pytest.approx(0.98717, abs=2e-5)

    def test_vanishing_volatility(self):
        params = ModelParams(debt_recovery_vol=0.0)
        assert creditgrades_survival(SpreadInputs(100, 1e-9, 50), params, 5.0) == \
            pytest.approx(1.0, abs=1e-12)
        assert creditgrades_survival(SpreadInputs(100, 0.0, 50), params, 5.0) == 1.0

    def test_zero_debt_convention(self):
        assert creditgrades_survival(SpreadInputs(100, 0.3, 0.0), PARAMS, 5.0) == 1.0

    def test_probability_bounds_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            inputs = SpreadInputs(
                rng.uniform(0.5, 400), rng.uniform(0, 2.5), rng.uniform(0, 800)
            )
            surv = creditgrades_survival(inputs, PARAMS, rng.uniform(0.1, 30))
            assert 0.0 <= surv <= 1.0

    def test_monotone_in_horizon(self):
        inputs = SpreadInputs(100, 0.30, 50)
        values = [creditgrades_survival(inputs, PARAMS, float(t)) for t in range(1, 11)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            creditgrades_survival(SpreadInputs(100, 0.3, 50), PARAMS, 0.0)

    def test_clamp_warning(self):
        with pytest.warns(RuntimeWarning):
            assert _clamp_probability(1.0 + 1e-6) == 1.0
        with pytest.warns(RuntimeWarning):
            assert _clamp_probability(-1e-6) == 0.0
        assert _clamp_probability(1.0 + 1e-12) == 1.0  # inside tolerance, silent


class TestCreditGradesSpread:
    def test_reference_value(self):
        spread = creditgrades_spread(SpreadInputs(100, 0.30, 50), PARAMS)
        oracle_surv = survival_oracle(100, 0.30, 50, 0.5, 0.3, 5.0)
        expected = -math.log(oracle_surv) / 5.0 * 0.7 * 1e4
        assert spread == pytest.approx(expected, rel=1e-9)
        assert spread == pytest.approx(18.1, abs=0.1)

    def test_zero_debt(self):
        assert creditgrades_spread(SpreadInputs(100, 0.30, 0.0), PARAMS) == 0.0

    def test_monotone_in_debt(self):
        base = creditgrades_spread(SpreadInputs(100, 0.30, 50), PARAMS)
        doubled = creditgrades_spread(SpreadInputs(100, 0.30, 100), PARAMS)
        assert doubled > base

    def test_saturation(self):
        spread = creditgrades_spread(SpreadInputs(100, 200.0, 50), PARAMS)
        assert spread == MAX_SPREAD_BPS

    def test_infinite_scaled_vol_saturates(self):
        # vol^2 overflows: the survival reaches 0 rather than raising.
        spread = creditgrades_spread(SpreadInputs(100, 1e200, 50), PARAMS)
        assert spread == MAX_SPREAD_BPS

    def test_underflowing_barrier_is_never_hit(self):
        # debt_recovery * debt_per_share rounds to 0.
        params = ModelParams(debt_recovery=1e-320)
        assert creditgrades_spread(SpreadInputs(100, 0.3, 1e-10), params) == 0.0

    def test_largest_debt_recovery_vol_stays_finite(self):
        # exp(lam^2) * (S0 + L*D) / (L*D) exceeds the float range: the
        # barrier is out of reach, not a NaN.
        params = ModelParams(debt_recovery_vol=26.64)
        assert creditgrades_spread(SpreadInputs(100, 0.3, 10), params) == 0.0

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            inputs = SpreadInputs(
                rng.uniform(0.5, 400), rng.uniform(0, 2.5), rng.uniform(0, 800)
            )
            e2c = e2c_spread(inputs, PARAMS)
            cg = creditgrades_spread(inputs, PARAMS)
            assert e2c >= 0.0 and math.isfinite(e2c)
            assert cg >= 0.0 and math.isfinite(cg)


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
