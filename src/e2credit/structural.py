"""Closed-form credit spread approximations.

Two models, both returning annualized spreads in basis points per row of
float64 columns:

* the equity-to-credit (E2C) formula, a one-line approximation driven by
  leverage and equity volatility,
* the CreditGrades survival-probability model used as its reference.

Neither checks its rows: the caller masks the rows whose inputs fail (see
snapshots._price). exp, log and erfc are the stdlib's, applied elementwise,
so every value has the bits of the one-row formula evaluated with math.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

BPS = 1.0e4
#: Spread reported when the survival probability underflows to zero;
#: keeps downstream tables finite.
MAX_SPREAD_BPS = 1.0e6
#: Sharpening factor of the one-sided concentration bound behind E2C.
GAUSS_FACTOR = 4.0 / 9.0
#: Survival values may leave [0, 1] by float noise; clamping beyond this
#: margin is reported as a numerical warning.
_CLAMP_TOL = 1.0e-9
#: Largest lam^2 for which exp(lam^2) is a finite double.
_MAX_EXPONENT = math.log(sys.float_info.max)
_SQRT2 = math.sqrt(2.0)


def _elementwise(fn):
    """A one-argument math function applied to each entry of a float64
    array: numpy's exp and log round some values to other bits than the
    stdlib's (its sqrt does not), and numpy has no erfc."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=np.float64)


#: math.exp and math.log per entry of a float64 array.
exp, log = _elementwise(math.exp), _elementwise(math.log)
_erfc = _elementwise(math.erfc)


def norm_cdf(x):
    """P(Z <= x) for a standard normal Z, per entry, through math.erfc."""
    return 0.5 * _erfc(-x / _SQRT2)


FINITE_PROBLEM = "{} must be finite, got {!r}"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(FINITE_PROBLEM.format(name, value))
    return value


@dataclass(frozen=True)
class ModelParams:
    """Calibration shared by both spread models.

    recovery: asset-specific recovery rate R in [0, 1].
    debt_recovery: average recovery on the debt (defines the default
        barrier as debt_recovery * debt_per_share), in (0, 1].
    debt_recovery_vol: standard deviation of the global recovery rate,
        used only by CreditGrades; >= 0, with exp(debt_recovery_vol^2)
        finite (about 26.6 at most).
    maturity: horizon in years used to convert survival to a spread; > 0.

    Defaults are the conservative market-standard calibration
    (0.3, 0.5, 0.3, 5y).
    """

    recovery: float = 0.3
    debt_recovery: float = 0.5
    debt_recovery_vol: float = 0.3
    maturity: float = 5.0

    def __post_init__(self) -> None:
        r = _require_finite("recovery", self.recovery)
        lbar = _require_finite("debt_recovery", self.debt_recovery)
        lam = _require_finite("debt_recovery_vol", self.debt_recovery_vol)
        t = _require_finite("maturity", self.maturity)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"recovery must be in [0, 1], got {r}")
        if not 0.0 < lbar <= 1.0:
            raise ValueError(f"debt_recovery must be in (0, 1], got {lbar}")
        if lam < 0.0:
            raise ValueError(f"debt_recovery_vol must be >= 0, got {lam}")
        if lam * lam > _MAX_EXPONENT:
            raise ValueError(
                f"debt_recovery_vol must be <= {math.sqrt(_MAX_EXPONENT):.4g} "
                f"so that exp(debt_recovery_vol^2) is finite, got {lam}"
            )
        if t <= 0.0:
            raise ValueError(f"maturity must be > 0, got {t}")


def e2c_spread(stock_price, equity_vol, debt_per_share, params: ModelParams):
    """Equity-to-credit spread in basis points, per row:

        spread = (1 - R) * (4/9) * L*D / (S0 + L*D) * equity_vol^2

    scaled to bps. L*D / (S0 + L*D), the market-adjusted debt ratio, lies in
    [0, 1): zero exactly without debt, increasing in debt and decreasing in
    the stock price. The spread is zero iff the debt or the volatility is
    zero or recovery is total; an overflow gives inf.
    """
    barrier = params.debt_recovery * debt_per_share
    ratio = barrier / (stock_price + barrier)
    hazard = GAUSS_FACTOR * ratio * equity_vol * equity_vol
    return (1.0 - params.recovery) * hazard * BPS


def _clamp_probability(value: np.ndarray) -> np.ndarray:
    """Clamp computed probabilities into [0, 1] as min(max(v, 0), 1) does,
    with one warning when any lies beyond the float-noise margin."""
    far = (value < -_CLAMP_TOL) | (value > 1.0 + _CLAMP_TOL)
    if far.any():
        warnings.warn(
            f"{np.count_nonzero(far)} survival probabilities clamped into [0, 1], "
            f"the first {float(value[far][0])!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    value = np.where(0.0 > value, 0.0, value)
    return np.where(1.0 < value, 1.0, value)


def creditgrades_survival(stock_price, equity_vol, debt_per_share, params: ModelParams,
                          horizon: float) -> np.ndarray:
    """CreditGrades survival probability per row at the given horizon in years.

    With L = debt_recovery, lam = debt_recovery_vol:

        d    = (S0 + L*D) / (L*D) * exp(lam^2)
        A^2  = (vol * S0 / (S0 + L*D))^2 * horizon + lam^2
        surv = Phi(-A/2 + ln(d)/A) - d * Phi(-A/2 - ln(d)/A)

    Conventions: a zero barrier L*D (no debt, or one that underflows) is
    never hit (survival 1); a vanishing A with d > 1, and a d too large for
    a float, are the unreachable-barrier limit (survival 1). The result is
    clamped into [0, 1].
    """
    horizon = _require_finite("horizon", horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    lam = params.debt_recovery_vol
    barrier = params.debt_recovery * debt_per_share
    with np.errstate(all="ignore"):
        enterprise = stock_price + barrier
        d = enterprise / barrier * math.exp(lam * lam)
        scaled_vol = equity_vol * stock_price / enterprise
        a_sq = scaled_vol * scaled_vol * horizon + lam * lam
    # d > 1 wherever the barrier is not zero (enterprise > barrier), so the
    # barrier cannot be reached without variance; survival also tends to 1
    # as d grows past the float range.
    live = (barrier != 0.0) & (a_sq != 0.0) & (d != math.inf)
    surv = np.ones(d.shape)
    a = np.sqrt(a_sq[live])
    d = d[live]
    log_d = log(d)
    surv[live] = _clamp_probability(
        norm_cdf(-a / 2.0 + log_d / a) - d * norm_cdf(-a / 2.0 - log_d / a))
    return surv


def creditgrades_spread(stock_price, equity_vol, debt_per_share,
                        params: ModelParams) -> np.ndarray:
    """CreditGrades spread in basis points per row, at the calibrated maturity.

    The survival probability is converted to a flat hazard rate h through
    surv = exp(-h * T) and priced as (1 - R) * h. Zero at survival 1 and
    saturated at MAX_SPREAD_BPS when survival reaches zero.
    """
    surv = creditgrades_survival(stock_price, equity_vol, debt_per_share, params,
                                 params.maturity)
    spread = np.where(surv <= 0.0, MAX_SPREAD_BPS, 0.0)
    inside = ~((surv >= 1.0) | (surv <= 0.0))
    hazard = -log(surv[inside]) / params.maturity
    priced = (1.0 - params.recovery) * hazard * BPS
    spread[inside] = np.where(MAX_SPREAD_BPS < priced, MAX_SPREAD_BPS, priced)
    return spread
