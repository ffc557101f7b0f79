"""Closed-form credit spread approximations.

Two models, both returning annualized spreads in basis points:

* the equity-to-credit (E2C) formula, a one-line approximation driven by
  leverage and equity volatility,
* the CreditGrades survival-probability model used as its reference.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

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


def norm_cdf(x: float) -> float:
    """P(Z <= x) for a standard normal Z, through the stdlib's math.erfc."""
    return 0.5 * math.erfc(-x / _SQRT2)


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


@dataclass(frozen=True)
class SpreadInputs:
    """Per-firm market inputs: spot price, equity vol, debt per share."""

    stock_price: float
    equity_vol: float
    debt_per_share: float

    def __post_init__(self) -> None:
        s0 = _require_finite("stock_price", self.stock_price)
        vol = _require_finite("equity_vol", self.equity_vol)
        d = _require_finite("debt_per_share", self.debt_per_share)
        if s0 <= 0.0:
            raise ValueError(f"stock_price must be > 0, got {s0}")
        if vol < 0.0:
            raise ValueError(f"equity_vol must be >= 0, got {vol}")
        if d < 0.0:
            raise ValueError(f"debt_per_share must be >= 0, got {d}")


def mad_ratio(inputs: SpreadInputs, debt_recovery: float) -> float:
    """Market-adjusted debt ratio: barrier debt over enterprise market value.

    Returns L*D / (S0 + L*D), in [0, 1): zero exactly when the firm has no
    debt, increasing in debt and decreasing in the stock price.
    """
    lbar = _require_finite("debt_recovery", debt_recovery)
    if lbar <= 0.0:
        raise ValueError(f"debt_recovery must be > 0, got {lbar}")
    barrier = lbar * inputs.debt_per_share
    return barrier / (inputs.stock_price + barrier)


def e2c_spread(inputs: SpreadInputs, params: ModelParams) -> float:
    """Equity-to-credit spread approximation in basis points.

    spread = (1 - R) * (4/9) * mad_ratio * equity_vol^2, scaled to bps.
    Zero iff the debt or the volatility is zero or recovery is total.
    Raises ValueError when the spread overflows to a non-finite value.
    """
    ratio = mad_ratio(inputs, params.debt_recovery)
    hazard = GAUSS_FACTOR * ratio * inputs.equity_vol * inputs.equity_vol
    return _require_finite("e2c_bps", (1.0 - params.recovery) * hazard * BPS)


def e2c_spread_columns(stock_price, equity_vol, debt_per_share, params: ModelParams):
    """e2c_spread per row of float64 columns, in the same operation order;
    unchecked, so an overflow gives inf."""
    barrier = params.debt_recovery * debt_per_share
    ratio = barrier / (stock_price + barrier)
    hazard = GAUSS_FACTOR * ratio * equity_vol * equity_vol
    return (1.0 - params.recovery) * hazard * BPS


def _clamp_probability(value: float) -> float:
    """Clamp a computed probability into [0, 1], warning on large excursions."""
    if value < -_CLAMP_TOL or value > 1.0 + _CLAMP_TOL:
        warnings.warn(
            f"survival probability {value!r} clamped into [0, 1]",
            RuntimeWarning,
            stacklevel=3,
        )
    return min(max(value, 0.0), 1.0)


def creditgrades_survival(
    inputs: SpreadInputs, params: ModelParams, horizon: float
) -> float:
    """CreditGrades survival probability at the given horizon in years.

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
    barrier = params.debt_recovery * inputs.debt_per_share
    if barrier == 0.0:
        return 1.0
    enterprise = inputs.stock_price + barrier
    d = enterprise / barrier * math.exp(lam * lam)
    scaled_vol = inputs.equity_vol * inputs.stock_price / enterprise
    a_sq = scaled_vol * scaled_vol * horizon + lam * lam
    if a_sq == 0.0 or d == math.inf:
        # d > 1 always holds here (enterprise > barrier), so the barrier
        # cannot be reached without variance; survival also tends to 1 as
        # d grows past the float range.
        return 1.0
    a = math.sqrt(a_sq)
    log_d = math.log(d)
    surv = norm_cdf(-a / 2.0 + log_d / a) - d * norm_cdf(-a / 2.0 - log_d / a)
    return _clamp_probability(surv)


def creditgrades_spread(inputs: SpreadInputs, params: ModelParams) -> float:
    """CreditGrades spread in basis points at the calibrated maturity.

    The survival probability is converted to a flat hazard rate h through
    surv = exp(-h * T) and priced as (1 - R) * h. Saturated at
    MAX_SPREAD_BPS when survival reaches zero.
    """
    surv = creditgrades_survival(inputs, params, params.maturity)
    if surv >= 1.0:
        return 0.0
    if surv <= 0.0:
        return MAX_SPREAD_BPS
    hazard = -math.log(surv) / params.maturity
    spread = (1.0 - params.recovery) * hazard * BPS
    return min(spread, MAX_SPREAD_BPS)
