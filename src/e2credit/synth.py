"""Seeded synthetic firm-snapshot panel for pipeline validation.

Generates a complete firms x dates grid of plausible balance sheets, vol
quotes and market paths, derives each row's E2C spread through the same code
the pipeline uses, and sets the observed CDS label to

    cds = f(e2c) + rating effect + size effect + index effect + noise

with the noise level calibrated so the best achievable R^2 of any predictor
(the Bayes bound, Var(signal) / Var(signal + noise)) sits at a chosen target.
The E2C term carries most of the signal variance by construction, so a sound
importance method must rank it first.
"""
from __future__ import annotations

import math
from datetime import date as _date
from datetime import timedelta

import numpy as np

from .dataset import moody_label, rating_label
from .fundamentals import (
    QUOTE_COLUMNS,
    debt_per_share,
    financial_debt,
    select_volatility,
)
from .structural import ModelParams, SpreadInputs, e2c_spread

SECTORS = (
    "basic_materials",
    "communications",
    "consumer_cyclical",
    "consumer_noncyclical",
    "energy",
    "financial",
    "industrial",
    "utilities",
)
COUNTRIES = ("AU", "CA", "CH", "EU", "GB", "HK", "JP", "KR", "SE", "US")

# Fixed per-window quote spreads around the firm's current vol level; the
# median of the pooled quotes stays close to that level.
_HIST_MULT = (0.97, 0.99, 1.00, 1.01, 1.02, 1.03)
_IMPL_MULT = (0.98, 1.00, 1.01, 1.03, 1.05)

_LABEL_INTERCEPT = 12.0
_E2C_SLOPE = 1.02
_E2C_SQRT = 1.5
_RATING_COEF = 4.0
_SIZE_COEF = 6.0
_INDEX_COEF = 0.8


def _weekly_dates(n_dates: int) -> list[str]:
    start = _date(2016, 2, 5)  # a Friday
    return [(start + timedelta(weeks=k)).isoformat() for k in range(n_dates)]


def generate_snapshots(
    n_firms: int = 300,
    n_dates: int = 150,
    seed: int = 0,
    missing_rate: float = 0.0,
    bayes_r2: float = 0.90,
    params: ModelParams | None = None,
) -> tuple[list[dict], dict]:
    """Build snapshot-schema rows plus generation metadata.

    Returns (rows, meta); rows are dicts keyed by the snapshot CSV columns in
    firm-major order, meta records the noise level and the realized Bayes
    bound. Everything is a deterministic function of the arguments.
    """
    if n_firms < 1 or n_dates < 1:
        raise ValueError("n_firms and n_dates must be >= 1")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must be in [0, 1), got {missing_rate}")
    if not 0.0 < bayes_r2 <= 1.0:
        raise ValueError(f"bayes_r2 must be in (0, 1], got {bayes_r2}")
    params = params or ModelParams()
    rng = np.random.default_rng(seed)
    dates = _weekly_dates(n_dates)

    # Common credit-index path: AR(1) around 70 bps.
    cdx = np.empty(n_dates)
    level = 70.0
    for t, eps in enumerate(rng.normal(0.0, 1.0, n_dates)):
        level = 70.0 + 0.96 * (level - 70.0) + 2.2 * eps
        cdx[t] = max(level, 25.0)

    rows: list[dict] = []
    signals: list[float] = []
    for i in range(n_firms):
        firm_id = f"F{i:04d}"
        country = COUNTRIES[rng.integers(0, len(COUNTRIES))]
        sector = SECTORS[rng.integers(0, len(SECTORS))]
        is_banking = sector == "financial"
        log_cap = rng.normal(9.0, 1.1)
        cap0 = math.exp(log_cap)
        price0 = rng.uniform(10.0, 150.0)
        leverage = rng.uniform(0.05, 1.4)
        base_vol = rng.uniform(0.15, 0.55)
        fx_candidate = rng.uniform(0.6, 1.6)
        fx = 1.0 if rng.random() < 0.7 else fx_candidate
        min_int_frac = rng.uniform(0.0, 0.8)
        pref_frac = rng.uniform(0.0, 0.15)
        raw_code = 16.0 - 6.0 * leverage - 10.0 * (base_vol - 0.15) + rng.normal(0.0, 1.0)
        sp_code = int(min(max(round(raw_code), 0), 16))
        agency_u = rng.random()
        shift = int(rng.integers(-1, 2))
        moody_code = sp_code
        if agency_u < 0.25:
            moody_code = int(min(max(sp_code + shift, 0), 16))
        moody_missing = agency_u > 0.93
        vol_eps = rng.normal(0.0, 1.0, n_dates)
        price_eps = rng.normal(0.0, 1.0, n_dates)

        # Balance sheet, constant per firm, in report currency. The non-bank
        # pieces are weighted so financial_debt() recovers leverage * cap0.
        fin_d_report = leverage * cap0 / fx
        sheet = {
            "long_term_debt": (1.0 if is_banking else 0.55) * fin_d_report,
            "short_term_debt": 0.20 * fin_d_report,
            "other_lt_liabilities": 0.30 * fin_d_report,
            "other_st_liabilities": 0.10 * fin_d_report,
            "lease_obligations": 0.125 * fin_d_report,
        }
        minority = min_int_frac * fin_d_report
        preferred = pref_frac * cap0 / fx
        fin_debt = financial_debt(**sheet, is_banking=is_banking)

        # The worse agency's grade, as merge_ratings gives it.
        merged_code = sp_code if moody_missing else min(sp_code, moody_code)

        vol_state = 0.0
        walk = 0.0
        for t in range(n_dates):
            vol_state = 0.9 * vol_state + 0.08 * vol_eps[t]
            walk += 0.02 * price_eps[t]
            vol_t = base_vol * math.exp(vol_state)
            price_t = price0 * math.exp(walk)
            cap_t = cap0 * math.exp(walk)
            quotes = [vol_t * mult for mult in _HIST_MULT + _IMPL_MULT]
            d = debt_per_share(fin_debt, minority, preferred, price_t, cap_t, fx)
            sel_vol = select_volatility(quotes)
            e2c = e2c_spread(
                SpreadInputs(stock_price=price_t, equity_vol=sel_vol, debt_per_share=d),
                params,
            )
            signal = (
                _LABEL_INTERCEPT
                + _E2C_SLOPE * e2c
                + _E2C_SQRT * math.sqrt(e2c)
                + _RATING_COEF * (10.0 - merged_code)
                + _SIZE_COEF * (9.0 - math.log(cap_t))
                + _INDEX_COEF * (cdx[t] - 70.0)
            )
            signals.append(signal)
            row = {
                "firm_id": firm_id,
                "date": dates[t],
                "stock_price": price_t,
                "market_cap": cap_t,
                "fx_rate": fx,
                "is_banking": is_banking,
                **sheet,
                "minority_interest": minority,
                "preferred_equity": preferred,
                "sp_rating": rating_label(sp_code),
                "moody_rating": None if moody_missing else moody_label(moody_code),
                "sector": sector,
                "country": country,
                "ig_cdx_bps": cdx[t],
            }
            row.update(zip(QUOTE_COLUMNS, quotes))
            rows.append(row)

    signal_arr = np.array(signals)
    signal_var = float(signal_arr.var())
    noise_sigma = math.sqrt(signal_var * (1.0 - bayes_r2) / bayes_r2)
    noise = rng.normal(0.0, noise_sigma, len(rows)) if noise_sigma > 0 else 0.0
    labels = np.maximum(signal_arr + noise, 1.0)
    for row, label in zip(rows, labels):
        row["cds_5y_bps"] = float(label)

    if missing_rate > 0.0:
        gaps = rng.random(len(rows)) < missing_rate
        for row, gap in zip(rows, gaps):
            if gap:
                row["sp_rating"] = None
                row["moody_rating"] = None

    meta = {
        "n_firms": n_firms,
        "n_dates": n_dates,
        "seed": seed,
        "missing_rate": missing_rate,
        "bayes_r2_target": bayes_r2,
        "noise_sigma": noise_sigma,
        "signal_var": signal_var,
        "bayes_r2_realized": 1.0 - noise_sigma**2 / float(labels.var()),
    }
    return rows, meta
