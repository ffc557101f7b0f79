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
from .fundamentals import QUOTE_COLUMNS, debt_per_share, financial_debt, select_volatility
from .structural import ModelParams, e2c_spread, exp, log

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

    # Per-firm draws, firm by firm, each then an array over firms.
    draws = [
        (rng.integers(0, len(COUNTRIES)), rng.integers(0, len(SECTORS)),
         rng.normal(9.0, 1.1), rng.uniform(10.0, 150.0), rng.uniform(0.05, 1.4),
         rng.uniform(0.15, 0.55), rng.uniform(0.6, 1.6), rng.random(),
         rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.15), rng.normal(0.0, 1.0),
         rng.random(), rng.integers(-1, 2),
         rng.normal(0.0, 1.0, n_dates), rng.normal(0.0, 1.0, n_dates))
        for _ in range(n_firms)
    ]
    (country, sector, log_cap, price0, leverage, base_vol, fx_candidate, fx_u,
     min_int_frac, pref_frac, code_eps, agency_u, shift, vol_eps, price_eps) = (
        np.array(column) for column in zip(*draws))
    is_banking = sector == SECTORS.index("financial")
    cap0 = exp(log_cap)
    fx = np.where(fx_u < 0.7, 1.0, fx_candidate)
    raw_code = 16.0 - 6.0 * leverage - 10.0 * (base_vol - 0.15) + code_eps
    sp_code = np.clip(np.round(raw_code), 0, 16).astype(np.int64)
    moody_code = np.where(agency_u < 0.25, np.clip(sp_code + shift, 0, 16), sp_code)
    moody_missing = agency_u > 0.93
    # The worse agency's grade, as merge_ratings gives it.
    merged_code = np.where(moody_missing, sp_code, np.minimum(sp_code, moody_code))

    # Balance sheet, constant per firm, in report currency. The non-bank
    # pieces are weighted so financial_debt() recovers leverage * cap0.
    fin_d_report = leverage * cap0 / fx
    sheet = {
        "long_term_debt": np.where(is_banking, 1.0, 0.55) * fin_d_report,
        "short_term_debt": 0.20 * fin_d_report,
        "other_lt_liabilities": 0.30 * fin_d_report,
        "other_st_liabilities": 0.10 * fin_d_report,
        "lease_obligations": 0.125 * fin_d_report,
    }
    minority = min_int_frac * fin_d_report
    preferred = pref_frac * cap0 / fx
    fin_debt = financial_debt(*sheet.values(), is_banking)

    # Market paths, (firms, dates): an AR(1) log-vol state and a random walk
    # in log price, both started at 0.
    vol_state = np.empty((n_firms, n_dates))
    state = np.zeros(n_firms)
    for t in range(n_dates):
        state = 0.9 * state + 0.08 * vol_eps[:, t]
        vol_state[:, t] = state
    growth = exp(np.cumsum(0.02 * price_eps, axis=1))

    # One row per (firm, date), firm-major; per-firm values repeat over dates.
    def per_row(firm_values):
        return np.repeat(firm_values, n_dates)

    vol = (base_vol[:, None] * exp(vol_state)).ravel()
    price = (price0[:, None] * growth).ravel()
    cap = (cap0[:, None] * growth).ravel()
    quotes = vol[:, None] * np.array(_HIST_MULT + _IMPL_MULT)
    d = debt_per_share(per_row(fin_debt), per_row(minority), per_row(preferred), price, cap,
                       per_row(fx))
    e2c = e2c_spread(price, select_volatility(quotes), d, params)
    index = np.tile(cdx, n_firms)
    signal = (
        _LABEL_INTERCEPT
        + _E2C_SLOPE * e2c
        + _E2C_SQRT * np.sqrt(e2c)
        + _RATING_COEF * (10.0 - per_row(merged_code))
        + _SIZE_COEF * (9.0 - log(cap))
        + _INDEX_COEF * (index - 70.0)
    )
    signal_var = float(signal.var())
    noise_sigma = math.sqrt(signal_var * (1.0 - bayes_r2) / bayes_r2)
    noise = rng.normal(0.0, noise_sigma, signal.size) if noise_sigma > 0 else 0.0
    labels = np.maximum(signal + noise, 1.0)
    label_var = float(labels.var())

    sp_rating = [rating_label(code) for code in per_row(sp_code).tolist()]
    moody_rating = [None if missing else moody_label(code)
                    for code, missing in zip(per_row(moody_code).tolist(),
                                             per_row(moody_missing).tolist())]
    if missing_rate > 0.0:
        for i in np.flatnonzero(rng.random(signal.size) < missing_rate).tolist():
            sp_rating[i] = moody_rating[i] = None
    columns = {
        "firm_id": [f"F{i:04d}" for i in range(n_firms) for _ in range(n_dates)],
        "date": dates * n_firms,
        "stock_price": price.tolist(),
        "market_cap": cap.tolist(),
        "fx_rate": per_row(fx).tolist(),
        "is_banking": per_row(is_banking).tolist(),
        **{name: per_row(amount).tolist() for name, amount in sheet.items()},
        "minority_interest": per_row(minority).tolist(),
        "preferred_equity": per_row(preferred).tolist(),
        "sp_rating": sp_rating,
        "moody_rating": moody_rating,
        "sector": [SECTORS[k] for k in per_row(sector).tolist()],
        "country": [COUNTRIES[k] for k in per_row(country).tolist()],
        "ig_cdx_bps": index.tolist(),
        **dict(zip(QUOTE_COLUMNS, quotes.T.tolist())),
        "cds_5y_bps": labels.tolist(),
    }
    rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]

    meta = {
        "n_firms": n_firms,
        "n_dates": n_dates,
        "seed": seed,
        "missing_rate": missing_rate,
        "bayes_r2_target": bayes_r2,
        "noise_sigma": noise_sigma,
        "signal_var": signal_var,
        # None (a blank cell) where the labels do not vary, as in a one-row panel.
        "bayes_r2_realized": 1.0 - noise_sigma**2 / label_var if label_var > 0.0 else None,
    }
    return rows, meta
