"""Workload inputs (seeded synthetic snapshot panels, written as CSV) and
the rule that makes a run of whole rounds.

The program sees only the CSV written here. For the `gappy` workload this
module also blanks or invalidates a seeded share of cells and derives, from
the cells it altered alone, what each row's pricing outcome must be and
which rows survive the completeness filter.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Called through their modules, so a tracer installed later sees the calls.
from e2credit import snapshots, synth

# (firms, dates) per workload. 50 x 38 leaves 40 x 30 = 1200 in-sample rows
# after the 20%/20% firm/date split, the subsample size of acceptance
# criterion 6.
SIZES = {"seeds": (50, 38), "gappy": (100, 60)}

# Forest seeds per round on `seeds`, as in the criterion's seed loop.
SEEDS_PER_ROUND = 20


def next_round_fits(start: float, done: int, seconds: float) -> bool:
    """Runs are whole rounds: after `done` rounds begun at `start`, another
    starts if, at their mean length, it should end within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds

HIST_COLUMNS = tuple(f"hist_vol_{w}" for w in (30, 60, 120, 200, 260, 360))
IMPL_COLUMNS = tuple(f"impl_vol_{m}m" for m in (3, 6, 12, 18, 24))
QUOTE_COLUMNS = HIST_COLUMNS + IMPL_COLUMNS

# The input contract of the spread command (README "Input format" and the
# row reasons it documents): inputs every row needs, and the extra
# balance-sheet items a non-bank needs. Order is the order rows are checked.
BANK_REQUIRED = ("stock_price", "market_cap", "fx_rate", "long_term_debt",
                 "minority_interest", "preferred_equity")
NONBANK_EXTRA = ("short_term_debt", "other_lt_liabilities",
                 "other_st_liabilities", "lease_obligations")
AMOUNT_COLUMNS = ("long_term_debt", "short_term_debt", "other_lt_liabilities",
                  "other_st_liabilities", "lease_obligations",
                  "minority_interest", "preferred_equity")

# Per-row alteration on `gappy`: (kind, share of rows). At most one per row.
# The first six make pricing fail (about 9.5% of rows); the rest leave the
# row priced, and the last three drop it at encoding.
GAPPY_ALTERATIONS = (
    ("blank_is_banking", 0.015),
    ("blank_required", 0.025),
    ("blank_all_quotes", 0.020),
    ("negative_amount", 0.015),
    ("negative_price", 0.010),
    ("negative_quote", 0.010),
    ("blank_some_quotes", 0.030),
    ("blank_bank_extras", 0.020),
    ("blank_ratings", 0.030),
    ("blank_sp_rating", 0.020),
    ("blank_label", 0.030),
)


@dataclass
class Inputs:
    """A workload's written input and what the benchmark knows about it."""

    csv: Path
    n_firms: int
    n_dates: int
    # Per (firm_id, date): "" when the row must price, otherwise the reason
    # the spread command must give, up to its ", got <value>" tail.
    expected_reason: dict
    # Keys of the rows that must survive drop_incomplete.
    complete_keys: set


def _alter(rows: list[dict], seed: int) -> tuple[dict, set]:
    rng = np.random.default_rng([seed, 7])
    n = len(rows)
    u = rng.random(n)
    pick = rng.random(n)
    how_many = rng.integers(1, len(QUOTE_COLUMNS), size=n)
    order = np.argsort(rng.random((n, len(QUOTE_COLUMNS))), axis=1)
    edges = np.cumsum([share for _, share in GAPPY_ALTERATIONS])
    kinds = np.searchsorted(edges, u, side="right")
    expected: dict = {}
    complete: set = set()
    for i, row in enumerate(rows):
        kind = GAPPY_ALTERATIONS[kinds[i]][0] if kinds[i] < len(edges) else None
        is_bank = bool(row["is_banking"])
        reason = ""
        if kind == "blank_is_banking":
            row["is_banking"] = None
            reason = "missing is_banking"
        elif kind == "blank_required":
            required = BANK_REQUIRED + (() if is_bank else NONBANK_EXTRA)
            col = required[int(pick[i] * len(required))]
            row[col] = None
            reason = f"missing {col}"
        elif kind == "blank_all_quotes":
            for col in QUOTE_COLUMNS:
                row[col] = None
            reason = "no volatility quotes"
        elif kind == "negative_amount":
            col = AMOUNT_COLUMNS[int(pick[i] * len(AMOUNT_COLUMNS))]
            row[col] = -(abs(row[col]) + 1.0)
            reason = f"{col} must be a finite amount >= 0"
        elif kind == "negative_price":
            row["stock_price"] = -row["stock_price"]
            reason = "stock_price must be finite and > 0"
        elif kind == "negative_quote":
            col = QUOTE_COLUMNS[order[i, 0]]
            row[col] = -row[col]
            reason = "volatility quote must be a finite amount >= 0"
        elif kind == "blank_some_quotes":
            for j in order[i, : how_many[i]]:
                row[QUOTE_COLUMNS[j]] = None
        elif kind == "blank_bank_extras" and is_bank:
            for col in NONBANK_EXTRA:
                row[col] = None
        elif kind == "blank_ratings":
            row["sp_rating"] = None
            row["moody_rating"] = None
        elif kind == "blank_sp_rating":
            row["sp_rating"] = None
        elif kind == "blank_label":
            row["cds_5y_bps"] = None
        key = (row["firm_id"], row["date"])
        expected[key] = reason
        rated = row["sp_rating"] is not None or row["moody_rating"] is not None
        if reason == "" and row["cds_5y_bps"] is not None and rated:
            complete.add(key)
    return expected, complete


def make_inputs(workload: str, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's panel from the seed and write it as CSV."""
    n_firms, n_dates = SIZES[workload]
    rows, _ = synth.generate_snapshots(n_firms=n_firms, n_dates=n_dates, seed=seed)
    if workload == "gappy":
        expected, complete = _alter(rows, seed)
    else:
        # The synthetic panel rates every row through S&P, so a complete
        # panel prices and keeps every row.
        keys = [(row["firm_id"], row["date"]) for row in rows]
        expected = dict.fromkeys(keys, "")
        complete = set(keys)
    path = work_dir / "snapshots.csv"
    snapshots.write_snapshot_csv(rows, path)
    return Inputs(path, n_firms, n_dates, expected, complete)
