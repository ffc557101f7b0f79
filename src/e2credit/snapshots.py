"""Firm-snapshot CSV: the raw per-firm-per-date input schema.

One row per (firm, date) with market quotes, balance-sheet items, vol
quotes, ratings, sector/country and the observed spreads. Empty cells are
missing values. Parsing is strict: a missing required column or an
unparseable cell raises InputFormatError with line diagnostics, while rows
that merely lack the inputs needed for a spread get a per-row reason
instead of failing the file.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date as _date

from .dataset import RawRecord, rating_code
from .errors import InputFormatError
from .fundamentals import (
    QUOTE_COLUMNS,
    debt_per_share,
    financial_debt,
    select_volatility,
)
from .structural import (
    MAX_SPREAD_BPS,
    ModelParams,
    SpreadInputs,
    creditgrades_spread,
    e2c_spread,
)

SNAPSHOT_COLUMNS = (
    "firm_id",
    "date",
    "stock_price",
    "market_cap",
    "fx_rate",
    "is_banking",
    "long_term_debt",
    "short_term_debt",
    "other_lt_liabilities",
    "other_st_liabilities",
    "lease_obligations",
    "minority_interest",
    "preferred_equity",
    *QUOTE_COLUMNS,
    "sp_rating",
    "moody_rating",
    "sector",
    "country",
    "ig_cdx_bps",
    "cds_5y_bps",
)

_FLOAT_COLUMNS = frozenset(
    (
        "stock_price",
        "market_cap",
        "fx_rate",
        "long_term_debt",
        "short_term_debt",
        "other_lt_liabilities",
        "other_st_liabilities",
        "lease_obligations",
        "minority_interest",
        "preferred_equity",
        "ig_cdx_bps",
        "cds_5y_bps",
    )
    + QUOTE_COLUMNS
)

# Observed spreads, in [0, MAX_SPREAD_BPS] like the model spreads: RawRecord
# rejects a negative one, and the tree kernel squares the labels.
_OBSERVED_SPREAD_COLUMNS = frozenset(("ig_cdx_bps", "cds_5y_bps"))
_RATING_COLUMNS = frozenset(("sp_rating", "moody_rating"))

_BANKING_REQUIRED = ("stock_price", "market_cap", "fx_rate", "long_term_debt",
                     "minority_interest", "preferred_equity")
_NONBANK_EXTRA = ("short_term_debt", "other_lt_liabilities",
                  "other_st_liabilities", "lease_obligations")


@dataclass(frozen=True)
class FirmSnapshot:
    """Raw snapshot row; every field except the key may be missing."""

    firm_id: str
    date: str
    values: dict

    def get(self, column: str):
        return self.values.get(column)


def _parse_bool(text: str, path, lineno: int):
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes"}:
        return True
    if lowered in {"0", "false", "no"}:
        return False
    raise InputFormatError(f"{path}:{lineno}: bad is_banking value {text!r}")


def _cell_error(path, lineno: int, col: str, problem: str) -> InputFormatError:
    return InputFormatError(f"{path}:{lineno}: column {col}: {problem}")


def _parse_number(text: str, col: str, path, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _cell_error(path, lineno, col, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _cell_error(path, lineno, col, "non-finite value")
    if col in _OBSERVED_SPREAD_COLUMNS:
        if value < 0.0:
            raise _cell_error(path, lineno, col, f"must be >= 0, got {text!r}")
        if value > MAX_SPREAD_BPS:
            raise _cell_error(
                path, lineno, col, f"must be <= {MAX_SPREAD_BPS:g}, got {text!r}"
            )
    return value


def _parse_rating(text: str, col: str, path, lineno: int) -> str:
    try:
        rating_code(text)
    except ValueError:
        raise _cell_error(path, lineno, col, f"unknown rating label {text!r}") from None
    return text


def read_snapshots(path) -> list[FirmSnapshot]:
    """Parse a snapshot CSV; extra columns are ignored."""
    snapshots: list[FirmSnapshot] = []
    seen: set[tuple[str, str]] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputFormatError(f"{path}: empty file, header row required")
        missing = [c for c in SNAPSHOT_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise InputFormatError(
                f"{path}: missing required column(s): {', '.join(missing)}"
            )
        for row in reader:
            lineno = reader.line_num
            firm_id = (row.get("firm_id") or "").strip()
            date_text = (row.get("date") or "").strip()
            if not firm_id:
                raise InputFormatError(f"{path}:{lineno}: empty firm_id")
            try:
                _date.fromisoformat(date_text)
            except ValueError:
                raise InputFormatError(
                    f"{path}:{lineno}: bad ISO date {date_text!r}"
                ) from None
            key = (firm_id, date_text)
            if key in seen:
                raise InputFormatError(
                    f"{path}:{lineno}: duplicate (firm_id, date) pair {key}"
                )
            seen.add(key)
            values: dict = {}
            for col in SNAPSHOT_COLUMNS[2:]:
                text = (row.get(col) or "").strip()
                if text == "":
                    values[col] = None
                elif col == "is_banking":
                    values[col] = _parse_bool(text, path, lineno)
                elif col in _FLOAT_COLUMNS:
                    values[col] = _parse_number(text, col, path, lineno)
                elif col in _RATING_COLUMNS:
                    values[col] = _parse_rating(text, col, path, lineno)
                else:
                    values[col] = text
            snapshots.append(FirmSnapshot(firm_id=firm_id, date=date_text, values=values))
    return snapshots


@dataclass(frozen=True)
class SpreadRow:
    """Spread outputs for one snapshot, or the reason they are unavailable."""

    debt_per_share: float | None = None
    selected_vol: float | None = None
    e2c_bps: float | None = None
    creditgrades_bps: float | None = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.reason == ""


def compute_spread_row(snap: FirmSnapshot, params: ModelParams) -> SpreadRow:
    """Derive debt-per-share, the vol input and both spreads for one row.

    A bad value gives the reason of the first one in column order: the
    balance-sheet amounts, then price, cap and fx, then the vol quotes.
    """
    is_banking = snap.get("is_banking")
    if is_banking is None:
        return SpreadRow(reason="missing is_banking")
    required = _BANKING_REQUIRED if is_banking else _BANKING_REQUIRED + _NONBANK_EXTRA
    for col in required:
        if snap.get(col) is None:
            return SpreadRow(reason=f"missing {col}")
    quotes = [snap.get(col) for col in QUOTE_COLUMNS if snap.get(col) is not None]
    if not quotes:
        return SpreadRow(reason="no volatility quotes")
    try:
        fin_debt = financial_debt(
            snap.get("long_term_debt"),
            *(snap.get(col) or 0.0 for col in _NONBANK_EXTRA),
            is_banking=is_banking,
        )
        d = debt_per_share(
            fin_debt,
            snap.get("minority_interest"),
            snap.get("preferred_equity"),
            snap.get("stock_price"),
            snap.get("market_cap"),
            snap.get("fx_rate"),
        )
        vol = select_volatility(quotes)
        inputs = SpreadInputs(
            stock_price=snap.get("stock_price"), equity_vol=vol, debt_per_share=d
        )
        return SpreadRow(
            debt_per_share=d,
            selected_vol=vol,
            e2c_bps=e2c_spread(inputs, params),
            creditgrades_bps=creditgrades_spread(inputs, params),
        )
    except ValueError as exc:
        return SpreadRow(reason=str(exc))


def build_records(
    snapshots: list[FirmSnapshot], params: ModelParams
) -> tuple[list[RawRecord], dict[tuple[str, str], SpreadRow]]:
    """Snapshot rows -> feature-engineering records plus per-row spreads.

    Records whose spread inputs fail keep e2c_bps=None, so drop_incomplete
    removes them downstream.
    """
    records = []
    spreads: dict[tuple[str, str], SpreadRow] = {}
    for snap in snapshots:
        spread = compute_spread_row(snap, params)
        spreads[(snap.firm_id, snap.date)] = spread
        records.append(
            RawRecord(
                firm_id=snap.firm_id,
                date=snap.date,
                e2c_bps=spread.e2c_bps if spread.ok else None,
                cds5y_bps=snap.get("cds_5y_bps"),
                ig_cdx_bps=snap.get("ig_cdx_bps"),
                market_cap=snap.get("market_cap"),
                sp_rating=snap.get("sp_rating"),
                moody_rating=snap.get("moody_rating"),
                sector=snap.get("sector"),
                country=snap.get("country"),
            )
        )
    return records, spreads


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_snapshot_csv(rows: list[dict], path) -> None:
    """Write snapshot-schema rows (dicts keyed by SNAPSHOT_COLUMNS)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SNAPSHOT_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in SNAPSHOT_COLUMNS])


def write_spread_csv(
    snapshots: list[FirmSnapshot],
    spreads: dict[tuple[str, str], SpreadRow],
    path,
) -> None:
    """Snapshot rows augmented with spread columns (reason set on failures)."""
    extra = ("e2c_bps", "creditgrades_bps", "debt_per_share", "selected_vol", "reason")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SNAPSHOT_COLUMNS + extra)
        for snap in snapshots:
            spread = spreads[(snap.firm_id, snap.date)]
            base = [snap.firm_id, snap.date] + [
                _format_cell(snap.get(col)) for col in SNAPSHOT_COLUMNS[2:]
            ]
            writer.writerow(
                base
                + [
                    _format_cell(spread.e2c_bps),
                    _format_cell(spread.creditgrades_bps),
                    _format_cell(spread.debt_per_share),
                    _format_cell(spread.selected_vol),
                    spread.reason,
                ]
            )
