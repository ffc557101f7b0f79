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

from .dataset import RawRecord
from .errors import InputFormatError
from .fundamentals import (
    HIST_WINDOWS,
    IMPLIED_MONTHS,
    BalanceSheet,
    MarketState,
    VolatilityQuotes,
    debt_per_share,
    financial_debt,
    select_volatility,
)
from .structural import (
    ModelParams,
    SpreadInputs,
    creditgrades_spread,
    e2c_spread,
)

HIST_COLUMNS = tuple(f"hist_vol_{w}" for w in HIST_WINDOWS)
IMPL_COLUMNS = tuple(f"impl_vol_{m}m" for m in IMPLIED_MONTHS)

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
    *HIST_COLUMNS,
    *IMPL_COLUMNS,
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
    + HIST_COLUMNS
    + IMPL_COLUMNS
)

# Observed spreads; RawRecord rejects a negative one.
_NONNEGATIVE_COLUMNS = frozenset(("ig_cdx_bps", "cds_5y_bps"))

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
                    try:
                        parsed = float(text)
                    except ValueError:
                        raise InputFormatError(
                            f"{path}:{lineno}: column {col}: "
                            f"not a number: {text!r}"
                        ) from None
                    if not math.isfinite(parsed):
                        raise InputFormatError(
                            f"{path}:{lineno}: column {col}: non-finite value"
                        )
                    if parsed < 0.0 and col in _NONNEGATIVE_COLUMNS:
                        raise InputFormatError(
                            f"{path}:{lineno}: column {col}: must be >= 0, "
                            f"got {text!r}"
                        )
                    values[col] = parsed
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
    """Derive debt-per-share, the vol input and both spreads for one row."""
    if snap.get("is_banking") is None:
        return SpreadRow(reason="missing is_banking")
    required = list(_BANKING_REQUIRED)
    if not snap.get("is_banking"):
        required += list(_NONBANK_EXTRA)
    for col in required:
        if snap.get(col) is None:
            return SpreadRow(reason=f"missing {col}")
    hist = {w: snap.get(f"hist_vol_{w}") for w in HIST_WINDOWS}
    impl = {m: snap.get(f"impl_vol_{m}m") for m in IMPLIED_MONTHS}
    hist = {w: v for w, v in hist.items() if v is not None}
    impl = {m: v for m, v in impl.items() if v is not None}
    if not hist and not impl:
        return SpreadRow(reason="no volatility quotes")
    try:
        bs = BalanceSheet(
            long_term_debt=snap.get("long_term_debt"),
            short_term_debt=snap.get("short_term_debt") or 0.0,
            other_lt_liabilities=snap.get("other_lt_liabilities") or 0.0,
            other_st_liabilities=snap.get("other_st_liabilities") or 0.0,
            lease_obligations=snap.get("lease_obligations") or 0.0,
            minority_interest=snap.get("minority_interest"),
            preferred_equity=snap.get("preferred_equity"),
            is_banking=bool(snap.get("is_banking")),
        )
        mkt = MarketState(
            stock_price=snap.get("stock_price"),
            market_cap=snap.get("market_cap"),
            fx_report_to_quote=snap.get("fx_rate"),
        )
        quotes = VolatilityQuotes(historical=hist, implied=impl)
        d = debt_per_share(financial_debt(bs), bs, mkt)
        vol = select_volatility(quotes)
        inputs = SpreadInputs(
            stock_price=mkt.stock_price, equity_vol=vol, debt_per_share=d
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
