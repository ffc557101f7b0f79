"""Firm-snapshot CSV: the raw per-firm-per-date input schema.

One row per (firm, date) with market quotes, balance-sheet items, vol
quotes, ratings, sector/country and the observed spreads. Empty cells are
missing values. The file is read once into columns (Snapshots), in chunks
of _CHUNK_ROWS lines or rows: chunks of plain lines, with no quote and one
cell per header name, are split at commas, and the rest of the file from
the first other line goes through csv.reader, with the same columns,
errors and line numbers. Rows are
priced with masks over the columns. Parsing is strict: a missing required
column or an unparseable cell raises InputFormatError with line
diagnostics, while rows that merely lack the inputs needed for a spread get
a per-row reason instead of failing the file.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import date as _date
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .dataset import TEXT_COLUMNS, Records, rating_code
from .errors import InputFormatError, not_utf8
from .fundamentals import (
    AMOUNT_PROBLEM,
    POSITIVE_PROBLEM,
    QUOTE_COLUMNS,
    debt_per_share,
    financial_debt,
    select_volatility,
)
from .structural import (
    FINITE_PROBLEM,
    MAX_SPREAD_BPS,
    ModelParams,
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
    *TEXT_COLUMNS,
    "ig_cdx_bps",
    "cds_5y_bps",
)

# Observed spreads, in [0, MAX_SPREAD_BPS] like the model spreads: the tree
# kernel squares the labels.
_OBSERVED_SPREAD_COLUMNS = ("ig_cdx_bps", "cds_5y_bps")
_FLAGS = {"1": 1.0, "true": 1.0, "yes": 1.0, "0": 0.0, "false": 0.0, "no": 0.0, "": math.nan}

# Rows parsed at a time: a chunk's raw cells are held only while it is parsed.
_CHUNK_ROWS = 512

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


@dataclass(frozen=True)
class Snapshots:
    """A snapshot table as columns, one entry per row: the keys, each number
    column as float64 (is_banking as 1.0/0.0) and each text column as
    strings, all stripped; a blank cell is NaN or "". Indexing and
    iteration give FirmSnapshot rows."""

    firm_id: tuple[str, ...]
    date: tuple[str, ...]
    columns: dict  # SNAPSHOT_COLUMNS[2:] -> np.ndarray or tuple[str, ...]

    def __len__(self) -> int:
        return len(self.firm_id)

    def __getitem__(self, i: int) -> FirmSnapshot:
        values = {}
        for col, cells in self.columns.items():
            v = cells[i]
            if col in TEXT_COLUMNS:
                values[col] = v or None
            else:
                values[col] = None if v != v else bool(v) if col == "is_banking" else float(v)
        return FirmSnapshot(self.firm_id[i], self.date[i], values)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _first_bad(cells, problem_of):
    """(row, problem) of the first cell whose problem_of is not empty, each
    distinct cell checked once; None when every cell passes."""
    problems = {cell: p for cell in set(cells) if (p := problem_of(cell))}
    if not problems:
        return None
    row = next(i for i, cell in enumerate(cells) if cell in problems)
    return row, problems[cells[row]]


def _stripped(cells: tuple) -> tuple[str, ...]:
    """Cells stripped, with one string object per distinct value."""
    strip = {cell: cell.strip() for cell in set(cells)}
    return tuple(map(strip.__getitem__, cells))


def _date_problem(text: str) -> str | None:
    """A date must be YYYY-MM-DD: fromisoformat also takes 20160205 and
    2016-W05-5 on Python 3.11, which would let one day have two keys."""
    try:
        if _date.fromisoformat(text).isoformat() == text:
            return None
    except ValueError:
        pass
    return f"bad ISO date {text!r}"


def _rating_problem(col: str, text: str) -> str | None:
    try:
        rating_code(text)
    except ValueError:
        return f"column {col}: unknown rating label {text!r}"
    return None


def _duplicate(keys, seen: set):
    for row, key in enumerate(keys):
        if key in seen:
            return row, f"duplicate (firm_id, date) pair {key}"
        seen.add(key)
    return None


def _numbers(col: str, cells: tuple):
    """A number column as float64, NaN for a blank, and its first bad cell."""
    bad = None
    blanks = cells.count("")
    try:
        texts = [t or "nan" for t in cells] if blanks else cells
        values = np.fromiter(map(float, texts), np.float64, len(cells))
        if np.isinf(values).any() or np.count_nonzero(np.isnan(values)) != blanks:
            raise ValueError
    except ValueError:
        # Padding, text or a non-finite number: cell by cell to the first bad one.
        values = np.full(len(cells), math.nan)
        for row, text in enumerate(map(str.strip, cells)):
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                bad = row, f"column {col}: not a number: {text!r}"
                break
            if not math.isfinite(value):
                bad = row, f"column {col}: non-finite value"
                break
            values[row] = value
    if col in _OBSERVED_SPREAD_COLUMNS:
        # Only cells before a bad one hold values, so a hit here comes first.
        out = np.flatnonzero((values < 0.0) | (values > MAX_SPREAD_BPS))
        if out.size:
            row = int(out[0])
            rule = "must be >= 0" if values[row] < 0.0 else f"must be <= {MAX_SPREAD_BPS:g}"
            bad = row, f"column {col}: {rule}, got {cells[row].strip()!r}"
    return values, bad


def _column(col: str, cells: tuple):
    """One snapshot column's values and its first bad cell, as (row, problem)."""
    if col == "is_banking":
        flag = {cell: _FLAGS.get(cell.strip().lower()) for cell in set(cells)}
        bad = _first_bad(cells, lambda cell: flag[cell] is None
                         and f"bad is_banking value {cell.strip()!r}")
        if bad is not None:
            return None, bad
        return np.fromiter(map(flag.__getitem__, cells), np.float64, len(cells)), None
    if col in TEXT_COLUMNS:
        texts = _stripped(cells)
        if col in ("sp_rating", "moody_rating"):
            return texts, _first_bad(texts, lambda t: t and _rating_problem(col, t))
        return texts, None
    return _numbers(col, cells)


def _batches(items, errors):
    """The items in lists of _CHUNK_ROWS, the last shorter or empty. On one of
    errors the items read before it come first, so their bad cells come first."""
    batch = []
    try:
        for item in items:
            batch.append(item)
            if len(batch) == _CHUNK_ROWS:
                yield batch
                batch = []
    except errors:
        yield batch
        raise
    yield batch


def _plain_cells(lines: list[str], width: int) -> list[str] | None:
    """The cells of lines that csv.reader would split at every comma and
    line end, row after row; None when it might not, that is when a line
    holds a double quote, a NUL or other than width - 1 commas, does not end
    in LF or CRLF, or is longer than the csv module's field size limit.
    Read with newline="", a CR not followed by LF ends its line, so once
    each CRLF is LF, a line that holds a CR does not end in LF."""
    text = "".join(lines)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if ('"' in text or "\0" in text or text.count("\n") != len(lines)
            or not set(map(str.count, lines, repeat(","))) <= {width - 1}
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # each line now ends in a comma: nothing follows the last one
    return cells


def _parse_cells(path, cells, lines, seen: set) -> dict:
    """A chunk of rows, given as each of SNAPSHOT_COLUMNS' raw cells in
    that order, as one entry per column; raises at the first bad cell in
    row order, then column order, naming lines[row]."""
    cells = dict(zip(SNAPSHOT_COLUMNS, cells))
    firm_id = _stripped(cells.pop("firm_id", ()))
    dates = _stripped(cells.pop("date", ()))
    found = [
        _first_bad(firm_id, lambda t: not t and "empty firm_id"),
        _first_bad(dates, _date_problem),
        _duplicate(zip(firm_id, dates), seen),
    ]
    columns = {"firm_id": firm_id, "date": dates}
    for col in SNAPSHOT_COLUMNS[2:]:
        columns[col], bad = _column(col, cells.pop(col, ()))
        found.append(bad)
    bad = min(((b[0], k, b[1]) for k, b in enumerate(found) if b is not None), default=None)
    if bad is not None:
        raise InputFormatError(f"{path}:{lines[bad[0]]}: {bad[2]}")
    return columns


def _parse_rows(path, batch: list, positions: list, seen: set) -> dict:
    """A chunk of (csv.reader row, line number) pairs as _parse_cells parses
    the rows, read from the given cell positions. A short row's missing cells
    are blank."""
    width = max(positions) + 1
    rows = [row if len(row) >= width else row + [""] * (width - len(row)) for row, _ in batch]
    return _parse_cells(path, zip(*map(itemgetter(*positions), rows)), [n for _, n in batch], seen)


def _positions(path, header: list[str]) -> list[int]:
    """Where each of SNAPSHOT_COLUMNS is in the header. As with
    csv.DictReader, a repeated column name is read from its last occurrence
    and extra cells are ignored."""
    missing = [c for c in SNAPSHOT_COLUMNS if c not in header]
    if missing:
        raise InputFormatError(f"{path}: missing required column(s): {', '.join(missing)}")
    where = {name: j for j, name in enumerate(header)}
    return [where[c] for c in SNAPSHOT_COLUMNS]


def _parts(path, fh) -> list[dict]:
    """The file's rows as chunks of columns. The header and then each chunk
    of _CHUNK_ROWS lines are split at commas while _plain_cells can split
    them; from the first line or chunk it cannot, the rest of the file goes
    through csv.reader, its non-blank rows _CHUNK_ROWS at a time. Only plain
    lines come before that, so no quoted cell spans it."""
    first = next(fh, None)
    if first is None:
        raise InputFormatError(f"{path}: empty file, header row required")
    chunks = _batches(fh, UnicodeDecodeError)
    width = first.count(",") + 1
    header = _plain_cells([first], width)
    # The done lines before rest are parsed; csv.reader reads from rest on.
    parts, done, rest, seen = [], 0, [first], set()
    if header is not None:
        positions, done = _positions(path, header), 1
        for rest in chunks:
            cells = _plain_cells(rest, width)
            if cells is None:
                break
            rows = range(done + 1, done + 1 + len(rest))
            parts.append(_parse_cells(path, [cells[j::width] for j in positions], rows, seen))
            done += len(rest)
        else:
            return parts
    reader = csv.reader(chain(rest, chain.from_iterable(chunks)))
    try:
        if header is None:
            positions = _positions(path, next(reader))
        numbered = ((row, done + reader.line_num) for row in reader if row)
        for batch in _batches(numbered, (csv.Error, UnicodeDecodeError)):
            parts.append(_parse_rows(path, batch, positions, seen))
    except csv.Error as exc:
        raise InputFormatError(f"{path}:{done + reader.line_num}: {exc}") from None
    return parts


def read_snapshots(path) -> Snapshots:
    """Parse a snapshot CSV into columns; extra columns are ignored and a
    leading UTF-8 byte-order mark is skipped. Chunks of lines with no quote
    and exactly one cell per header name are split at commas, the rest of
    the file from the first other line through csv.reader, with the same
    columns, errors and line numbers. The first bad cell, in row order and
    then column order, raises InputFormatError naming its line, as do bytes
    that are not UTF-8 and a cell past the csv module's field size limit."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            parts = _parts(path, fh)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    columns = {}
    for col in SNAPSHOT_COLUMNS:
        pieces = [part[col] for part in parts]
        columns[col] = (np.concatenate(pieces) if isinstance(pieces[0], np.ndarray)
                        else tuple(chain.from_iterable(pieces)))
    return Snapshots(columns.pop("firm_id"), columns.pop("date"), columns)


class SpreadRow:
    """One row of a Spreads table: its outputs, None when the row is not
    priced, and the reason it is not ("" when it is)."""

    def __init__(self, table: "Spreads", i: int):
        self._table, self._i = table, i

    @property
    def reason(self) -> str:
        return self._table.reason[self._i]

    @property
    def ok(self) -> bool:
        return self.reason == ""

    def _value(self, name: str) -> float | None:
        return float(getattr(self._table, name)[self._i]) if self.ok else None

    debt_per_share = property(lambda self: self._value("debt_per_share"))
    selected_vol = property(lambda self: self._value("selected_vol"))
    e2c_bps = property(lambda self: self._value("e2c_bps"))
    creditgrades_bps = property(lambda self: self._value("creditgrades_bps"))


@dataclass(frozen=True, eq=False)
class Spreads(Mapping):
    """Spread outputs of a Snapshots table as columns in its row order, NaN
    where a row is not priced, with each row's reason; also a mapping from
    (firm_id, date) to SpreadRow. CreditGrades is priced on first use, every
    priced row in one call."""

    snaps: Snapshots
    reason: list[str]
    ok: np.ndarray
    debt_per_share: np.ndarray
    selected_vol: np.ndarray
    e2c_bps: np.ndarray
    params: ModelParams

    @cached_property
    def creditgrades_bps(self) -> np.ndarray:
        """The CreditGrades spread of every priced row, NaN where a row is
        not priced."""
        ok = self.ok
        out = np.full(len(self.reason), np.nan)
        out[ok] = creditgrades_spread(self.snaps.columns["stock_price"][ok],
                                      self.selected_vol[ok], self.debt_per_share[ok],
                                      self.params)
        return out

    @cached_property
    def _rows(self) -> dict:
        return dict(zip(self, range(len(self))))

    def __getitem__(self, key: tuple[str, str]) -> SpreadRow:
        return SpreadRow(self, self._rows[key])

    def __iter__(self):
        return zip(self.snaps.firm_id, self.snaps.date)

    def __len__(self) -> int:
        return len(self.reason)


def _problem(template: str, name: str, values: np.ndarray):
    return lambda i: template.format(name, float(values[i]))


def _price(snaps: Snapshots, params: ModelParams) -> Spreads:
    """Debt per share, the vol input and E2C for every row. A row's reason
    is its first failing check: a missing input, then the arguments of
    financial_debt and debt_per_share, a negative quote, and a non-finite
    vol input, debt per share or E2C spread. Its outputs are then NaN."""
    col = snaps.columns
    bank = col["is_banking"]
    price, cap, fx = col["stock_price"], col["market_cap"], col["fx_rate"]
    debts = ("long_term_debt",) + _NONBANK_EXTRA
    quotes = np.column_stack([col[c] for c in QUOTE_COLUMNS])
    with np.errstate(all="ignore"):
        fin_debt = financial_debt(*(col[c] for c in debts), bank)
        d = debt_per_share(
            fin_debt, col["minority_interest"], col["preferred_equity"], price, cap, fx
        )
        vol = select_volatility(quotes)
        e2c = e2c_spread(price, vol, d, params)
        negative = quotes < 0.0
        first_negative = quotes[np.arange(len(snaps)), negative.argmax(axis=1)]
        checks = [
            (np.isnan(bank), lambda i: "missing is_banking"),
            *((np.isnan(col[c]), lambda i, c=c: f"missing {c}") for c in _BANKING_REQUIRED),
            *((np.isnan(col[c]) & (bank == 0.0), lambda i, c=c: f"missing {c}")
              for c in _NONBANK_EXTRA),
            (np.isnan(quotes).all(axis=1), lambda i: "no volatility quotes"),
            *((col[c] < 0.0, _problem(AMOUNT_PROBLEM, c, col[c]))
              for c in debts + ("minority_interest", "preferred_equity")),
            *((v <= 0.0, _problem(POSITIVE_PROBLEM, name, v))
              for name, v in (("stock_price", price), ("market_cap", cap),
                              ("fx_report_to_quote", fx))),
            (~np.isfinite(fin_debt), _problem(AMOUNT_PROBLEM, "fin_debt", fin_debt)),
            (negative.any(axis=1), _problem(AMOUNT_PROBLEM, "volatility quote", first_negative)),
            (~np.isfinite(vol), _problem(FINITE_PROBLEM, "equity_vol", vol)),
            (~np.isfinite(d), _problem(FINITE_PROBLEM, "debt_per_share", d)),
            (~np.isfinite(e2c), _problem(FINITE_PROBLEM, "e2c_bps", e2c)),
        ]
    reason = [""] * len(snaps)
    pending = np.ones(len(snaps), dtype=bool)
    for failed, message in checks:
        for i in np.flatnonzero(pending & failed).tolist():
            reason[i] = message(i)
        pending &= ~failed
    priced = (np.where(pending, x, np.nan) for x in (d, vol, e2c))
    return Spreads(snaps, reason, pending, *priced, params)


def build_records(snaps: Snapshots, params: ModelParams) -> tuple[Records, Spreads]:
    """A snapshot table -> the feature-engineering records plus the per-row
    spreads, both in row order.

    Records whose spread inputs fail keep e2c_bps NaN, so drop_incomplete
    removes them downstream.
    """
    spreads = _price(snaps, params)
    col = snaps.columns
    records = Records(
        firm_id=snaps.firm_id,
        date=snaps.date,
        e2c_bps=spreads.e2c_bps,
        cds5y_bps=col["cds_5y_bps"],
        ig_cdx_bps=col["ig_cdx_bps"],
        market_cap=col["market_cap"],
        index=np.arange(len(snaps)),
        **{c: col[c] for c in TEXT_COLUMNS},
    )
    return records, spreads


def _quoted(texts: list[str]) -> list[str]:
    """Text cells as CSV fields: a cell holding a comma, a double quote, CR
    or LF is quoted, with each double quote doubled."""
    blob = "".join(texts)
    if not any(c in blob for c in ',"\r\n'):
        return texts
    return ['"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t
            for t in texts]


def _cells(name: str, cells) -> list[str]:
    """One column's cells as CSV fields. In an array NaN is blank, is_banking
    is 1/0 and any other value is its repr; a float64 array is formatted
    once per distinct 64-bit pattern, so -0.0 stays apart from 0.0. In a
    sequence of Python values None is blank, a bool is 1/0, a float is its
    repr and any other value is its str, quoted as _quoted says."""
    if not isinstance(cells, np.ndarray):
        return _quoted([repr(v) if type(v) is float else "" if v is None
                        else ("1" if v else "0") if type(v) is bool else str(v) for v in cells])
    if name == "is_banking":
        return [{1.0: "1", 0.0: "0"}.get(v, "") for v in cells.tolist()]
    at = None
    if cells.dtype == np.float64:
        bits, at = np.unique(cells.view(np.int64), return_inverse=True)
        cells = bits.view(np.float64)
    text = list(map(repr, cells.tolist()))
    for i in np.flatnonzero(np.isnan(cells)).tolist():
        text[i] = ""
    return text if at is None else list(map(text.__getitem__, at.tolist()))


def _lines(fields: list[list[str]]) -> str:
    """Rows of fields, given as columns, as CSV lines. A row of one empty
    field is written "" so that it reads back as a row."""
    if len(fields) == 1:
        fields = [[t or '""' for t in fields[0]]]
    return "\n".join(map(",".join, zip(*fields))) + "\n"


def write_csv(path, columns: dict) -> None:
    """Write a table given as columns (header name -> cells, all of one
    length): the header quoted as _quoted says, then _CHUNK_ROWS rows at a
    time, each cell as _cells formats it, in one write per chunk."""
    n = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_lines([[name] for name in _quoted(list(columns))]))
        for start in range(0, n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            fh.write(_lines([_cells(name, col[rows]) for name, col in columns.items()]))


def write_snapshot_csv(rows: list[dict], path) -> None:
    """Write snapshot-schema rows (dicts keyed by SNAPSHOT_COLUMNS; a missing
    key is a blank cell)."""
    write_csv(path, {col: [row.get(col) for row in rows] for col in SNAPSHOT_COLUMNS})


def write_spread_csv(spreads: Spreads, path) -> None:
    """The priced snapshot rows augmented with spread columns (reason set on
    failures)."""
    snaps = spreads.snaps
    extra = ("e2c_bps", "creditgrades_bps", "debt_per_share", "selected_vol")
    write_csv(path, {"firm_id": snaps.firm_id, "date": snaps.date,
                     **{c: snaps.columns[c] for c in SNAPSHOT_COLUMNS[2:]},
                     **{c: getattr(spreads, c) for c in extra}, "reason": spreads.reason})
