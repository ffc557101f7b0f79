"""Feature engineering for the spread-prediction dataset.

Covers the rating comparison scale, record completeness filtering, the
encoded design matrix (ordinal rating code, one-hot country/sector with the
rarest category dropped per group, numeric passthrough) and the firm/date
holdout split.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Rating comparison scale
# ---------------------------------------------------------------------------

# 17 notches, best first. Code = 16 for AAA/Aaa down to 0 for the bottom
# bucket (CCC and anything below), so worse = lower integer.
_SCALE: tuple[tuple[str, str], ...] = (
    ("AAA", "Aaa"), ("AA+", "Aa1"), ("AA", "Aa2"), ("AA-", "Aa3"),
    ("A+", "A1"), ("A", "A2"), ("A-", "A3"),
    ("BBB+", "Baa1"), ("BBB", "Baa2"), ("BBB-", "Baa3"),
    ("BB+", "Ba1"), ("BB", "Ba2"), ("BB-", "Ba3"),
    ("B+", "B1"), ("B", "B2"), ("B-", "B3"),
    ("CCC", "Caa"),
)
BEST_RATING_CODE = len(_SCALE) - 1

_CODE_BY_LABEL: dict[str, int] = {}
for _i, (_sp, _moody) in enumerate(_SCALE):
    _CODE_BY_LABEL[_sp.upper()] = BEST_RATING_CODE - _i
    _CODE_BY_LABEL[_moody.upper()] = BEST_RATING_CODE - _i
# Sub-CCC labels collapse into the bottom notch.
for _label in ("CCC+", "CCC-", "CC", "C", "D", "CAA1", "CAA2", "CAA3", "CA"):
    _CODE_BY_LABEL[_label] = 0

RATING_BUCKETS = ("A", "BBB", "BB", "B", "below-B")


def rating_code(label: str) -> int:
    """Ordinal code of an S&P or Moody's grade (higher = better)."""
    try:
        return _CODE_BY_LABEL[label.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown rating label: {label!r}") from None


def rating_label(code: int) -> str:
    """Canonical S&P-style label for a notch code."""
    if not 0 <= code <= BEST_RATING_CODE:
        raise ValueError(f"rating code out of range: {code}")
    return _SCALE[BEST_RATING_CODE - code][0]


def moody_label(code: int) -> str:
    """Moody's-style label for a notch code."""
    if not 0 <= code <= BEST_RATING_CODE:
        raise ValueError(f"rating code out of range: {code}")
    return _SCALE[BEST_RATING_CODE - code][1]


def merge_ratings(sp: str | None, moody: str | None) -> str | None:
    """Combine the two agencies' grades, keeping the worse when they differ.

    Returns the canonical label, or None when neither agency rates the firm.
    """
    codes = []
    if sp is not None and sp != "":
        codes.append(rating_code(sp))
    if moody is not None and moody != "":
        codes.append(rating_code(moody))
    if not codes:
        return None
    return rating_label(min(codes))


def rating_bucket(code: int) -> str:
    """Coarse bucket used by comparison reports."""
    if code >= 10:  # A- and above
        return "A"
    if code >= 7:
        return "BBB"
    if code >= 4:
        return "BB"
    if code >= 1:
        return "B"
    return "below-B"


# ---------------------------------------------------------------------------
# Records and the encoded matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawRecord:
    """One firm on one date, ready for feature engineering.

    Optional fields are None when the source data is missing; spreads are
    annualized basis points.
    """

    firm_id: str
    date: str  # ISO-8601
    e2c_bps: float | None = None
    cds5y_bps: float | None = None
    ig_cdx_bps: float | None = None
    market_cap: float | None = None
    sp_rating: str | None = None
    moody_rating: str | None = None
    sector: str | None = None
    country: str | None = None

    def __post_init__(self) -> None:
        for name in ("e2c_bps", "cds5y_bps", "ig_cdx_bps"):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value < 0.0):
                raise ValueError(f"{name} must be >= 0 when present, got {value!r}")

    def merged_rating(self) -> str | None:
        return merge_ratings(self.sp_rating, self.moody_rating)

    def is_complete(self) -> bool:
        if None in (self.e2c_bps, self.cds5y_bps, self.ig_cdx_bps, self.market_cap):
            return False
        if self.merged_rating() is None:
            return False
        return bool(self.sector) and bool(self.country)


def check_unique_keys(records: list[RawRecord]) -> None:
    seen: set[tuple[str, str]] = set()
    for rec in records:
        key = (rec.firm_id, rec.date)
        if key in seen:
            raise ValueError(f"duplicate (firm_id, date) pair: {key}")
        seen.add(key)


def drop_incomplete(records: list[RawRecord]) -> list[RawRecord]:
    """Keep only records with every required field present, preserving order."""
    return [rec for rec in records if rec.is_complete()]


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str  # "numeric" | "ordinal" | "dummy"


@dataclass(frozen=True)
class FeatureMatrix:
    """Encoded design matrix with row keys and column metadata.

    X and y are read-only float64 arrays; rows align with (firm_ids, dates).
    """

    firm_ids: tuple[str, ...]
    dates: tuple[str, ...]
    y: np.ndarray
    X: np.ndarray
    columns: tuple[FeatureColumn, ...]

    def __post_init__(self) -> None:
        if not (len(self.firm_ids) == len(self.dates) == self.y.shape[0] == self.X.shape[0]):
            raise ValueError("row count mismatch between keys, y and X")
        if self.X.shape[1] != len(self.columns):
            raise ValueError("column metadata does not match X width")
        self.X.flags.writeable = False
        self.y.flags.writeable = False

    @classmethod
    def from_arrays(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        firm_ids: tuple[str, ...] | None = None,
        dates: tuple[str, ...] | None = None,
        columns: tuple[FeatureColumn, ...] | None = None,
    ) -> "FeatureMatrix":
        """Wrap plain arrays, generating placeholder keys/columns as needed."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        n, p = X.shape
        if firm_ids is None:
            firm_ids = tuple(f"row{i}" for i in range(n))
        if dates is None:
            dates = ("2016-01-01",) * n
        if columns is None:
            columns = tuple(FeatureColumn(f"x{j}", "numeric") for j in range(p))
        return cls(firm_ids=firm_ids, dates=dates, y=y, X=X, columns=columns)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def sha256(self) -> str:
        """Hex SHA-256 over the X bytes, the y bytes and the column names: a
        forest records its training set's, and importance checks it."""
        digest = hashlib.sha256(self.X.tobytes())
        digest.update(self.y.tobytes())
        digest.update(json.dumps(self.column_names()).encode("utf-8"))
        return digest.hexdigest()

    def take(self, row_indices: np.ndarray) -> "FeatureMatrix":
        idx = np.asarray(row_indices, dtype=np.int64)
        return FeatureMatrix(
            firm_ids=tuple(self.firm_ids[i] for i in idx),
            dates=tuple(self.dates[i] for i in idx),
            y=self.y[idx].copy(),
            X=self.X[idx].copy(),
            columns=self.columns,
        )


def _dropped_category(counts: dict[str, int]) -> str | None:
    """Category to drop from a one-hot group: fewest observations, ties
    resolved toward the lexicographically smallest name."""
    if not counts:
        return None
    return min(counts, key=lambda name: (counts[name], name))


@dataclass(frozen=True)
class FeatureEncoder:
    """Fitted encoding: which dummy columns exist and in what order.

    Fit on the full dataset before splitting; applying the same encoder to
    new records keeps the column layout stable (unseen categories encode as
    an all-zero dummy group, with a warning).
    """

    country_kept: tuple[str, ...]
    sector_kept: tuple[str, ...]
    country_seen: frozenset[str] = field(repr=False)
    sector_seen: frozenset[str] = field(repr=False)

    @classmethod
    def fit(cls, records: list[RawRecord]) -> "FeatureEncoder":
        if not records:
            raise ValueError("cannot fit an encoder on an empty record list")
        country_counts: dict[str, int] = {}
        sector_counts: dict[str, int] = {}
        for rec in records:
            if not rec.is_complete():
                raise ValueError(
                    f"incomplete record ({rec.firm_id}, {rec.date}); "
                    "run drop_incomplete first"
                )
            country_counts[rec.country] = country_counts.get(rec.country, 0) + 1
            sector_counts[rec.sector] = sector_counts.get(rec.sector, 0) + 1
        country_drop = _dropped_category(country_counts)
        sector_drop = _dropped_category(sector_counts)
        return cls(
            country_kept=tuple(
                c for c in sorted(country_counts) if c != country_drop
            ),
            sector_kept=tuple(s for s in sorted(sector_counts) if s != sector_drop),
            country_seen=frozenset(country_counts),
            sector_seen=frozenset(sector_counts),
        )

    @property
    def columns(self) -> tuple[FeatureColumn, ...]:
        cols = [
            FeatureColumn("e2c_bps", "numeric"),
            FeatureColumn("ig_cdx_bps", "numeric"),
            FeatureColumn("market_cap", "numeric"),
            FeatureColumn("rating", "ordinal"),
        ]
        cols += [FeatureColumn(f"country_{c}", "dummy") for c in self.country_kept]
        cols += [FeatureColumn(f"sector_{s}", "dummy") for s in self.sector_kept]
        return tuple(cols)

    def transform(self, records: list[RawRecord]) -> FeatureMatrix:
        check_unique_keys(records)
        columns = self.columns
        n = len(records)
        p = len(columns)
        X = np.zeros((n, p), dtype=np.float64)
        y = np.empty(n, dtype=np.float64)
        country_pos = {c: 4 + i for i, c in enumerate(self.country_kept)}
        sector_pos = {
            s: 4 + len(self.country_kept) + i for i, s in enumerate(self.sector_kept)
        }
        for i, rec in enumerate(records):
            if not rec.is_complete():
                raise ValueError(
                    f"incomplete record ({rec.firm_id}, {rec.date}); "
                    "run drop_incomplete first"
                )
            X[i, 0] = rec.e2c_bps
            X[i, 1] = rec.ig_cdx_bps
            X[i, 2] = rec.market_cap
            X[i, 3] = rating_code(rec.merged_rating())
            if rec.country in country_pos:
                X[i, country_pos[rec.country]] = 1.0
            elif rec.country not in self.country_seen:
                warnings.warn(
                    f"unseen country {rec.country!r}; dummy group left at zero",
                    stacklevel=2,
                )
            if rec.sector in sector_pos:
                X[i, sector_pos[rec.sector]] = 1.0
            elif rec.sector not in self.sector_seen:
                warnings.warn(
                    f"unseen sector {rec.sector!r}; dummy group left at zero",
                    stacklevel=2,
                )
            y[i] = rec.cds5y_bps
        return FeatureMatrix(
            firm_ids=tuple(rec.firm_id for rec in records),
            dates=tuple(rec.date for rec in records),
            y=y,
            X=X,
            columns=columns,
        )


def encode_features(records: list[RawRecord]) -> FeatureMatrix:
    """Fit an encoder on the records and encode them in one step."""
    return FeatureEncoder.fit(records).transform(records)


# ---------------------------------------------------------------------------
# Firm/date holdout split
# ---------------------------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Split:
    """Result of the firm/date holdout: a row is in-sample only when both
    its firm and its date were retained."""

    in_sample: FeatureMatrix
    out_of_sample: FeatureMatrix
    removed_firms: tuple[str, ...]
    removed_dates: tuple[str, ...]

    @property
    def oos_fraction(self) -> float:
        total = self.in_sample.n_rows + self.out_of_sample.n_rows
        return self.out_of_sample.n_rows / total if total else 0.0


def split_in_out(
    matrix: FeatureMatrix, firm_frac: float, date_frac: float, seed: int
) -> Split:
    """Remove a seeded random fraction of firms and of dates.

    Rows whose firm and date both survive form the in-sample set; every
    other row is out-of-sample (so a complete F x T grid yields an
    out-of-sample share of 1 - (1-firm_frac)(1-date_frac)). Fraction counts
    round half up.
    """
    for name, frac in (("firm_frac", firm_frac), ("date_frac", date_frac)):
        if not (isinstance(frac, (int, float)) and 0.0 <= frac < 1.0):
            raise ValueError(f"{name} must be in [0, 1), got {frac!r}")
    firms = sorted(set(matrix.firm_ids))
    dates = sorted(set(matrix.dates))
    n_firms = _round_half_up(firm_frac * len(firms))
    n_dates = _round_half_up(date_frac * len(dates))
    rng = np.random.default_rng(seed)
    removed_firms = {firms[i] for i in rng.choice(len(firms), size=n_firms, replace=False)}
    removed_dates = {dates[i] for i in rng.choice(len(dates), size=n_dates, replace=False)}
    in_rows = []
    out_rows = []
    for i in range(matrix.n_rows):
        if matrix.firm_ids[i] in removed_firms or matrix.dates[i] in removed_dates:
            out_rows.append(i)
        else:
            in_rows.append(i)
    return Split(
        in_sample=matrix.take(np.array(in_rows, dtype=np.int64)),
        out_of_sample=matrix.take(np.array(out_rows, dtype=np.int64)),
        removed_firms=tuple(sorted(removed_firms)),
        removed_dates=tuple(sorted(removed_dates)),
    )
