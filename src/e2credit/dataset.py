"""Feature engineering for the spread-prediction dataset.

Covers the rating comparison scale, record completeness filtering, the
encoded design matrix (ordinal rating code, one-hot country/sector with the
rarest category dropped per group, numeric passthrough) and the firm/date
holdout split.
"""
from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property

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
    """One firm on one date, ready for feature engineering: a row of Records.

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

    def merged_rating(self) -> str | None:
        return merge_ratings(self.sp_rating, self.moody_rating)


_NUMBER_FIELDS = ("e2c_bps", "cds5y_bps", "ig_cdx_bps", "market_cap")
# The label columns, shared with the snapshot table.
TEXT_COLUMNS = ("sp_rating", "moody_rating", "sector", "country")
_UNRATED = BEST_RATING_CODE + 1


def factorize(keys) -> tuple[list, np.ndarray]:
    """Distinct keys in order of first appearance, and each row's index
    into them."""
    distinct = list(dict.fromkeys(keys))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))


def sorted_codes(keys) -> tuple[list, np.ndarray]:
    """Distinct keys in sorted order, and each row's index into them."""
    distinct, codes = factorize(keys)
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    rank = np.empty(len(distinct), dtype=np.intp)
    rank[order] = np.arange(len(distinct))
    return [distinct[i] for i in order], rank[codes]


def _pick(values: tuple, rows) -> tuple:
    return tuple(map(values.__getitem__, np.asarray(rows).tolist()))


def _rating_codes(labels: tuple[str, ...]) -> np.ndarray:
    distinct, codes = factorize(labels)
    return np.array([rating_code(label) if label else _UNRATED for label in distinct],
                    dtype=np.int64)[codes]


@dataclass(frozen=True)
class Records:
    """Feature-engineering rows as columns, one entry per (firm, date): a
    missing number is NaN and a missing label "". index is each row's
    position in the snapshot table the records were built from. Indexing
    and iteration give RawRecord rows."""

    firm_id: tuple[str, ...]
    date: tuple[str, ...]
    e2c_bps: np.ndarray
    cds5y_bps: np.ndarray
    ig_cdx_bps: np.ndarray
    market_cap: np.ndarray
    sp_rating: tuple[str, ...]
    moody_rating: tuple[str, ...]
    sector: tuple[str, ...]
    country: tuple[str, ...]
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.firm_id)

    def __getitem__(self, i: int) -> RawRecord:
        numbers = {name: getattr(self, name)[i] for name in _NUMBER_FIELDS}
        return RawRecord(
            self.firm_id[i], self.date[i],
            **{name: None if v != v else float(v) for name, v in numbers.items()},
            **{name: getattr(self, name)[i] or None for name in TEXT_COLUMNS},
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def take(self, rows) -> "Records":
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return Records(**{
            name: col[rows] if isinstance(col, np.ndarray) else _pick(col, rows)
            for name, col in columns.items()
        })

    @cached_property
    def rating(self) -> np.ndarray:
        """Merged rating code (the worse agency's), -1 when neither rates."""
        merged = np.minimum(_rating_codes(self.sp_rating), _rating_codes(self.moody_rating))
        return np.where(merged == _UNRATED, -1, merged)

    @cached_property
    def complete(self) -> np.ndarray:
        """Rows with every field the encoder needs."""
        mask = self.rating >= 0
        for name in _NUMBER_FIELDS:
            mask &= ~np.isnan(getattr(self, name))
        for labels in (self.sector, self.country):
            mask &= np.fromiter(map(bool, labels), bool, len(labels))
        return mask


def _require_complete(records: Records) -> None:
    bad = np.flatnonzero(~records.complete)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"incomplete record ({records.firm_id[i]}, {records.date[i]}); "
            "run drop_incomplete first"
        )


def drop_incomplete(records: Records) -> Records:
    """Keep only records with every required field present, preserving
    order."""
    return records.take(np.flatnonzero(records.complete))


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
        import hashlib

        digest = hashlib.sha256(self.X.tobytes())
        digest.update(self.y.tobytes())
        digest.update(json.dumps(self.column_names()).encode("utf-8"))
        return digest.hexdigest()

    def take(self, row_indices: np.ndarray) -> "FeatureMatrix":
        idx = np.asarray(row_indices, dtype=np.int64)
        return FeatureMatrix(
            firm_ids=_pick(self.firm_ids, idx),
            dates=_pick(self.dates, idx),
            y=self.y[idx],
            X=self.X[idx],
            columns=self.columns,
        )


def _dropped_category(counts: dict[str, int]) -> str:
    """Category to drop from a one-hot group: fewest observations, ties
    resolved toward the lexicographically smallest name."""
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
    def fit(cls, records: Records) -> "FeatureEncoder":
        """Fit on complete Records."""
        if not len(records):
            raise ValueError("cannot fit an encoder on an empty record list")
        _require_complete(records)
        country_counts = Counter(records.country)
        sector_counts = Counter(records.sector)
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

    def transform(self, records: Records) -> FeatureMatrix:
        _require_complete(records)
        columns = self.columns
        n = len(records)
        X = np.zeros((n, len(columns)), dtype=np.float64)
        X[:, 0] = records.e2c_bps
        X[:, 1] = records.ig_cdx_bps
        X[:, 2] = records.market_cap
        X[:, 3] = records.rating
        first = 4
        for group, labels, kept, seen in (
            ("country", records.country, self.country_kept, self.country_seen),
            ("sector", records.sector, self.sector_kept, self.sector_seen),
        ):
            distinct, codes = factorize(labels)
            for label in distinct:
                if label not in seen:
                    warnings.warn(
                        f"unseen {group} {label!r}; dummy group left at zero", stacklevel=2
                    )
            position = {label: first + k for k, label in enumerate(kept)}
            col = np.array([position.get(label, -1) for label in distinct], dtype=np.intp)[codes]
            rows = np.flatnonzero(col >= 0)
            X[rows, col[rows]] = 1.0
            first += len(kept)
        return FeatureMatrix(
            firm_ids=records.firm_id,
            dates=records.date,
            y=records.cds5y_bps.copy(),
            X=X,
            columns=columns,
        )


def encode_features(records: Records) -> FeatureMatrix:
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
    firms, firm_code = sorted_codes(matrix.firm_ids)
    dates, date_code = sorted_codes(matrix.dates)
    n_firms = _round_half_up(firm_frac * len(firms))
    n_dates = _round_half_up(date_frac * len(dates))
    rng = np.random.default_rng(seed)
    removed_firms = np.sort(rng.choice(len(firms), size=n_firms, replace=False))
    removed_dates = np.sort(rng.choice(len(dates), size=n_dates, replace=False))
    out = np.isin(firm_code, removed_firms) | np.isin(date_code, removed_dates)
    return Split(
        in_sample=matrix.take(np.flatnonzero(~out)),
        out_of_sample=matrix.take(np.flatnonzero(out)),
        removed_firms=tuple(firms[i] for i in removed_firms),
        removed_dates=tuple(dates[i] for i in removed_dates),
    )
