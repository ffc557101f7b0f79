import json
from dataclasses import fields

import numpy as np
import pytest

from e2credit.dataset import FeatureMatrix, RawRecord, Records
from e2credit.snapshots import build_records, read_snapshots, write_snapshot_csv


def brute_force_best_split(X, y, rows, feats, tie_tol=1e-10):
    """Exhaustive reference split search, independent of the kernel path.

    Evaluates every midpoint between consecutive distinct sorted values of
    every candidate feature by direct summation around region means; ties
    break to (lower SSE, lower feature, lower threshold). A later feature
    must beat the incumbent by tie_tol times the node SSE: two features
    inducing the same partition are an exact tie in exact arithmetic, and
    the earlier feature must win regardless of float summation order.
    """
    y_node = y[rows]
    node_sse = float(np.sum((y_node - y_node.mean()) ** 2))
    best = None
    for f in sorted(int(f) for f in feats):
        vals = X[rows, f]
        distinct = np.unique(vals)
        local = None
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            s = (lo + hi) / 2.0
            mask = vals <= s
            y_left = y[rows[mask]]
            y_right = y[rows[~mask]]
            sse = float(np.sum((y_left - y_left.mean()) ** 2)) + float(
                np.sum((y_right - y_right.mean()) ** 2)
            )
            if local is None or sse < local[1]:
                local = (s, sse)
        if local is None:
            continue
        if best is None or local[1] < best[2] - tie_tol * node_sse:
            best = (f, local[0], local[1])
    return best


def kernel_root_split(X, y, rows, feats):
    """The root split the tree kernel grows on the given rows and features,
    as (feature, threshold, sse_after) in the terms of
    brute_force_best_split, or None when the root stays a leaf.

    Grows a depth-1 tree on the columns feats of X, ascending, with all of
    them drawn. Dropping the other columns changes no candidate: each
    column's scan route depends only on its own distinct values over all
    rows, packing a two-valued column into another block changes none of
    its counts or sums, and ascending columns keep the tie order.
    """
    from e2credit.forest import grow_tree

    feats = np.sort(np.asarray(feats, dtype=np.int64))
    tree = grow_tree(X[:, feats], y, rows, m=feats.shape[0], max_depth=1,
                     rng=np.random.default_rng(0))
    if tree.feature[0] == -1:
        return None
    y_node = y[rows]
    node_sse = float(np.sum((y_node - y_node.mean()) ** 2))
    return int(feats[tree.feature[0]]), float(tree.threshold[0]), node_sse - tree.improvement[0]


@pytest.fixture
def brute_best_split():
    return brute_force_best_split


@pytest.fixture
def tree_oracle():
    return compacting_tree_predict


@pytest.fixture
def forest_oracle():
    return tree_by_tree_forest_predict


@pytest.fixture
def vi_oracle():
    return stacked_permutation_importance


@pytest.fixture
def small_matrix():
    rng = np.random.default_rng(1234)
    X = rng.normal(size=(120, 5))
    y = 2.0 * X[:, 0] + rng.normal(scale=0.3, size=120)
    return FeatureMatrix.from_arrays(X, y)


def compacting_tree_predict(tree, X):
    """Reference tree prediction: descend only the rows not yet at a leaf,
    compacting the active set at every depth."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.nonzero(tree.feature[node] != -1)[0]
    while active.size:
        nd = node[active]
        go_left = X[active, tree.feature[nd]] <= tree.threshold[nd]
        node[active] = np.where(go_left, tree.left[nd], tree.right[nd])
        active = active[tree.feature[node[active]] != -1]
    out = tree.value[node]
    return float(out[0]) if single else out


def tree_by_tree_forest_predict(forest, X):
    """Reference forest prediction: the mean of the reference tree outputs,
    summed in tree order."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    acc = np.zeros(X.shape[0], dtype=np.float64)
    for tree in forest.trees:
        acc += compacting_tree_predict(tree, X)
    acc /= forest.n_trees
    return float(acc[0]) if single else acc


def stacked_permutation_importance(forest, train, seed, stacked_rows=2**14):
    """Reference OOB permutation VI: every permuted copy of a tree's OOB
    block is built in full and scored by the reference tree prediction.

    Reads each tree's OOB rows from forest.out_of_bag and draws each
    tree's permutations itself, as p successive rng.permutation calls on
    the (seed, tree) stream, one per feature in feature order; the program
    draws them in one call, which must give the same rows. Warns about
    skipped trees the same way as the program. Returns the VI vector.
    """
    import warnings

    from e2credit.metrics import r_squared_arrays

    p = train.n_features
    acc = np.zeros(p, dtype=np.float64)
    used = 0
    for b, (tree, oob) in enumerate(zip(forest.trees, forest.out_of_bag(train.n_rows))):
        if oob.size < 2:
            warnings.warn(f"tree {b}: OOB set too small, skipped", stacklevel=2)
            continue
        y_oob = train.y[oob]
        if np.all(y_oob == y_oob[0]):
            warnings.warn(
                f"tree {b}: constant OOB labels, R^2 undefined, skipped",
                stacklevel=2,
            )
            continue
        X_oob = train.X[oob]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        perms = [rng.permutation(oob.size) for _ in range(p)]
        pred = np.empty((p + 1, oob.size))
        per_call = max(1, stacked_rows // oob.size)
        for first in range(0, p + 1, per_call):
            blocks = np.repeat(X_oob[None], min(per_call, p + 1 - first), axis=0)
            for block, a in zip(blocks, range(first - 1, p)):
                if a >= 0:
                    block[:, a] = X_oob[perms[a], a]
            stacked = compacting_tree_predict(tree, blocks.reshape(-1, p))
            pred[first : first + blocks.shape[0]] = stacked.reshape(blocks.shape[:2])
        base_r2 = r_squared_arrays(y_oob, pred[0])
        if base_r2 == 0.0:
            warnings.warn(f"tree {b}: zero OOB R^2, skipped", stacklevel=2)
            continue
        for a in range(p):
            perm_r2 = r_squared_arrays(y_oob, pred[a + 1])
            acc[a] += (base_r2 - perm_r2) / base_r2
        used += 1
    if used == 0:
        raise ValueError("no tree had a usable out-of-bag sample")
    return acc / used


def per_group_corrcoef(series_by_group):
    """Reference avg_correlation: np.corrcoef once per group that has two or
    more points and varies on both sides, with the same warnings. Returns
    the mean of the kept groups' r, or None when no group is kept."""
    import warnings

    correlations = []
    for a, b in series_by_group.values():
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if a.size >= 2 and np.any(a != a[0]) and np.any(b != b[0]):
            correlations.append(float(np.corrcoef(a, b)[0, 1]))
    skipped = len(series_by_group) - len(correlations)
    if skipped:
        warnings.warn(f"{skipped} of {len(series_by_group)} groups degenerate for "
                      "correlation, skipped", stacklevel=2)
    if not correlations:
        warnings.warn("correlation unavailable: no group had a defined correlation",
                      stacklevel=2)
        return None
    return float(np.mean(correlations))


def per_firm_naive_scale(series):
    """Reference MASE scale: firm by firm in order of first appearance, each
    one's actuals in date order (rows in their given order on a date), the
    mean absolute one-step change; the mean over the firms with two or more
    rows, None when there is none."""
    rows_of = {}
    for row, firm in enumerate(series.firm_ids):
        rows_of.setdefault(firm, []).append(row)
    errors = []
    for rows in rows_of.values():
        rows = sorted(rows, key=series.dates.__getitem__)
        if len(rows) >= 2:
            errors.append(float(np.mean(np.abs(np.diff(series.actual[rows])))))
    return float(np.mean(errors)) if errors else None


def edit_header(path, edit):
    """Replace the header of the forest file at path with edit(header)."""
    raw = path.read_bytes()
    size = int.from_bytes(raw[8:12], "little")
    blob = json.dumps(edit(json.loads(raw[12 : 12 + size]))).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + size :])


# ---------------------------------------------------------------------------
# Row-wise snapshot oracles: the per-row reader, pricing and encoder that the
# columnar data path replaced, kept to check it value for value.
# ---------------------------------------------------------------------------


def _oracle_cell_error(path, lineno, col, problem):
    from e2credit.errors import InputFormatError

    return InputFormatError(f"{path}:{lineno}: column {col}: {problem}")


def _oracle_cell(text, col, path, lineno):
    import math

    from e2credit.dataset import rating_code
    from e2credit.errors import InputFormatError
    from e2credit.structural import MAX_SPREAD_BPS

    if col == "is_banking":
        lowered = text.lower()
        if lowered in {"1", "true", "yes"}:
            return True
        if lowered in {"0", "false", "no"}:
            return False
        raise InputFormatError(f"{path}:{lineno}: bad is_banking value {text!r}")
    if col in ("sp_rating", "moody_rating"):
        try:
            rating_code(text)
        except ValueError:
            raise _oracle_cell_error(path, lineno, col, f"unknown rating label {text!r}") from None
        return text
    if col in ("sector", "country"):
        return text
    try:
        value = float(text)
    except ValueError:
        raise _oracle_cell_error(path, lineno, col, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _oracle_cell_error(path, lineno, col, "non-finite value")
    if col in ("ig_cdx_bps", "cds_5y_bps"):
        if value < 0.0:
            raise _oracle_cell_error(path, lineno, col, f"must be >= 0, got {text!r}")
        if value > MAX_SPREAD_BPS:
            raise _oracle_cell_error(
                path, lineno, col, f"must be <= {MAX_SPREAD_BPS:g}, got {text!r}")
    return value


def col(*values):
    """A float64 column of the given values."""
    return np.array(values, dtype=np.float64)


def build_from_rows(rows, path, params):
    """(Records, Spreads) of snapshot dicts written to path and read back."""
    write_snapshot_csv(rows, path)
    return build_records(read_snapshots(path), params)


def base_row(**overrides):
    """A valid snapshot row of firm ACME on 2016-02-05, D = 18, vol 0.3."""
    row = {
        "firm_id": "ACME",
        "date": "2016-02-05",
        "stock_price": 10.0,
        "market_cap": 500.0,
        "fx_rate": 1.0,
        "is_banking": False,
        "long_term_debt": 1000.0,
        "short_term_debt": 0.0,
        "other_lt_liabilities": 0.0,
        "other_st_liabilities": 0.0,
        "lease_obligations": 0.0,
        "minority_interest": 100.0,
        "preferred_equity": 0.0,
        "hist_vol_30": 0.3,
        "hist_vol_60": 0.3,
        "hist_vol_120": 0.3,
        "sp_rating": "BBB",
        "moody_rating": "Baa2",
        "sector": "industrial",
        "country": "US",
        "ig_cdx_bps": 70.0,
        "cds_5y_bps": 90.0,
    }
    row.update(overrides)
    return row


def spread_reason(path, **overrides):
    """The reason build_from_rows gives base_row(**overrides), "" if priced."""
    from e2credit.structural import ModelParams

    _, spreads = build_from_rows([base_row(**overrides)], path, ModelParams())
    return spreads[("ACME", "2016-02-05")].reason


def records_table(rows):
    """Records by column from RawRecord rows: None is NaN or "" there."""
    numbers = ("e2c_bps", "cds5y_bps", "ig_cdx_bps", "market_cap")
    cols = {f.name: [getattr(r, f.name) for r in rows] for f in fields(RawRecord)}
    return Records(index=np.arange(len(rows)), **{
        name: np.array([np.nan if v is None else v for v in c], dtype=np.float64)
        if name in numbers else tuple(v or "" for v in c) for name, c in cols.items()})


def oracle_read_snapshots(path):
    """Per-row reader through csv.DictReader: a list of FirmSnapshot."""
    import csv
    from datetime import date

    from e2credit.errors import InputFormatError
    from e2credit.snapshots import SNAPSHOT_COLUMNS, FirmSnapshot

    snapshots, seen = [], set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InputFormatError(f"{path}: empty file, header row required")
        missing = [c for c in SNAPSHOT_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise InputFormatError(f"{path}: missing required column(s): {', '.join(missing)}")
        for row in reader:
            lineno = reader.line_num
            firm_id = (row.get("firm_id") or "").strip()
            date_text = (row.get("date") or "").strip()
            if not firm_id:
                raise InputFormatError(f"{path}:{lineno}: empty firm_id")
            try:
                if date.fromisoformat(date_text).isoformat() != date_text:
                    raise ValueError
            except ValueError:
                raise InputFormatError(f"{path}:{lineno}: bad ISO date {date_text!r}") from None
            key = (firm_id, date_text)
            if key in seen:
                raise InputFormatError(f"{path}:{lineno}: duplicate (firm_id, date) pair {key}")
            seen.add(key)
            values = {}
            for col in SNAPSHOT_COLUMNS[2:]:
                text = (row.get(col) or "").strip()
                values[col] = None if text == "" else _oracle_cell(text, col, path, lineno)
            snapshots.append(FirmSnapshot(firm_id=firm_id, date=date_text, values=values))
    return snapshots


def oracle_survival(s0, vol, d, lbar, lam, t):
    """CreditGrades survival probability of one row, through math.erfc, with
    the documented conventions: a zero barrier, a vanishing A^2 and an
    infinite d all give 1; the result is clamped into [0, 1]."""
    import math

    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    ld = lbar * d
    if ld == 0.0:
        return 1.0
    dd = (s0 + ld) / ld * math.exp(lam * lam)
    scaled = vol * s0 / (s0 + ld)
    a_sq = scaled * scaled * t + lam * lam
    if a_sq == 0.0 or dd == math.inf:
        return 1.0
    a = math.sqrt(a_sq)
    raw = phi(-a / 2.0 + math.log(dd) / a) - dd * phi(-a / 2.0 - math.log(dd) / a)
    return min(max(raw, 0.0), 1.0)


def oracle_creditgrades_spread(s0, vol, d, params):
    """CreditGrades spread of one row in bps: 0 at survival 1, 1e6 at
    survival 0, otherwise (1 - R) * -ln(surv) / T, capped at 1e6."""
    import math

    surv = oracle_survival(s0, vol, d, params.debt_recovery, params.debt_recovery_vol,
                           params.maturity)
    if surv >= 1.0:
        return 0.0
    if surv <= 0.0:
        return 1.0e6
    return min((1.0 - params.recovery) * (-math.log(surv) / params.maturity) * 1.0e4, 1.0e6)


def oracle_compute_spread_row(snap, params):
    """Per-row pricing in plain Python: (debt_per_share, selected_vol,
    e2c_bps, creditgrades_bps, reason), the four numbers None on a failure.
    The checks run in the documented order, each reason naming the first
    bad argument."""
    import math

    from e2credit.fundamentals import QUOTE_COLUMNS

    failed = (None, None, None, None)
    extra = ("short_term_debt", "other_lt_liabilities", "other_st_liabilities",
             "lease_obligations")
    required = ("stock_price", "market_cap", "fx_rate", "long_term_debt",
                "minority_interest", "preferred_equity")
    is_banking = snap.get("is_banking")
    if is_banking is None:
        return (*failed, "missing is_banking")
    for col in required if is_banking else required + extra:
        if snap.get(col) is None:
            return (*failed, f"missing {col}")
    quotes = [snap.get(c) for c in QUOTE_COLUMNS if snap.get(c) is not None]
    if not quotes:
        return (*failed, "no volatility quotes")
    ltd = snap.get("long_term_debt")
    std, olt, ost, lease = (snap.get(c) or 0.0 for c in extra)  # a bank's may be blank
    min_int, pref, price, cap, fx = (snap.get(c) for c in (
        "minority_interest", "preferred_equity", "stock_price", "market_cap", "fx_rate"))
    amounts = dict(zip(("long_term_debt",) + extra + ("minority_interest", "preferred_equity"),
                       (ltd, std, olt, ost, lease, min_int, pref)))
    for name, value in amounts.items():
        if value < 0.0:
            return (*failed, f"{name} must be a finite amount >= 0, got {value!r}")
    for name, value in (("stock_price", price), ("market_cap", cap),
                        ("fx_report_to_quote", fx)):
        if value <= 0.0:
            return (*failed, f"{name} must be finite and > 0, got {value!r}")
    fin_debt = ltd if is_banking else ltd + std + 0.5 * (olt + ost) + 0.4 * lease
    if not math.isfinite(fin_debt):
        return (*failed, f"fin_debt must be a finite amount >= 0, got {fin_debt!r}")
    for q in quotes:
        if q < 0.0:
            return (*failed, f"volatility quote must be a finite amount >= 0, got {q!r}")
    ordered = sorted(quotes)
    half = len(ordered) // 2
    vol = ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2
    fin_d = fin_debt * fx
    if fin_d == 0.0:
        d = 0.0
    else:
        shares = (cap + min(pref * fx, 0.5 * cap)) / price
        d = max((fin_d - min(min_int * fx, 0.5 * fin_d)) / shares, 0.1 * price)
    barrier = params.debt_recovery * d
    e2c = ((1.0 - params.recovery) * (4.0 / 9.0 * (barrier / (price + barrier)) * vol * vol)
           * 1.0e4)
    for name, value in (("equity_vol", vol), ("debt_per_share", d), ("e2c_bps", e2c)):
        if not math.isfinite(value):
            return (*failed, f"{name} must be finite, got {value!r}")
    return (d, vol, e2c, oracle_creditgrades_spread(price, vol, d, params), "")


def oracle_build_records(snaps, params):
    """Per-row records as tuples (firm_id, date, e2c_bps, cds5y_bps,
    ig_cdx_bps, market_cap, sp_rating, moody_rating, sector, country) and the
    per-row spreads keyed by (firm_id, date)."""
    records, spreads = [], {}
    for snap in snaps:
        spread = oracle_compute_spread_row(snap, params)
        spreads[(snap.firm_id, snap.date)] = spread
        records.append((snap.firm_id, snap.date, spread[2],
                        *(snap.get(c) for c in ("cds_5y_bps", "ig_cdx_bps", "market_cap",
                                                "sp_rating", "moody_rating", "sector",
                                                "country"))))
    return records, spreads


def _oracle_merged_code(sp, moody):
    from e2credit.dataset import rating_code

    codes = [rating_code(r) for r in (sp, moody) if r is not None and r != ""]
    return min(codes) if codes else None


def oracle_encode(records):
    """Per-record completeness filter and encoder: (X, y, firm_ids, dates,
    column names) of the complete records, dummies fitted on them."""
    complete = [r for r in records
                if None not in r[2:6] and _oracle_merged_code(r[6], r[7]) is not None
                and r[8] and r[9]]
    kept = []
    for field in (9, 8):  # country, then sector
        counts = {}
        for r in complete:
            counts[r[field]] = counts.get(r[field], 0) + 1
        drop = min(counts, key=lambda name: (counts[name], name), default=None)
        kept.append([c for c in sorted(counts) if c != drop])
    names = (["e2c_bps", "ig_cdx_bps", "market_cap", "rating"]
             + [f"country_{c}" for c in kept[0]] + [f"sector_{s}" for s in kept[1]])
    X = np.zeros((len(complete), len(names)))
    for i, r in enumerate(complete):
        X[i, :4] = (r[2], r[4], r[5], _oracle_merged_code(r[6], r[7]))
        for prefix, value in (("country_", r[9]), ("sector_", r[8])):
            if prefix + value in names:
                X[i, names.index(prefix + value)] = 1.0
    y = np.array([r[3] for r in complete], dtype=np.float64)
    return X, y, [r[0] for r in complete], [r[1] for r in complete], names
