"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The tree kernel is pure numpy; a tiny tree is grown before each timed
section so one-off first-call costs stay out of the runtime limits.
"""
import hashlib
import math
import time

import numpy as np
import pytest

import e2credit.forest as forest_mod
from e2credit.dataset import (
    FeatureEncoder,
    FeatureMatrix,
    RawRecord,
    drop_incomplete,
    encode_features,
    split_in_out,
)
from e2credit.forest import best_split, fit_forest, grow_tree, save_forest
from e2credit.importance import importance_report
from e2credit.metrics import (
    PairedSeries,
    avg_correlation,
    mape,
    mase,
    r_squared,
    r_squared_arrays,
    rmse,
    truncated_mean,
)
from e2credit.structural import ModelParams, creditgrades_survival, e2c_spread
from e2credit.synth import generate_snapshots

from conftest import (
    brute_force_best_split, build_from_rows, col, oracle_survival, records_table)

PARAMS = ModelParams()


def _warm_up_kernels():
    """Grow one tiny tree so first-call costs (lazy imports, numpy's
    per-function setup) are paid before any timed section."""
    X = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 5.0], [4.0, 0.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    grow_tree(X, y, np.arange(4), m=2, max_depth=2, rng=np.random.default_rng(0))


def _dataset_from_rows(rows, path):
    records, _ = build_from_rows(rows, path, PARAMS)
    complete = drop_incomplete(records)
    return FeatureEncoder.fit(complete).transform(complete)


def test_criterion_1_e2c_formula_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        s0 = rng.uniform(0.5, 500.0)
        vol = rng.uniform(0.0, 2.0)
        d = rng.uniform(0.0, 1000.0)
        r = rng.uniform(0.0, 1.0)
        lbar = rng.uniform(0.05, 1.0)
        [got] = e2c_spread(
            col(s0), col(vol), col(d), ModelParams(recovery=r, debt_recovery=lbar)
        )
        expected = (1.0 - r) * (4.0 / 9.0) * (lbar * d / (s0 + lbar * d)) * vol**2 * 1e4
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)
    hand = e2c_spread(col(100, 50), col(0.30, 0.60), col(50, 100), PARAMS)
    assert hand == pytest.approx([56.0, 560.0], rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - e2c oracle, 1000 random inputs at 1e-10 rel, "
          f"hand examples 56.0/560.0 bps, {elapsed:.2f}s")


def test_criterion_2_creditgrades_oracle():
    start = time.perf_counter()
    grid = [
        (s0, vol, d, t)
        for s0 in (5.0, 20.0, 80.0, 150.0, 400.0)
        for vol in (0.05, 0.2, 0.4, 0.8, 1.5)
        for d in (1.0, 20.0, 120.0, 900.0)
        for t in (2.0, 5.0)
    ]
    assert len(grid) == 200
    worst = 0.0
    for t in (2.0, 5.0):
        at_t = [row[:3] for row in grid if row[3] == t]
        s0, vol, d = (col(*x) for x in zip(*at_t))
        for row, value in zip(at_t, creditgrades_survival(s0, vol, d, PARAMS, t)):
            want = oracle_survival(*row, 0.5, 0.3, t)
            worst = max(worst, abs(value - want))
            assert abs(value - want) <= 1e-9
    s0, vol, d, _ = (col(*x) for x in zip(*grid[::10]))
    values = [creditgrades_survival(s0, vol, d, PARAMS, float(t)) for t in range(1, 11)]
    assert all((b <= a + 1e-15).all() for a, b in zip(values, values[1:]))
    [reference] = creditgrades_survival(col(100), col(0.30), col(50), PARAMS, 5.0)
    assert reference == pytest.approx(0.98717, abs=2e-5)
    assert reference == pytest.approx(
        oracle_survival(100, 0.30, 50, 0.5, 0.3, 5.0), abs=1e-12
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2: PASS - survival matches independent normal-CDF oracle "
          f"on 200-point grid (worst {worst:.1e} <= 1e-9), monotone in t, "
          f"{elapsed:.2f}s")


def test_criterion_3_split_search_oracle():
    _warm_up_kernels()
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            X = rng.normal(size=(n, p))
        else:
            X = rng.integers(0, 5, size=(n, p)).astype(np.float64)
        y = rng.normal(size=n)
        rows = np.arange(n)
        feats = np.arange(p)
        expected = brute_force_best_split(X, y, rows, feats)
        got = best_split(X, y, rows, feats)
        if expected is None:
            assert got is None
            continue
        assert got.feature == expected[0]
        assert got.threshold == expected[1]
        assert got.sse_after == pytest.approx(expected[2], rel=1e-9, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3: PASS - 500 random instances match exhaustive brute "
          f"force (identical feature and threshold, SSE at 1e-9), {elapsed:.2f}s")


def test_criterion_4_bagging_statistics():
    n = 100
    fractions = []
    for b in range(1000):
        rng = forest_mod._tree_rng(1234, b)
        boot = forest_mod._draw_bootstrap(rng, n)
        fractions.append(1.0 - np.unique(boot).size / n)
    mean_frac = float(np.mean(fractions))
    assert 0.35 <= mean_frac <= 0.39
    print(f"ACCEPTANCE 4: PASS - mean OOB fraction over 1000 bootstrap draws "
          f"at n=100 is {mean_frac:.4f}, inside [0.35, 0.39]")


def test_criterion_5_determinism_across_workers(tmp_path):
    _warm_up_kernels()
    rows, _ = generate_snapshots(n_firms=20, n_dates=15, seed=8)
    matrix = _dataset_from_rows(rows, tmp_path / "snapshots.csv")
    max_workers = 4
    digests = []
    for run in range(5):
        workers = 1 if run % 2 == 0 else max_workers
        forest = fit_forest(matrix, n_trees=50, m=15, max_depth=15,
                            master_seed=99, workers=workers)
        path = tmp_path / f"run{run}.e2cf"
        save_forest(forest, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert len(set(digests)) == 1
    print(f"ACCEPTANCE 5: PASS - 5 runs alternating 1 vs {max_workers} workers "
          f"produce one file hash {digests[0][:12]}...")


def test_criterion_6_synthetic_pipeline(tmp_path):
    _warm_up_kernels()
    start = time.perf_counter()
    rows, meta = generate_snapshots(n_firms=300, n_dates=150, seed=0)
    assert meta["bayes_r2_realized"] == pytest.approx(0.90, abs=0.02)
    matrix = _dataset_from_rows(rows, tmp_path / "snapshots.csv")
    assert matrix.n_rows == 300 * 150
    split = split_in_out(matrix, 0.2, 0.2, seed=0)
    forest = fit_forest(split.in_sample, n_trees=50, m=15, max_depth=15,
                        master_seed=0, workers=2)
    oos_r2 = r_squared_arrays(
        split.out_of_sample.y, forest.predict(split.out_of_sample.X)
    )
    assert oos_r2 >= 0.85
    names = matrix.column_names()
    report = importance_report(forest, split.in_sample, seed=0)
    assert names[report.mdi_ranking()[0]] == "e2c_bps"
    assert names[report.vi_ranking()[0]] == "e2c_bps"

    # Seed robustness on 1200-row subsamples of the panel (full-size
    # retraining 100x would not fit the runtime budget; the e2c dominance
    # being tested is scale-free).
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(split.in_sample.n_rows, size=1200, replace=False))
        sub = split.in_sample.take(idx)
        sub_forest = fit_forest(sub, n_trees=50, m=15, max_depth=15,
                                master_seed=seed, workers=2)
        sub_report = importance_report(sub_forest, sub, seed=seed)
        first_mdi = names[sub_report.mdi_ranking()[0]]
        first_vi = names[sub_report.vi_ranking()[0]]
        wins += first_mdi == "e2c_bps" and first_vi == "e2c_bps"
    assert wins >= 95
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6: PASS - OoS R2={oos_r2:.4f} >= 0.85 at Bayes "
          f"{meta['bayes_r2_realized']:.3f}; e2c ranked first by both methods "
          f"at full scale and in {wins}/100 seeded runs, {elapsed:.1f}s")


def test_criterion_7_split_contract():
    records = []
    for i in range(10):
        for t in range(10):
            records.append(
                dict(
                    firm_id=f"F{i}",
                    date=f"2016-01-{t + 1:02d}",
                    e2c_bps=float(i + t),
                    cds5y_bps=float(i * t + 1),
                    ig_cdx_bps=70.0,
                    market_cap=100.0,
                    sp_rating="BBB",
                    moody_rating=None,
                    sector="industrial",
                    country="US" if i % 2 else "EU",
                )
            )
    matrix = encode_features(records_table([RawRecord(**r) for r in records]))
    split = split_in_out(matrix, 0.2, 0.2, seed=123)
    assert split.in_sample.n_rows == 64
    assert split.out_of_sample.n_rows == 36
    assert split.oos_fraction == pytest.approx(0.36)
    print("ACCEPTANCE 7: PASS - complete 10x10 grid with 20%/20% fractions "
          "yields exactly 36% out-of-sample")


def test_criterion_8_metrics_suite():
    def series(actual, predicted, firms=None, dates=None):
        n = len(actual)
        return PairedSeries(
            firm_ids=tuple(firms or [f"F{i}" for i in range(n)]),
            dates=tuple(dates or [f"2016-01-{i + 1:02d}" for i in range(n)]),
            actual=np.asarray(actual, dtype=float),
            predicted=np.asarray(predicted, dtype=float),
        )

    assert r_squared(series([1, 2, 3], [1, 2, 3])) == 1.0
    assert r_squared(series([1, 2, 3], [2, 2, 2])) == 0.0
    assert r_squared(series([1, 2, 3], [1, 2, 4])) == 0.5
    assert mape(series([100, 200], [110, 180])) == pytest.approx(0.10, abs=1e-15)
    assert rmse(series([3, 4], [0, 0])) == math.sqrt(12.5)
    perfect = series([3, 4], [3, 4], firms=["A", "A"])
    assert rmse(perfect) == 0.0 and mape(perfect) == 0.0 and mase(perfect) == 0.0
    assert truncated_mean(list(range(1, 11)), 0.10) == 5.5
    assert truncated_mean([7.25] * 5, 0.10) == 7.25
    assert truncated_mean([1.0, 2.0, 3.0], 0.0) == 2.0
    groups_perfect = {"A": ([1.0, 2, 3], [1.0, 2, 3]), "B": ([1.0, 5], [2.0, 9])}
    assert avg_correlation(groups_perfect) == pytest.approx(1.0, abs=1e-12)
    assert avg_correlation({"A": ([1.0, 2, 3], [-1.0, -2, -3])}) == pytest.approx(
        -1.0, abs=1e-12
    )
    x = np.array([1.0, -1.0, 1.0, -1.0])
    z = np.array([1.0, 1.0, -1.0, -1.0])
    blend = {"g1": (x, 0.8 * x + 0.6 * z), "g2": (x, 0.6 * x + 0.8 * z)}
    assert avg_correlation(blend) == pytest.approx(0.7, abs=1e-12)
    print("ACCEPTANCE 8: PASS - metrics examples exact, incl. "
          "truncated_mean([1..10], 0.10) = 5.5")


def test_criterion_9_monotone_invariance(monkeypatch, tmp_path):
    _warm_up_kernels()
    rows, _ = generate_snapshots(n_firms=25, n_dates=20, seed=6)
    matrix = _dataset_from_rows(rows, tmp_path / "snapshots.csv")
    cubed_X = matrix.X.copy()
    col = matrix.column_names().index("market_cap")
    cubed_X[:, col] = cubed_X[:, col] ** 3
    cubed = FeatureMatrix.from_arrays(
        cubed_X, matrix.y.copy(), firm_ids=matrix.firm_ids, dates=matrix.dates,
        columns=matrix.columns,
    )
    base = fit_forest(matrix, n_trees=20, m=10, max_depth=10, master_seed=4)
    trans = fit_forest(cubed, n_trees=20, m=10, max_depth=10, master_seed=4)
    for b, (ta, tb) in enumerate(zip(base.trees, trans.trees)):
        boot = forest_mod._draw_bootstrap(forest_mod._tree_rng(4, b), matrix.n_rows)
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.value, tb.value)
        assert np.array_equal(
            ta.predict(matrix.X[boot]), tb.predict(cubed.X[boot])
        )
    monkeypatch.setattr(
        forest_mod, "_draw_bootstrap", lambda rng, n: np.arange(n, dtype=np.int64)
    )
    base_all = fit_forest(matrix, n_trees=20, m=10, max_depth=10, master_seed=4)
    trans_all = fit_forest(cubed, n_trees=20, m=10, max_depth=10, master_seed=4)
    assert np.array_equal(base_all.predict(matrix.X), trans_all.predict(cubed.X))
    print("ACCEPTANCE 9: PASS - cubing a numeric feature leaves tree "
          "structures, leaf values and sample-point predictions bitwise "
          "unchanged")
