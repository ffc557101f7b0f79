import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_firm_naive_scale, per_group_corrcoef

from e2credit.metrics import (
    PairedSeries,
    _median,
    _naive_scale,
    _trim_rows_by_actual,
    accuracy_metrics,
    avg_correlation,
    bucket_comparison,
    group_pairs,
    mape,
    mase,
    overall_comparison,
    r_squared,
    r_squared_arrays,
    rmse,
    truncated_mean,
)


def series(actual, predicted, firms=None, dates=None):
    n = len(actual)
    return PairedSeries(
        firm_ids=tuple(firms or [f"F{i}" for i in range(n)]),
        dates=tuple(dates or [f"2016-01-{i + 1:02d}" for i in range(n)]),
        actual=np.asarray(actual, dtype=float),
        predicted=np.asarray(predicted, dtype=float),
    )


class TestRSquared:
    def test_perfect(self):
        assert r_squared(series([1, 2, 3], [1, 2, 3])) == 1.0

    def test_mean_predictor(self):
        assert r_squared(series([1, 2, 3], [2, 2, 2])) == 0.0

    def test_hand_example(self):
        assert r_squared(series([1, 2, 3], [1, 2, 4])) == pytest.approx(0.5)

    def test_can_be_negative(self):
        assert r_squared(series([1, 2, 3], [10, -10, 10])) < 0.0

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError):
            r_squared(series([2, 2, 2], [1, 2, 3]))

    def test_too_short(self):
        with pytest.raises(ValueError):
            r_squared(series([1], [1]))

    @pytest.mark.parametrize("k", [2, 7, 9, 130, 1001, 20000])
    def test_rows_match_one_dimensional_bitwise(self, k):
        # Permutation importance scores every feature's row of predictions
        # in one call; each must equal the R^2 of that row on its own.
        rng = np.random.default_rng(k)
        actual = rng.normal(size=k) * 100.0
        block = rng.normal(size=(4, k + 3)) * 100.0
        rows = block[:, 1 : k + 1]  # a strided view, as the caller passes
        got = r_squared_arrays(actual, rows)
        for j in range(4):
            want = r_squared_arrays(actual, rows[j].copy())
            assert isinstance(want, float)
            assert np.float64(got[j]).tobytes() == np.float64(want).tobytes()


class TestErrorMetrics:
    def test_mape_example(self):
        assert mape(series([100, 200], [110, 180])) == pytest.approx(0.10)

    def test_perfect_predictions(self):
        s = series([3, 4], [3, 4], firms=["A", "A"])
        assert rmse(s) == 0.0
        assert mape(s) == 0.0
        assert mase(s) == 0.0

    def test_rmse_example(self):
        assert rmse(series([3, 4], [0, 0])) == pytest.approx(math.sqrt(12.5))

    def test_rmse_nonnegative_iff(self):
        s = series([5, 7, 9], [5.0, 7.0, 9.0])
        assert rmse(s) == 0.0
        assert rmse(series([5, 7, 9], [5, 7, 9.1])) > 0.0

    def test_mape_zero_actual_errors(self):
        with pytest.raises(ValueError):
            mape(series([0, 1], [1, 1]))

    def test_mase_scaling(self):
        # One firm, three dates: naive errors |20|, |10| -> scale 15.
        s = series([100, 120, 110], [105, 115, 105],
                   firms=["A", "A", "A"],
                   dates=["2016-01-01", "2016-01-08", "2016-01-15"])
        assert mase(s) == pytest.approx(5.0 / 15.0)

    def test_mase_single_date_firms_error(self):
        with pytest.raises(ValueError):
            mase(series([1, 2], [1, 2], firms=["A", "B"],
                        dates=["2016-01-01", "2016-01-01"]))


class TestTruncatedMean:
    def test_one_to_ten(self):
        assert truncated_mean(list(range(1, 11)), 0.10) == 5.5

    def test_constant(self):
        assert truncated_mean([4.2] * 7, 0.10) == 4.2

    def test_zero_trim_is_mean(self):
        values = [1.0, 5.0, 9.0, 2.0]
        assert truncated_mean(values, 0.0) == pytest.approx(np.mean(values))

    def test_within_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(1, 40)))
            tm = truncated_mean(values, 0.10)
            assert values.min() <= tm <= values.max()

    def test_bad_trim(self):
        with pytest.raises(ValueError):
            truncated_mean([1, 2], 0.5)


class TestAvgCorrelation:
    def test_perfect(self):
        groups = {"A": ([1.0, 2, 3], [1.0, 2, 3]), "B": ([4.0, 5], [4.0, 5])}
        assert avg_correlation(groups) == pytest.approx(1.0)

    def test_anti(self):
        groups = {"A": ([1.0, 2, 3], [-1.0, -2, -3])}
        assert avg_correlation(groups) == pytest.approx(-1.0)

    def test_constructed_blend(self):
        # x and z orthogonal with zero mean and equal norm, so
        # corr(x, r*x + sqrt(1-r^2)*z) == r exactly.
        x = np.array([1.0, -1.0, 1.0, -1.0])
        z = np.array([1.0, 1.0, -1.0, -1.0])
        groups = {
            "g1": (x, 0.8 * x + 0.6 * z),
            "g2": (x, 0.6 * x + 0.8 * z),
        }
        assert avg_correlation(groups) == pytest.approx(0.7, abs=1e-12)

    def test_affine_invariance(self):
        x = np.array([1.0, 3.0, 7.0, 2.0])
        y = np.array([2.0, 5.0, 4.0, 9.0])
        base = avg_correlation({"g": (x, y)})
        scaled = avg_correlation({"g": (3.0 * x + 11.0, 0.5 * y - 4.0)})
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_degenerate_group_skipped(self):
        groups = {"bad": ([1.0, 1.0], [1.0, 2.0]), "good": ([1.0, 2], [1.0, 2])}
        with pytest.warns(UserWarning, match="degenerate"):
            assert avg_correlation(groups) == pytest.approx(1.0)

    def test_one_warning_counts_the_skipped_groups(self):
        groups = {"one": ([1.0], [2.0]), "flat": ([1.0, 2.0], [3.0, 3.0]),
                  "good": ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]), "empty": ([], [])}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert avg_correlation(groups) == pytest.approx(-1.0)
        assert [str(w.message) for w in caught] == [
            "3 of 4 groups degenerate for correlation, skipped"]

    def test_all_degenerate_errors(self):
        # No group defines a correlation: the mean is undefined, None with a
        # warning, as MASE is in accuracy_metrics.
        with pytest.warns(UserWarning, match="no group had a defined correlation"):
            assert avg_correlation({"bad": ([1.0], [2.0]),
                                    "flat": ([1.0, 2.0], [3.0, 3.0])}) is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_group_corrcoef(self, data):
        # Segment sums against np.corrcoef group by group: the same groups
        # kept, the same warnings, and the mean within 1e-12. Integer steps
        # on offsets up to 1e6, some sides constant and some exact affine
        # images of the other (r = +-1), as lists or arrays.
        groups = {}
        for g in range(data.draw(st.integers(0, 12))):
            size = data.draw(st.integers(0, 40))
            steps = st.lists(st.integers(-1000, 1000), min_size=size, max_size=size)
            scale = data.draw(st.sampled_from([1.0, 0.25, 1e-3, 37.5]))
            a = data.draw(st.floats(-1e6, 1e6)) + scale * np.array(data.draw(steps), float)
            kind = data.draw(st.sampled_from(["free", "constant a", "constant b", "affine"]))
            if kind == "affine":
                b = data.draw(st.sampled_from([-2.0, -1.0, 0.5, 3.0])) * a + 7.0
            else:
                b = data.draw(st.floats(-1e6, 1e6)) + np.array(data.draw(steps), float)
            if kind == "constant a":
                a = np.full(size, a[0] if size else 0.0)
            if kind == "constant b":
                b = np.full(size, 42.0)
            as_list = data.draw(st.booleans())
            groups[f"g{g}"] = (a.tolist(), b.tolist()) if as_list else (a, b)
        results = []
        for avg in (avg_correlation, per_group_corrcoef):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append((avg(groups), [str(w.message) for w in caught]))
        (got, got_warnings), (want, want_warnings) = results
        assert got_warnings == want_warnings
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-12 and -1.0 <= got <= 1.0

    def test_mismatched_pair_lengths_rejected(self):
        with pytest.raises(ValueError):
            avg_correlation({"g": ([1.0, 2.0, 3.0], [1.0, 2.0])})

    def test_group_pairs_modes(self):
        s = series([1, 2, 3, 4], [1, 2, 3, 4],
                   firms=["A", "A", "B", "B"],
                   dates=["d1", "d2", "d1", "d2"])
        by_firm = group_pairs(s, "by_firm")
        assert set(by_firm) == {"A", "B"}
        by_date = group_pairs(s, "by_date")
        assert set(by_date) == {"d1", "d2"}
        with pytest.raises(ValueError):
            group_pairs(s, "by_planet")


def reference_bucket_table(keys, firm_ids, dates, actual, models, trim_frac=0.10):
    """bucket_comparison cell by cell: accuracy_metrics of each (bucket,
    model) series on its own, trimmed and MASE-scaled per model."""
    min_rows = math.ceil(1.0 / trim_frac) if trim_frac > 0 else 1
    rows = []
    for bucket in sorted(set(keys)):
        idx = np.array([i for i, key in enumerate(keys) if key == bucket])
        if idx.size < min_rows:
            warnings.warn(f"bucket {bucket!r} has {idx.size} rows (< {min_rows}), skipped")
            continue
        row = {"bucket": bucket, "obs": idx.size, "median_actual": float(np.median(actual[idx])),
               "tmean_actual": truncated_mean(actual[idx], trim_frac)}
        for name, values in models.items():
            row[f"median_{name}"] = float(np.median(values[idx]))
            row[f"tmean_{name}"] = truncated_mean(values[idx], trim_frac)
            sub = PairedSeries(tuple(firm_ids), tuple(dates), actual, values).take(idx)
            for metric, value in accuracy_metrics(sub, trim_frac).items():
                row[f"{metric}_{name}"] = value
        rows.append(row)
    return rows


def bits(value):
    return value if value is None or isinstance(value, str) else np.float64(value).tobytes()


def assert_same_table(build, reference, *args, errors=False):
    """build and reference give the same table, every cell bit for bit, with
    the same warnings in the same order; with errors=True they may instead
    raise the same ValueError after the same warnings. Returns the table
    (None on an error) and the warnings."""
    outcomes = []
    for fn in (build, reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                table = fn(*args)
            except ValueError as exc:
                if not errors:
                    raise
                table = repr(exc)
        outcomes.append((table, [str(w.message) for w in caught]))
    (got, got_warnings), (want, want_warnings) = outcomes
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return None, got_warnings
    assert [list(row) for row in got] == [list(row) for row in want]
    for got_row, want_row in zip(got, want):
        assert {k: bits(v) for k, v in got_row.items()} == {
            k: bits(v) for k, v in want_row.items()}
    return got, got_warnings


def assert_tables_bitwise(keys, firm_ids, dates, actual, models, trim_frac=0.10):
    """bucket_comparison equals the reference in every cell, bit for bit,
    with the same warnings in the same order. Returns the table."""
    return assert_same_table(bucket_comparison, reference_bucket_table,
                             keys, firm_ids, dates, actual, models, trim_frac)


class TestBucketTable:
    def test_identity_dataset_zero_errors(self):
        n = 40
        actual = np.linspace(10, 100, n)
        s_firms = [f"F{i % 4}" for i in range(n)]
        s_dates = [f"2016-01-{i % 10 + 1:02d}" for i in range(n)]
        rows = bucket_comparison(
            ["all"] * n, s_firms, s_dates, actual, {"model": actual.copy()},
            trim_frac=0.10,
        )
        assert len(rows) == 1
        assert rows[0]["rmse_model"] == 0.0
        assert rows[0]["mape_model"] == 0.0
        assert rows[0]["mase_model"] == 0.0

    def test_small_bucket_skipped(self):
        n = 14
        actual = np.linspace(10, 50, n)
        keys = ["big"] * 10 + ["tiny"] * 4
        with pytest.warns(UserWarning, match="tiny"):
            rows = bucket_comparison(
                keys,
                [f"F{i}" for i in range(n)],
                ["2016-01-01"] * n,
                actual,
                {"m": actual.copy()},
                trim_frac=0.10,
            )
        assert [r["bucket"] for r in rows] == ["big"]

    def test_accuracy_metrics_trimming(self):
        # Outlier rows beyond the 10% tails must not affect the metrics.
        actual = np.array([1e6, 50.0, 60, 70, 80, 90, 100, 110, 120, 1e-3])
        predicted = actual.copy()
        predicted[0] = 0.0  # error confined to a trimmed row
        predicted[-1] = 1e5
        s = series(actual, predicted, firms=["A"] * 10,
                   dates=[f"2016-01-{i + 1:02d}" for i in range(10)])
        out = accuracy_metrics(s, trim_frac=0.10)
        assert out["rmse"] == 0.0
        assert out["mape"] == 0.0

    def test_zero_actual_after_trimming_leaves_mape_none(self):
        # Zeros inside the kept rows make MAPE undefined: None with one
        # warning, while RMSE and MASE are still computed.
        actual = np.array([0.0, 0.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0])
        s = series(actual, actual + 1.0, firms=["A"] * 10,
                   dates=[f"2016-01-{i + 1:02d}" for i in range(10)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = accuracy_metrics(s, trim_frac=0.10)
        assert [str(w.message) for w in caught] == [
            "MAPE unavailable: MAPE undefined: actual series contains zeros"]
        assert out["rmse"] == 1.0 and out["mape"] is None and out["mase"] > 0.0

    def test_empty_table(self):
        assert bucket_comparison([], [], [], np.zeros(0), {"m": np.zeros(0)}) == []

    def test_interleaved_buckets_equal_each_bucket_alone(self):
        # Buckets given out of order and interleaved: each row holds the
        # metrics of its bucket's rows alone, in their given order.
        rng = np.random.default_rng(3)
        n = 60
        keys = rng.choice(["b", "a", "c"], n).tolist()
        firms = [f"F{i}" for i in rng.integers(0, 5, n)]
        dates = [f"2016-01-{i:02d}" for i in rng.integers(1, 29, n)]
        actual = rng.uniform(10, 100, n)
        model = actual + rng.normal(size=n)
        rows = bucket_comparison(keys, firms, dates, actual, {"m": model})
        assert [r["bucket"] for r in rows] == ["a", "b", "c"]
        for row in rows:
            idx = [i for i in range(n) if keys[i] == row["bucket"]]
            alone = series(actual[idx], model[idx], firms=[firms[i] for i in idx],
                           dates=[dates[i] for i in idx])
            assert row["obs"] == len(idx)
            assert row["median_m"] == float(np.median(model[idx]))
            for metric, value in accuracy_metrics(alone).items():
                assert row[f"{metric}_m"] == value

    def test_cells_match_per_bucket_accuracy_metrics_bitwise(self):
        # Four buckets interleaved across rows: "a" plain, "b" with zero
        # actuals inside its trimmed rows (MAPE None), "c" with one date per
        # firm (MASE None) and "d" too small to trim (skipped).
        rng = np.random.default_rng(11)
        n = 90
        keys = np.array(["a", "b", "c"])[np.arange(n) % 3].tolist()
        keys[4] = keys[40] = keys[77] = "d"
        firms = [f"F{i}" for i in rng.integers(0, 6, n)]
        dates = [f"2016-{i // 28 + 1:02d}-{i % 28 + 1:02d}" for i in rng.permutation(n)]
        for i in range(n):
            if keys[i] == "c":
                firms[i] = f"C{i}"
        actual = rng.uniform(20.0, 400.0, n)
        actual[[i for i in range(n) if keys[i] == "b"][10:14]] = 0.0
        models = {"e2c": actual * 1.3 + rng.normal(0, 9, n),
                  "forest": actual + rng.normal(0, 3, n)}
        table, caught = assert_tables_bitwise(keys, firms, dates, actual, models)
        assert [row["bucket"] for row in table] == ["a", "b", "c"]
        assert caught == [
            "MAPE unavailable: MAPE undefined: actual series contains zeros"] * 2 + [
            "MASE unavailable: MASE undefined: no firm has two or more dates"] * 2 + [
            "bucket 'd' has 3 rows (< 10), skipped"]

    def test_zero_naive_error_matches_reference(self):
        # One firm whose actual never changes: the MASE scale is zero.
        n = 12
        actual = np.full(n, 55.0)
        dates = [f"2016-01-{i + 1:02d}" for i in range(n)]
        _, caught = assert_tables_bitwise(["x"] * n, ["F"] * n, dates, actual,
                                          {"m": actual + 1.0})
        assert caught == ["MASE unavailable: MASE undefined: naive forecast error is zero"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_tables_match_reference_bitwise(self, data):
        n = data.draw(st.integers(0, 80))

        def draw(elements):
            return data.draw(st.lists(elements, min_size=n, max_size=n))

        keys = draw(st.sampled_from(["lo", "mid", "hi"]))
        firms = draw(st.sampled_from([f"F{i}" for i in range(6)]))
        dates = draw(st.sampled_from([f"2016-01-{i:02d}" for i in range(1, 11)]))
        actual = np.array(draw(st.integers(0, 30)), dtype=float)
        models = {"m": np.array(draw(st.floats(-50, 50)), dtype=float), "k": actual * 0.5}
        trim_frac = data.draw(st.sampled_from([0.0, 0.10, 0.25]))
        assert_tables_bitwise(keys, firms, dates, actual, models, trim_frac)


def reference_overall_table(firm_ids, dates, actual, models, trim_frac=0.10):
    """overall_comparison model by model, from the per-model calls: each
    model's accuracy_metrics, then its R^2, then avg_correlation of its
    group_pairs by firm and by date."""
    rows = []
    for name, values in models.items():
        s = PairedSeries(tuple(firm_ids), tuple(dates), actual, values)
        acc = accuracy_metrics(s, trim_frac)
        rows.append({
            "model": name,
            "r2": r_squared_arrays(actual, values),
            **acc,
            "corr_by_firm": avg_correlation(group_pairs(s, "by_firm")),
            "corr_by_date": avg_correlation(group_pairs(s, "by_date")),
        })
    return rows


class TestOverallTable:
    def test_cells_and_warnings_match_per_model_calls(self):
        # Six firms with a zero actual among the kept rows (MAPE None for
        # every model), a model constant on every firm and date (no defined
        # correlation) and one that is constant on some firms only.
        rng = np.random.default_rng(5)
        n = 120
        firms = [f"F{i}" for i in rng.integers(0, 6, n)]
        dates = [f"2016-{i // 28 + 1:02d}-{i % 28 + 1:02d}" for i in rng.integers(0, 40, n)]
        actual = rng.uniform(20.0, 400.0, n)
        actual[rng.choice(n, 14, replace=False)] = 0.0  # 12 are trimmed away
        models = {
            "e2c": actual * 1.2 + rng.normal(0, 9, n),
            "creditgrades": np.zeros(n),
            "forest": np.where(np.array(firms) == "F2", 7.0, actual + rng.normal(0, 3, n)),
        }
        table, caught = assert_same_table(overall_comparison, reference_overall_table,
                                          firms, dates, actual, models)
        assert [row["model"] for row in table] == ["e2c", "creditgrades", "forest"]
        assert table[1]["corr_by_firm"] is None and table[1]["corr_by_date"] is None
        assert all(row["mape"] is None for row in table)
        mape_none = "MAPE unavailable: MAPE undefined: actual series contains zeros"
        assert caught.count(mape_none) == 3
        assert caught.count("correlation unavailable: no group had a defined correlation") == 2
        assert caught[0] == mape_none

    def test_single_date_firms_leave_mase_none(self):
        n = 30
        actual = np.linspace(10.0, 90.0, n)
        firms = [f"F{i}" for i in range(n)]
        dates = [f"2016-01-{i % 5 + 1:02d}" for i in range(n)]
        table, caught = assert_same_table(overall_comparison, reference_overall_table,
                                          firms, dates, actual, {"m": actual + 1.0})
        assert table[0]["mase"] is None
        assert "MASE unavailable: MASE undefined: no firm has two or more dates" in caught

    def test_non_finite_value_in_trimmed_row_raises_as_before(self):
        # The row with the largest actual is trimmed away, yet a NaN there
        # still fails the model's whole series, after the earlier model's
        # warnings.
        n = 20
        actual = np.arange(1.0, n + 1.0)
        actual[0] = 0.0  # kept: MAPE None for the first model
        actual[1] = 0.5
        bad = actual.copy()
        bad[-1] = np.nan
        firms = ["A"] * n
        dates = [f"2016-01-{i + 1:02d}" for i in range(n)]
        table, caught = assert_same_table(
            overall_comparison, reference_overall_table,
            firms, dates, actual, {"ok": actual + 1.0, "bad": bad}, errors=True)
        assert table is None and caught

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_tables_match_per_model_calls(self, data):
        n = data.draw(st.integers(1, 80))

        def draw(elements):
            return data.draw(st.lists(elements, min_size=n, max_size=n))

        firms = draw(st.sampled_from([f"F{i}" for i in range(6)]))
        dates = draw(st.sampled_from([f"2016-01-{i:02d}" for i in range(1, 11)]))
        actual = np.array(draw(st.integers(0, 30)), dtype=float)
        models = {"m": np.array(draw(st.floats(-50, 50)), dtype=float),
                  "k": actual * 0.5, "c": np.full(n, 3.0)}
        trim_frac = data.draw(st.sampled_from([0.0, 0.10, 0.25]))
        assert_same_table(overall_comparison, reference_overall_table,
                          firms, dates, actual, models, trim_frac, errors=True)


class TestMedian:
    @pytest.mark.parametrize("values", [
        [5.0], [2.0, 1.0], [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0],
        [1.0, 1.0, 2.0, 2.0, 2.0], [7.0, 7.0, 7.0, 7.0],
        [-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, 0.0],
        [1.0, np.nan, 2.0], [np.nan], [np.nan, 1.0],
        [-3.5, 2.25, 0.1, 9.0, -1e-300, 4.0],
    ])
    def test_matches_np_median_bitwise(self, values):
        a = np.array(values, dtype=np.float64)
        assert np.float64(_median(a)).tobytes() == np.float64(np.median(a)).tobytes()

    def test_lone_negative_zero_gives_positive_zero(self):
        assert np.float64(_median(np.array([-0.0]))).tobytes() == np.float64(0.0).tobytes()

    def test_leaves_its_input_alone(self):
        a = np.array([3.0, 1.0, 2.0])
        _median(a)
        assert a.tolist() == [3.0, 1.0, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 1e-9, 1e9]),
                           min_size=1, max_size=40))
    def test_random_ties_and_signed_zeros(self, values):
        a = np.array(values, dtype=np.float64)
        assert np.float64(_median(a)).tobytes() == np.float64(np.median(a)).tobytes()


class TestNaiveScale:
    def test_random_row_subsets_match_per_firm_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            s = series(rng.normal(100.0, 30.0, n), np.zeros(n),
                       firms=[f"F{i}" for i in rng.integers(0, 7, n)],
                       dates=[f"2016-01-{i:02d}" for i in rng.integers(1, 15, n)])
            sub = s.take(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            assert bits(_naive_scale(sub)) == bits(per_firm_naive_scale(sub))

    def test_firm_whose_first_row_is_trimmed_away(self):
        # Firm A comes first, but its first row holds the largest actual and
        # is trimmed: in the trimmed rows B comes first, and A's steps are
        # taken over its remaining dates only.
        firms = ["A", "B", "A", "B", "A", "B", "A", "B", "A", "B"]
        dates = [f"2016-01-{d:02d}" for d in (5, 1, 2, 2, 3, 3, 4, 4, 1, 5)]
        actual = np.array([900.0, 10.0, 12.0, 15.0, 11.0, 19.0, 30.0, 14.0, 8.0, 1.0])
        s = series(actual, actual, firms=firms, dates=dates)
        trimmed = s.take(_trim_rows_by_actual(actual, 0.10))
        assert trimmed.firm_ids[0] == "B" and 900.0 not in trimmed.actual
        assert bits(_naive_scale(trimmed)) == bits(per_firm_naive_scale(trimmed))

    def test_no_firm_with_two_rows(self):
        s = series([1.0, 2.0], [0.0, 0.0], firms=["A", "B"], dates=["d1", "d1"])
        assert _naive_scale(s) is None and per_firm_naive_scale(s) is None


class TestPairedSeriesTake:
    def test_rows_in_given_order(self):
        s = series([1, 2, 3, 4], [5, 6, 7, 8], firms=["A", "B", "C", "D"],
                   dates=["d1", "d2", "d3", "d4"])
        sub = s.take(np.array([3, 1, 1]))
        assert sub.firm_ids == ("D", "B", "B")
        assert sub.dates == ("d4", "d2", "d2")
        assert sub.actual.tolist() == [4.0, 2.0, 2.0]
        assert sub.predicted.tolist() == [8.0, 6.0, 6.0]

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            series([1, 2], [1, 2]).take(np.array([], dtype=np.int64))
