import concurrent.futures
import dataclasses
import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import e2credit.forest as forest_mod
from e2credit import _kernels
from e2credit.config import RunConfig
from e2credit.dataset import FeatureEncoder, FeatureMatrix, drop_incomplete
from e2credit.structural import ModelParams
from e2credit.synth import generate_snapshots
from e2credit.errors import InputFormatError, PipelineError
from e2credit.importance import permutation_importance

from conftest import build_from_rows, edit_header, kernel_root_split
from e2credit.forest import (
    Forest,
    Nodes,
    fit_forest,
    grow_tree,
    load_forest,
    save_forest,
)

FOUR_X = np.array([[1.0], [2.0], [3.0], [4.0]])
FOUR_Y = np.array([1.0, 1.0, 5.0, 5.0])


class TestRootSplit:
    def test_four_point_example(self):
        assert kernel_root_split(FOUR_X, FOUR_Y, np.arange(4), np.array([0])) == (0, 2.5, 0.0)
        tree = grow_tree(FOUR_X, FOUR_Y, np.arange(4), m=1, max_depth=1,
                         rng=np.random.default_rng(0))
        assert (tree.value[1], tree.value[2]) == (1.0, 5.0)

    def test_tie_break_takes_the_lower_threshold(self):
        # Thresholds 1.5 and 3.5 both leave an SSE of 2/3.
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert kernel_root_split(FOUR_X, y, np.arange(4), np.array([0]))[1] == 1.5
        # The same tie on a column counted per value (V * V <= N): 0.5 and
        # 1.5 both leave an SSE of 1.5.
        X = np.repeat([0.0, 1.0, 2.0], 3)[:, None]
        assert _kernels.Presorted(X).few_feats.tolist() == [0]
        y = np.repeat([0.0, 1.0, 0.0], 3)
        assert kernel_root_split(X, y, np.arange(9), np.array([0]))[1] == 0.5

    def test_informative_feature_beats_noise(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.repeat([0.0, 1.0], 10), rng.normal(size=20)])
        y = np.repeat([0.0, 10.0], 10)
        assert kernel_root_split(X, y, np.arange(20), np.array([0, 1]))[0] == 0

    def test_no_valid_split(self):
        X = np.ones((5, 2))
        y = np.arange(5.0)
        assert kernel_root_split(X, y, np.arange(5), np.array([0, 1])) is None

    def test_matches_brute_force(self, brute_best_split):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(2, 31))
            p = int(rng.integers(1, 5))
            if rng.random() < 0.5:
                X = rng.normal(size=(n, p))
            else:
                X = rng.integers(0, 4, size=(n, p)).astype(np.float64)
            y = rng.normal(size=n)
            rows = np.arange(n)
            feats = np.arange(p)
            expected = brute_best_split(X, y, rows, feats)
            got = kernel_root_split(X, y, rows, feats)
            if expected is None:
                assert got is None
                continue
            assert got[:2] == expected[:2]
            assert got[2] == pytest.approx(expected[2], rel=1e-9, abs=1e-9)

    def test_strict_feature_subsets_match_brute_force(self, brute_best_split):
        # A random strict subset of the features, on bootstrap rows with
        # duplicates drawn from the first half of the matrix. Columns 0-1
        # are presorted (V * V > N), 2-3 counted per value, 4-7 dummies (4-6
        # one-hot a 4-level categorical, 7 overlaps them) and column 8 is
        # presorted but constant on the first half, so never splits there.
        # Column 8 is always drawn; drawn alone, there is no split.
        constant_only = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 200))
            half = n // 2
            level = rng.integers(0, 4, n)
            X = np.column_stack([
                rng.normal(size=n),
                np.round(rng.normal(size=n), 1),
                rng.integers(0, 3, n),
                rng.integers(0, 5, n),
                *(level == k for k in range(3)),
                rng.integers(0, 2, n),
                np.r_[np.full(half, 0.25), rng.normal(size=n - half)],
            ]).astype(np.float64)
            pre = _kernels.Presorted(X)
            assert pre.sorted_feats.tolist() == [0, 1, 8]
            assert pre.few_feats.tolist() == [2, 3]
            assert [b[0].tolist() for b in pre.blocks] == [[4, 5, 6], [7]]
            y = X[:, 0] + 0.5 * X[:, 3] - X[:, 4] + rng.normal(scale=0.5, size=n)
            rows = rng.integers(0, half, size=half)
            others = rng.permutation(8)[: int(rng.integers(0, 8))]
            feats = np.r_[others, 8]
            expected = brute_best_split(X, y, rows, feats)
            got = kernel_root_split(X, y, rows, feats)
            if expected is None:
                constant_only += 1
                assert got is None
                continue
            assert got[:2] == expected[:2]
            assert got[2] == pytest.approx(expected[2], rel=1e-9, abs=1e-9)
        assert constant_only > 0


class TestGrowTree:
    def test_depth_one_matches_split(self):
        rng = np.random.default_rng(0)
        tree = grow_tree(FOUR_X, FOUR_Y, np.arange(4), m=1, max_depth=1, rng=rng)
        assert tree.n_nodes == 3
        assert tree.threshold[0] == 2.5
        assert sorted(tree.value[1:]) == [1.0, 5.0]
        assert tree.predict(np.array([1.5])) == 1.0

    def test_memorizes_distinct_rows(self):
        rng_data = np.random.default_rng(5)
        X = rng_data.normal(size=(50, 3))
        y = rng_data.normal(size=50)
        tree = grow_tree(X, y, np.arange(50), m=3, max_depth=None,
                         rng=np.random.default_rng(1))
        assert np.abs(tree.predict(X) - y).max() == 0.0

    def test_single_row(self):
        tree = grow_tree(FOUR_X, FOUR_Y, np.array([2]), m=1, max_depth=5,
                         rng=np.random.default_rng(0))
        assert tree.n_nodes == 1
        assert tree.value[0] == 5.0

    def test_depth_cap_respected(self):
        rng_data = np.random.default_rng(9)
        X = rng_data.normal(size=(300, 4))
        y = rng_data.normal(size=300)
        for cap in (1, 2, 4, 7):
            tree = grow_tree(X, y, np.arange(300), m=4, max_depth=cap,
                             rng=np.random.default_rng(0))
            assert tree.depth() <= cap

    def test_improvements_nonnegative(self):
        rng_data = np.random.default_rng(10)
        X = rng_data.normal(size=(200, 3))
        y = rng_data.normal(size=200)
        tree = grow_tree(X, y, np.arange(200), m=2, max_depth=8,
                         rng=np.random.default_rng(2))
        assert (tree.improvement >= 0.0).all()
        assert np.isfinite(tree.value).all()

    def test_leaf_values_are_row_means(self):
        rng_data = np.random.default_rng(11)
        X = rng_data.normal(size=(150, 3))
        y = rng_data.normal(size=150)
        rows = np.random.default_rng(12).integers(0, 150, size=150)
        tree = grow_tree(X, y, rows, m=2, max_depth=4, rng=np.random.default_rng(3))
        # Route every training row to its leaf and compare means.
        leaves: dict[int, list[float]] = {}
        for r in rows:
            node = 0
            while tree.feature[node] != -1:
                if X[r, tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            leaves.setdefault(node, []).append(y[r])
        for node, values in leaves.items():
            assert tree.value[node] == pytest.approx(np.mean(values), rel=1e-9)

    def test_every_split_matches_brute_force(self, brute_best_split):
        # With m = p each internal node must hold the exhaustive best split
        # of its own training rows, and a leaf that could still split must
        # have none. The columns are two-valued, few-valued, many-valued
        # and continuous, so every scan route is covered.
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 300))
            X = np.column_stack([
                rng.integers(0, 2, n),
                rng.integers(0, 2, n),
                rng.integers(0, 5, n),
                rng.integers(0, 12, n),
                rng.integers(0, 40, n),
                rng.normal(size=n),
                np.round(rng.normal(size=n), 1),
            ]).astype(np.float64)
            y = X[:, 0] + 0.5 * X[:, 2] + np.sin(X[:, 5]) + rng.normal(scale=0.5, size=n)
            check_splits_against_oracle(X, y, rng, seed, brute_best_split)

    def test_block_splits_match_brute_force(self, brute_best_split):
        # Columns 0-3 dummy-encode a 5-level categorical (level 4 dropped,
        # all zero); column 5 takes {-3, 7} and is 7 only on level-4 rows,
        # so the six join one block. Column 4 is a dummy that overlaps them
        # and opens a block of its own. Nodes below a split on a member,
        # where that member is constant but others are not, must split as
        # the exhaustive search does.
        member_constant = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 300))
            level = rng.integers(0, 5, n)
            X = np.column_stack([
                *(level == k for k in range(4)),
                rng.integers(0, 2, n),
                np.where((level == 4) & (rng.random(n) < 0.5), 7.0, -3.0),
                rng.integers(0, 5, n),
                rng.integers(0, 12, n),
                rng.integers(0, 40, n),
                rng.normal(size=n),
                np.round(rng.normal(size=n), 1),
            ]).astype(np.float64)
            pre = _kernels.Presorted(X)
            assert [b[0].tolist() for b in pre.blocks] == [[0, 1, 2, 3, 5], [4]]
            y = (np.array([0.0, 2.0, -1.0, 3.0, 1.0])[level] + 0.3 * X[:, 4]
                 + np.sin(X[:, 9]) + rng.normal(scale=0.5, size=n))
            split_rows, _ = check_splits_against_oracle(X, y, rng, seed, brute_best_split)
            for rows in split_rows:
                varies = np.ptp(X[rows][:, [0, 1, 2, 3, 5]], axis=0) > 0
                member_constant += bool(varies.any() and not varies.all())
        assert member_constant > 0

    def test_drawn_splits_match_brute_force(self, brute_best_split, monkeypatch):
        # With m < p each node must hold the exhaustive best split over the
        # features it drew, as recorded level by level from _draw_subsets,
        # and a node that drew only features constant on its rows must stay
        # a leaf. Columns 0-3 are dummies (0-2 one-hot a 4-level
        # categorical), 4-6 integers and 7-8 continuous, so every route is
        # scanned at subsets of every size 1..p-1.
        drawn = []
        draw = _kernels._draw_subsets

        def recording(rngs, node_tree, p, m):
            drawn.append(draw(rngs, node_tree, p, m))
            return drawn[-1]

        monkeypatch.setattr(_kernels, "_draw_subsets", recording)
        stuck = 0
        for seed in range(16):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(40, 300))
            level = rng.integers(0, 4, n)
            X = np.column_stack([
                *(level == k for k in range(3)),
                rng.integers(0, 2, n),
                rng.integers(0, 5, n),
                rng.integers(0, 12, n),
                rng.integers(0, 40, n),
                rng.normal(size=n),
                np.round(rng.normal(size=n), 1),
            ]).astype(np.float64)
            y = (np.array([0.0, 2.0, -1.0, 3.0])[level] + 0.5 * X[:, 4]
                 + np.sin(X[:, 7]) + rng.normal(scale=0.5, size=n))
            drawn.clear()
            m = 1 + seed % (X.shape[1] - 1)
            stuck += check_splits_against_oracle(X, y, rng, seed, brute_best_split, m, drawn)[1]
        assert stuck > 0

    def test_rows_alike_in_every_feature_stay_one_leaf(self):
        # The sampled rows differ in label but not in any column, so the
        # root may split yet no feature separates its rows: every column of
        # the matrix varies, but not within the sample.
        X = np.array([[1.0, 5.0, 0.3], [1.0, 5.0, 0.3], [1.0, 5.0, 0.3], [2.0, 7.0, 0.9]])
        y = np.array([1.0, 2.0, 3.0, 10.0])
        tree = grow_tree(X, y, np.array([0, 1, 2, 1]), m=3, max_depth=None,
                         rng=np.random.default_rng(0))
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1
        assert tree.value[0] == 2.0
        assert tree.improvement.shape == (0,)

    def test_empty_sample_errors(self):
        with pytest.raises(ValueError, match="empty sample"):
            grow_tree(FOUR_X, FOUR_Y, np.array([], dtype=np.int64), m=1, max_depth=3,
                      rng=np.random.default_rng(0))

    def test_m_validation(self):
        with pytest.raises(ValueError):
            grow_tree(FOUR_X, FOUR_Y, np.arange(4), m=0, max_depth=3,
                      rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            grow_tree(FOUR_X, FOUR_Y, np.arange(4), m=2, max_depth=3,
                      rng=np.random.default_rng(0))


class TestDrawSubsets:
    # Three trees' generators; tree 1 has no node at this level.
    NODE_TREE = np.array([0, 0, 2, 2, 2])

    def draw(self, m, p=20):
        rngs = [np.random.default_rng(seed) for seed in (7, 8, 9)]
        return _kernels._draw_subsets(rngs, self.NODE_TREE, p, m)

    @pytest.mark.parametrize("m", [1, 19])
    def test_features_with_the_m_smallest_keys(self, m):
        keys = np.concatenate([np.random.default_rng(7).random((2, 20)),
                               np.random.default_rng(9).random((3, 20))])
        expected = np.zeros((5, 20), dtype=bool)
        np.put_along_axis(expected, np.argsort(keys, axis=1)[:, :m], True, axis=1)
        sel = self.draw(m)
        assert (sel.sum(axis=1) == m).all()
        assert np.array_equal(sel, expected)

    def test_all_features_at_m_equals_p(self):
        sel = self.draw(20)
        assert sel.shape == (5, 20)
        assert sel.all()


class TestFitForest:
    def test_defaults(self, small_matrix):
        forest = fit_forest(small_matrix, n_trees=5, m=3, max_depth=4, master_seed=0)
        assert forest.n_trees == 5
        assert len(forest.trees) == 5
        for b, oob in enumerate(forest.out_of_bag(small_matrix.n_rows)):
            boot = bootstrap_rows(0, b, small_matrix.n_rows)
            assert boot.shape[0] == small_matrix.n_rows
            assert np.intersect1d(boot, oob).size == 0
            assert np.union1d(boot, oob).size == small_matrix.n_rows

    def test_default_hyperparameters(self):
        # The paper's 50 trees, 15 features per split and depth 15: each of
        # fit_forest's defaults is RunConfig's.
        params = inspect.signature(fit_forest).parameters
        defaults = [params[name].default
                    for name in ("n_trees", "m", "max_depth", "master_seed", "workers")]
        config = RunConfig()
        assert defaults[:3] == [50, 15, 15]
        assert defaults == [config.trees, config.features_per_split, config.max_depth,
                            config.seed, config.workers]

    def test_m_guidance_covers_default(self):
        # For p=27 features the usual guidance 2-3x int(log2(p) + 1)
        # spans 10..15, which contains the default of 15.
        p = 27
        base = int(math.log2(p) + 1)
        assert 2 * base <= 15 <= 3 * base

    def test_identity_bootstrap_equals_single_cart(self, small_matrix, monkeypatch):
        monkeypatch.setattr(
            forest_mod, "_draw_bootstrap", lambda rng, n: np.arange(n, dtype=np.int64)
        )
        forest = fit_forest(small_matrix, n_trees=1, m=small_matrix.n_features,
                            max_depth=6, master_seed=7)
        rng = forest_mod._tree_rng(7, 0)
        _ = forest_mod._draw_bootstrap(rng, small_matrix.n_rows)
        cart = grow_tree(small_matrix.X, small_matrix.y,
                         np.arange(small_matrix.n_rows),
                         m=small_matrix.n_features, max_depth=6, rng=rng)
        assert np.array_equal(forest.predict(small_matrix.X), cart.predict(small_matrix.X))

    def test_trees_grown_together_equal_trees_grown_alone(self, small_matrix, block_matrix):
        # fit_forest grows its trees in one batch here; each must match the
        # tree grown on its own from the same bootstrap and generator.
        for matrix in (small_matrix, block_matrix):
            forest = fit_forest(matrix, n_trees=6, m=3, max_depth=6, master_seed=2)
            for b, tree in enumerate(forest.trees):
                rng = forest_mod._tree_rng(2, b)
                boot = forest_mod._draw_bootstrap(rng, matrix.n_rows)
                alone = grow_tree(matrix.X, matrix.y, boot, m=3, max_depth=6, rng=rng)
                for name in ("feature", "key", "left", "right", "improvement"):
                    assert getattr(tree, name).tobytes() == getattr(alone, name).tobytes()

    def test_prediction_is_mean_of_trees(self, small_matrix):
        forest = fit_forest(small_matrix, n_trees=7, m=2, max_depth=5, master_seed=3)
        stacked = np.stack([t.predict(small_matrix.X) for t in forest.trees])
        assert np.allclose(forest.predict(small_matrix.X), stacked.mean(axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_two_tree_mean(self):
        matrix = FeatureMatrix.from_arrays(np.zeros((1, 4)), np.zeros(1))
        pair = Forest(nodes=Nodes.join((leaf_tree(100.0), leaf_tree(200.0))), n_trees=2, m=1,
                      max_depth=1, master_seed=0, columns=matrix.columns,
                      train_sha256=matrix.sha256())
        assert pair.predict(np.zeros(4)) == 150.0

    def test_dimension_mismatch(self, small_matrix):
        forest = fit_forest(small_matrix, n_trees=2, m=2, max_depth=3, master_seed=0)
        with pytest.raises(ValueError, match="dimension"):
            forest.predict(np.zeros((3, small_matrix.n_features + 1)))

    def test_determinism_across_workers(self, small_matrix, block_matrix):
        for matrix in (small_matrix, block_matrix):
            forests = [
                fit_forest(matrix, n_trees=8, m=3, max_depth=6, master_seed=11, workers=w)
                for w in (1, 2, 4)
            ]
            reference = forests[0]
            for other in forests[1:]:
                for ta, tb in zip(reference.trees, other.trees):
                    assert np.array_equal(ta.feature, tb.feature)
                    assert np.array_equal(ta.threshold, tb.threshold)
                    assert np.array_equal(ta.value, tb.value)

    @pytest.mark.parametrize("matrix_name, digest", [
        ("small_matrix", "24310dd8f90d274c4c8586e9dd58029fc2336731b4f5083b9639c0db3496194c"),
        ("block_matrix", "c3950ce767f62ab89a620c813887194d6301f2184cab4e7b2bd09eda9556e7c7"),
    ])
    def test_key_is_threshold_at_splits_and_mean_at_leaves(self, matrix_name, digest, request):
        # The digests are of the node arrays the same fits gave when split
        # records also held the node's row count (format E2CFOR04): sizes,
        # feature, key (the threshold at split nodes and the mean label at
        # leaves), then improvement at split nodes, in node order.
        matrix = request.getfixturevalue(matrix_name)
        nodes = fit_forest(matrix, n_trees=6, m=3, max_depth=None, master_seed=2).nodes
        arrays = (nodes.sizes.astype("<i8"), nodes.feature.astype("<i8"), nodes.key,
                  nodes.improvement)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    @pytest.mark.parametrize("cpus, threads", [(1, []), (2, [2]), (None, [])])
    def test_workers_capped_at_cpu_count(self, small_matrix, monkeypatch, cpus, threads):
        # Never more threads than CPUs (one when the count is unknown), and
        # the same forest as with one worker.
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        reference = fit_forest(small_matrix, n_trees=4, m=3, max_depth=4, master_seed=3)
        monkeypatch.setattr(forest_mod.os, "cpu_count", lambda: cpus)
        # fit_forest imports the pool class from here when it starts threads.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(forest_mod, "_BATCH_ROWS", small_matrix.n_rows)
        forest = fit_forest(small_matrix, n_trees=4, m=3, max_depth=4, master_seed=3,
                            workers=4)
        assert started == threads
        for name in ("feature", "key", "improvement", "sizes"):
            assert getattr(forest.nodes, name).tobytes() == getattr(reference.nodes, name).tobytes()

    def test_oob_fraction_statistics(self):
        n = 100
        fractions = []
        for b in range(1000):
            rng = forest_mod._tree_rng(99, b)
            boot = forest_mod._draw_bootstrap(rng, n)
            fractions.append(1.0 - np.unique(boot).size / n)
        mean_frac = float(np.mean(fractions))
        assert 0.35 <= mean_frac <= 0.39

    def test_empty_training_set(self):
        empty = FeatureMatrix.from_arrays(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_forest(empty, n_trees=1, m=1, max_depth=2, master_seed=0)

    def test_monotone_transform_invariance(self, small_matrix, monkeypatch):
        # Thresholds sit at midpoints, which are not equivariant under a
        # monotone map for query values strictly between two training
        # values; the invariance is exact at the points each tree trained
        # on, so check tree predictions at their own bootstrap rows, then
        # forest predictions with every row in bag.
        cubed = small_matrix.X.copy()
        cubed[:, 1] = cubed[:, 1] ** 3
        transformed = FeatureMatrix.from_arrays(cubed, small_matrix.y.copy())
        f_base = fit_forest(small_matrix, n_trees=6, m=3, max_depth=6, master_seed=5)
        f_cubed = fit_forest(transformed, n_trees=6, m=3, max_depth=6, master_seed=5)
        for b, (ta, tb) in enumerate(zip(f_base.trees, f_cubed.trees)):
            boot = bootstrap_rows(5, b, small_matrix.n_rows)
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.value, tb.value)
            assert np.array_equal(
                ta.predict(small_matrix.X[boot]), tb.predict(transformed.X[boot])
            )
        monkeypatch.setattr(
            forest_mod, "_draw_bootstrap", lambda rng, n: np.arange(n, dtype=np.int64)
        )
        g_base = fit_forest(small_matrix, n_trees=6, m=3, max_depth=6, master_seed=5)
        g_cubed = fit_forest(transformed, n_trees=6, m=3, max_depth=6, master_seed=5)
        assert np.array_equal(
            g_base.predict(small_matrix.X), g_cubed.predict(transformed.X)
        )


@pytest.fixture
def block_matrix():
    """120 rows: two continuous columns, a 4-level categorical as three
    exclusive dummies (one block) and a dummy that overlaps them."""
    rng = np.random.default_rng(4321)
    level = rng.integers(0, 4, 120)
    X = np.column_stack([
        rng.normal(size=120), *(level == k for k in range(3)),
        rng.integers(0, 2, 120), rng.normal(size=120),
    ]).astype(np.float64)
    assert [b[0].tolist() for b in _kernels.Presorted(X).blocks] == [[1, 2, 3], [4]]
    y = (X[:, 0] + np.array([0.0, 1.5, -1.0, 0.5])[level] + 0.5 * X[:, 4]
         + rng.normal(scale=0.3, size=120))
    return FeatureMatrix.from_arrays(X, y)


class TestPresorted:
    def test_encoded_dummies_form_two_blocks(self, tmp_path):
        rows, _ = generate_snapshots(n_firms=100, n_dates=60, seed=1, missing_rate=0.1)
        records, _ = build_from_rows(rows, tmp_path / "snapshots.csv", ModelParams())
        complete = drop_incomplete(records)
        matrix = FeatureEncoder.fit(complete).transform(complete)
        names = matrix.column_names()
        blocks = [[names[f] for f in members]
                  for members, _, _ in _kernels.Presorted(matrix.X).blocks]
        assert blocks == [[c for c in names if c.startswith(prefix)]
                          for prefix in ("country_", "sector_")]
        assert all(len(b) > 1 for b in blocks)

    def test_blocks_hold_exclusive_columns_only(self):
        rng = np.random.default_rng(8)
        n = 200
        X = np.column_stack([
            *(rng.random(n) < q for q in (0.05, 0.1, 0.3, 0.05, 0.5, 0.02, 0.1)),
            np.full(n, 2.5),
            np.where(rng.random(n) < 0.1, 7.0, -3.0),
            rng.normal(size=n),
            rng.integers(0, 4, n),
        ]).astype(np.float64)
        constant = 7
        high = X == X.max(axis=0)
        pre = _kernels.Presorted(X)
        in_blocks = []
        for b, (members, codes, thresholds) in enumerate(pre.blocks):
            expected = np.zeros(n, dtype=np.int64)
            for j, f in enumerate(members.tolist()):
                # Never high where an earlier member is, and high somewhere
                # in every earlier block: it joined the first block it fits.
                assert not (high[:, f] & (expected > 0)).any()
                for earlier, _, _ in pre.blocks[:b]:
                    assert (high[:, f, None] & high[:, earlier[earlier < f]]).any()
                expected[high[:, f]] = j + 1
                assert thresholds[j] == (X[:, f].min() + X[:, f].max()) / 2.0
            assert np.array_equal(codes, expected)
            in_blocks += members.tolist()
        two_valued = [f for f in range(X.shape[1]) if np.unique(X[:, f]).size == 2]
        assert sorted(in_blocks) == two_valued
        assert len(pre.blocks) > 1 and any(len(m) > 1 for m, _, _ in pre.blocks)
        routed = in_blocks + pre.few_feats.tolist() + pre.sorted_feats.tolist()
        assert sorted(routed) == [f for f in range(X.shape[1]) if f != constant]

    def test_batch_orders_sort_each_tree_by_value_row_and_draw(self):
        # Three trees in one batch over presorted columns with tied values,
        # each bootstrap drawing some rows more than once.
        rng = np.random.default_rng(5)
        n = 60
        X = np.column_stack([
            np.round(rng.normal(size=n), 1), rng.integers(0, 20, n),
            rng.normal(size=n), rng.integers(0, 3, n),
        ]).astype(np.float64)
        pre = _kernels.Presorted(X)
        assert pre.sorted_feats.tolist() == [0, 1, 2]
        assert pre.few_feats.tolist() == [3]
        assert np.unique(X[:, 0]).size < n and np.unique(X[:, 1]).size < n
        samples = [rng.integers(0, n, size) for size in (n, 25, 90)]
        assert all(np.unique(rows).size < rows.size for rows in samples)
        batch = _kernels._Batch(pre, rng.normal(size=n), samples)
        rows = np.concatenate(samples).tolist()
        tree = np.repeat(np.arange(3), [s.size for s in samples]).tolist()
        assert batch.orders.shape == (3, len(rows))
        for j, f in enumerate(pre.sorted_feats.tolist()):
            expected = sorted(range(len(rows)),
                              key=lambda i: (tree[i], X[rows[i], f], rows[i], i))
            assert batch.orders[j].tolist() == expected


class TestSerialization:
    def test_round_trip_bit_exact(self, small_matrix, tmp_path):
        forest = fit_forest(small_matrix, n_trees=4, m=2, max_depth=5, master_seed=1)
        path = tmp_path / "model.e2cf"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded.n_trees == forest.n_trees
        assert loaded.m == forest.m
        assert loaded.max_depth == forest.max_depth
        assert loaded.master_seed == forest.master_seed
        assert loaded.columns == forest.columns
        assert loaded.train_sha256 == forest.train_sha256
        assert (loaded.calibration, loaded.holdout) == (forest.calibration, forest.holdout)
        for ta, tb in zip(forest.trees, loaded.trees):
            # A fitted forest holds feature as int64, a loaded one as the
            # file's <i2.
            for name in ("feature", "left", "right"):
                assert np.array_equal(getattr(ta, name), getattr(tb, name))
            for name in ("key", "improvement"):
                assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes()
        # The descents read the loaded <i2 feature view as they read int64.
        assert loaded.nodes.feature.dtype == np.dtype("<i2")
        assert not loaded.nodes.feature.flags.writeable
        assert loaded.predict(small_matrix.X).tobytes() == forest.predict(small_matrix.X).tobytes()
        assert (permutation_importance(loaded, small_matrix, seed=3).tobytes()
                == permutation_importance(forest, small_matrix, seed=3).tobytes())
        save_forest(loaded, tmp_path / "again.e2cf")
        assert (tmp_path / "again.e2cf").read_bytes() == path.read_bytes()

    def test_trees_share_the_store(self, small_matrix, tmp_path):
        # One copy of the nodes: a tree's arrays are views of its forest's.
        forest = fit_forest(small_matrix, n_trees=4, m=2, max_depth=5, master_seed=1)
        save_forest(forest, tmp_path / "model.e2cf")
        for f in (forest, load_forest(tmp_path / "model.e2cf")):
            assert sum(tree.n_nodes for tree in f.trees) == f.nodes.n_nodes
            for tree in f.trees:
                for name in NODE_FIELDS:
                    assert np.shares_memory(getattr(tree, name), getattr(f.nodes, name))

    def test_loaded_fields_are_views_of_the_file(self, small_matrix, tmp_path):
        forest = fit_forest(small_matrix, n_trees=3, m=2, max_depth=4, master_seed=6)
        save_forest(forest, tmp_path / "model.e2cf")
        nodes = load_forest(tmp_path / "model.e2cf").nodes
        for name, dtype in (("feature", "<i2"), ("key", "<f8"), ("improvement", "<f8"),
                            ("sizes", "<i8")):
            field = getattr(nodes, name)
            assert field.dtype == np.dtype(dtype) and not field.flags.owndata
            assert field.flags.aligned

    @pytest.mark.parametrize("p, error", [(2**15 - 1, None), (2**15, PipelineError)])
    def test_columns_bounded_by_the_feature_type(self, p, error, tmp_path):
        # One leaf on one row: an <i2 feature numbers at most 32,767 columns.
        matrix = FeatureMatrix.from_arrays(np.zeros((1, p)), np.zeros(1))
        forest = Forest(nodes=leaf_tree(1.0), n_trees=1, m=1, max_depth=None, master_seed=0,
                        columns=matrix.columns, train_sha256=matrix.sha256())
        path = tmp_path / "wide.e2cf"
        if error is None:
            save_forest(forest, path)
            assert len(load_forest(path).columns) == p
        else:
            with pytest.raises(error, match="at most 32767 columns, got 32768"):
                save_forest(forest, path)
            assert not path.exists()

    def test_calibration_and_holdout_saved_as_floats(self, small_matrix, tmp_path):
        # A library forest may hold integers there; the file holds floats,
        # and the forest read back equals the one saved.
        forest = dataclasses.replace(
            fit_forest(small_matrix, n_trees=2, m=2, max_depth=3, master_seed=1),
            calibration=ModelParams(maturity=5), holdout=(0.3, 0))
        path = tmp_path / "model.e2cf"
        save_forest(forest, path)
        raw = path.read_bytes()
        header = json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])
        assert [type(v) for v in header["calibration"].values()] == [float] * 4
        assert header["holdout"] == [0.3, 0.0] and type(header["holdout"][1]) is float
        loaded = load_forest(path)
        assert loaded.calibration == ModelParams(maturity=5.0)
        assert type(loaded.calibration.maturity) is float
        assert loaded.holdout == (0.3, 0.0)
        save_forest(loaded, tmp_path / "again.e2cf")
        assert (tmp_path / "again.e2cf").read_bytes() == raw

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.e2cf"
        path.write_bytes(b"NOTAFOREST")
        with pytest.raises(InputFormatError, match="magic"):
            load_forest(path)

    def test_layout(self, small_matrix, tmp_path):
        # Magic, header padded to a multiple of 8 bytes, node counts, then
        # key over every node of every tree, improvement over the split
        # nodes only, feature over every node, and nothing else: no
        # children, row counts, bootstrap or out-of-bag rows.
        forest = fit_forest(small_matrix, n_trees=3, m=2, max_depth=4, master_seed=6)
        path = tmp_path / "model.e2cf"
        save_forest(forest, path)
        raw = path.read_bytes()
        size = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + size])
        assert raw[:8] == b"E2CFOR06"
        assert (12 + size) % 8 == 0
        assert len(raw[12 : 12 + size]) - len(raw[12 : 12 + size].rstrip(b" ")) < 8
        assert sorted(header) == ["calibration", "columns", "holdout", "m", "master_seed",
                                  "max_depth", "n_trees", "train_sha256"]
        assert header["train_sha256"] == small_matrix.sha256()
        # fit_forest's defaults are RunConfig's.
        assert header["calibration"] == {"debt_recovery": 0.5, "debt_recovery_vol": 0.3,
                                         "maturity": 5.0, "recovery": 0.3}
        assert header["holdout"] == [0.2, 0.2]
        payload = raw[12 + size :]
        counts = [tree.n_nodes for tree in forest.trees]
        assert np.frombuffer(payload, "<i8", count=3).tolist() == counts
        assert payload[24:] == b"".join(
            np.concatenate([getattr(t, name) for t in forest.trees]).astype(dtype).tobytes()
            for name, dtype in (("key", "<f8"), ("improvement", "<f8"), ("feature", "<i2"))
        )
        splits = [int((t.feature != -1).sum()) for t in forest.trees]
        assert [t.improvement.size for t in forest.trees] == splits
        assert counts == [2 * s + 1 for s in splits]
        assert len(payload) == 8 * 3 + 10 * sum(counts) + 8 * sum(splits)


def forest_file(tmp_path):
    """A small fitted forest and the path it was saved to."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    matrix = FeatureMatrix.from_arrays(X, X[:, 0] + 0.1 * rng.normal(size=40))
    forest = fit_forest(matrix, n_trees=3, m=2, max_depth=3, master_seed=8)
    path = tmp_path / "model.e2cf"
    save_forest(forest, path)
    return forest, path


NODE_FIELDS = ("feature", "key", "improvement")


def with_tree0(forest, **arrays):
    t0 = forest.trees[0]
    tree = forest_mod.RegressionTree(**{n: arrays.get(n, getattr(t0, n)) for n in NODE_FIELDS})
    return dataclasses.replace(forest, nodes=Nodes.join((tree,) + forest.trees[1:]))


def corrupt_file(forest, path, case):
    """Rewrite path as the named malformed forest file."""
    t0 = forest.trees[0]
    split = int(np.flatnonzero(t0.feature >= 0)[0])
    leaf = int(np.flatnonzero(t0.feature < 0)[0])

    def node_set(name, at, value):
        arr = getattr(t0, name).copy()
        arr[at] = value
        return with_tree0(forest, **{name: arr})

    raw = path.read_bytes()
    if case in ("format_1", "format_2", "format_3", "format_4", "format_5"):
        path.write_bytes(b"E2CFOR0" + case[-1].encode() + raw[8:])
    elif case == "truncated":
        path.write_bytes(raw[:-1])
    elif case == "cut_after_header":
        path.write_bytes(raw[: 12 + int.from_bytes(raw[8:12], "little")])
    elif case == "trailing_byte":
        path.write_bytes(raw + b"\0")
    elif case == "missing_key":
        edit_header(path, lambda h: {k: v for k, v in h.items() if k != "master_seed"})
    elif case == "float_key":
        edit_header(path, lambda h: {**h, "m": 2.0})
    elif case == "bool_key":
        edit_header(path, lambda h: {**h, "n_trees": True})
    elif case == "bad_columns":
        edit_header(path, lambda h: {**h, "columns": [["x0", 1]]})
    elif case in ("columns_null", "train_sha256_null"):
        edit_header(path, lambda h: {**h, case.removesuffix("_null"): None})
    elif case == "not_an_object":
        edit_header(path, lambda h: list(h))
    elif case in SETTING_EDITS:
        edit_header(path, SETTING_EDITS[case][0])
    elif case == "huge_tree_count":
        # Fails before reading node counts, which would take 8e15 bytes.
        edit_header(path, lambda h: {**h, "n_trees": 10**15})
    elif case == "empty_tree":
        empty = {name: getattr(t0, name)[:0] for name in NODE_FIELDS}
        save_forest(with_tree0(forest, **empty), path)
    elif case == "feature_too_large":
        save_forest(node_set("feature", split, 3), path)
    elif case == "feature_below_leaf":
        save_forest(node_set("feature", split, -2), path)
    elif case == "leaf_made_split":
        save_forest(node_set("feature", leaf, 0), path)
    elif case == "split_made_leaf":
        save_forest(node_set("feature", split, -1), path)
    elif case == "split_after_children":
        # The node count still fits the splits, but the last split node
        # moves to the tree's last node, after where its children would be.
        last_split = int(np.flatnonzero(t0.feature >= 0)[-1])
        feature = t0.feature.copy()
        feature[[last_split, -1]] = feature[[-1, last_split]]
        save_forest(with_tree0(forest, feature=feature), path)
    else:
        raise AssertionError(case)


def _calibration_with(**values):
    return lambda h: {**h, "calibration": {**h["calibration"], **values}}


# Malformed calibration and holdout header values, and what load_forest says.
_SHAPE = "header key '{}' missing or malformed"
_RANGE = "header setting out of range: "
SETTING_EDITS = {
    "calibration_missing": (lambda h: {k: v for k, v in h.items() if k != "calibration"},
                            _SHAPE.format("calibration")),
    "calibration_not_an_object": (
        lambda h: {**h, "calibration": list(h["calibration"].values())},
        _SHAPE.format("calibration")),
    "calibration_field_missing": (lambda h: {**h, "calibration": {
        k: v for k, v in h["calibration"].items() if k != "maturity"}},
        _SHAPE.format("calibration")),
    "calibration_integer": (_calibration_with(maturity=5), _SHAPE.format("calibration")),
    "calibration_string": (_calibration_with(recovery="0.3"), _SHAPE.format("calibration")),
    "calibration_nan": (_calibration_with(recovery=math.nan),
                        _RANGE + "recovery must be finite, got nan"),
    "calibration_recovery_2": (_calibration_with(recovery=2.0),
                               _RANGE + r"recovery must be in \[0, 1\], got 2.0"),
    "holdout_missing": (lambda h: {k: v for k, v in h.items() if k != "holdout"},
                        _SHAPE.format("holdout")),
    "holdout_length_1": (lambda h: {**h, "holdout": [0.2]}, _SHAPE.format("holdout")),
    "holdout_string": (lambda h: {**h, "holdout": "0.2,0.2"}, _SHAPE.format("holdout")),
    "holdout_one": (lambda h: {**h, "holdout": [1.0, 0.2]},
                    _RANGE + r"firm_frac must be in \[0, 1\), got 1.0"),
    "holdout_negative": (lambda h: {**h, "holdout": [0.2, -0.1]},
                         _RANGE + r"date_frac must be in \[0, 1\), got -0.1"),
}

CORRUPT_CASES = [
    "format_1", "format_2", "format_3", "format_4", "format_5", "truncated",
    "cut_after_header", "trailing_byte", "missing_key", "float_key", "bool_key", "bad_columns",
    "columns_null", "train_sha256_null", "not_an_object", "huge_tree_count", "empty_tree",
    "feature_too_large", "feature_below_leaf", "leaf_made_split",
    "split_made_leaf", "split_after_children", *SETTING_EDITS,
]


class TestCorruptFile:
    @pytest.mark.parametrize("case", CORRUPT_CASES)
    def test_input_format_error_naming_path(self, case, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, case)
        with pytest.raises(InputFormatError, match=str(path)):
            load_forest(path)

    def test_format_1_says_retrain(self, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, "format_1")
        with pytest.raises(InputFormatError, match="retrain"):
            load_forest(path)

    def test_format_2_says_retrain(self, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, "format_2")
        with pytest.raises(InputFormatError, match="E2CFOR02 is an earlier forest format; retrain"):
            load_forest(path)

    def test_format_3_says_retrain(self, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, "format_3")
        with pytest.raises(InputFormatError, match="E2CFOR03 is an earlier forest format; retrain"):
            load_forest(path)

    def test_format_4_says_retrain(self, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, "format_4")
        with pytest.raises(InputFormatError, match="E2CFOR04 is an earlier forest format; retrain"):
            load_forest(path)

    def test_format_5_says_retrain(self, tmp_path):
        # E2CFOR05 held neither the calibration nor the holdout.
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, "format_5")
        with pytest.raises(InputFormatError, match="E2CFOR05 is an earlier forest format; retrain"):
            load_forest(path)

    @pytest.mark.parametrize("case", SETTING_EDITS)
    def test_malformed_setting_named(self, case, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, case)
        with pytest.raises(InputFormatError, match=SETTING_EDITS[case][1]):
            load_forest(path)

    @pytest.mark.parametrize("case, message", [
        ("cut_after_header", "payload too short for 3 node counts"),
        ("huge_tree_count", "payload too short for 1000000000000000 node counts"),
        ("leaf_made_split", "node count is not twice its splits plus one"),
        ("split_made_leaf", "node count is not twice its splits plus one"),
        ("split_after_children", "split node comes after its children"),
    ])
    def test_tree_shape_named(self, case, message, tmp_path):
        forest, path = forest_file(tmp_path)
        corrupt_file(forest, path, case)
        with pytest.raises(InputFormatError, match=message):
            load_forest(path)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """The bytes of a saved 3-column forest, and a path to write variants to."""
    _, path = forest_file(tmp_path_factory.mktemp("fuzz"))
    return path.read_bytes(), path


def loads_or_rejects(path, raw):
    """Write raw to path: load_forest must raise InputFormatError or return
    a forest that predicts one value per row of a 3-column matrix."""
    path.write_bytes(raw)
    try:
        forest = load_forest(path)
    except InputFormatError:
        return
    assert forest.predict(np.zeros((5, 3))).shape == (5,)


class TestCorruptionProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_anywhere(self, fuzz_file, data):
        raw, path = fuzz_file
        loads_or_rejects(path, raw[: data.draw(st.integers(0, len(raw) - 1))])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_overwritten(self, fuzz_file, data):
        raw, path = fuzz_file
        at = data.draw(st.integers(0, len(raw) - 1))
        byte = data.draw(st.integers(0, 255))
        loads_or_rejects(path, raw[:at] + bytes([byte]) + raw[at + 1 :])


def leaf_tree(value):
    return forest_mod.RegressionTree(
        feature=np.array([-1]), key=np.array([value]), improvement=np.array([]))


def oracle_cases():
    """(name, forest, X) covering deep, stump, single-leaf and one-column
    forests; X holds rows outside the training set as well."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(160, 4))
    X[:, 2] = rng.integers(0, 3, size=160)
    y = X[:, 0] + np.sin(3 * X[:, 1]) + 0.2 * rng.normal(size=160)
    train = FeatureMatrix.from_arrays(X[:100], y[:100])
    one = FeatureMatrix.from_arrays(X[:100, :1], y[:100])
    flat = FeatureMatrix.from_arrays(X[:100], np.full(100, 2.5))
    stumps = fit_forest(train, n_trees=9, m=2, max_depth=1, master_seed=2)
    leaves = fit_forest(flat, n_trees=3, m=2, max_depth=4, master_seed=3)
    return [
        ("unbounded", fit_forest(train, n_trees=12, m=3, max_depth=None, master_seed=1), X),
        ("stumps", stumps, X),
        ("single_leaf", leaves, X),
        ("one_column", fit_forest(one, n_trees=8, m=1, max_depth=None, master_seed=4),
         X[:, :1]),
        ("mixed", Forest(
            nodes=Nodes.join(stumps.trees[:3] + leaves.trees[:1] + (leaf_tree(-0.0),)),
            n_trees=5, m=2, max_depth=None, master_seed=0, columns=train.columns, train_sha256=train.sha256()), X),
    ]


class TestPredictMatchesOracle:
    @pytest.mark.parametrize("name, forest, X", oracle_cases())
    def test_forest_and_trees_bitwise(self, name, forest, X, forest_oracle, tree_oracle):
        assert forest.predict(X).tobytes() == forest_oracle(forest, X).tobytes()
        for tree in forest.trees:
            assert tree.predict(X).tobytes() == tree_oracle(tree, X).tobytes()

    @pytest.mark.parametrize("name, forest, X", oracle_cases())
    def test_one_dimensional_input(self, name, forest, X, forest_oracle, tree_oracle):
        for row in X[:5]:
            got = forest.predict(row)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(forest_oracle(forest, row)).tobytes()
            tree = forest.trees[0]
            assert np.float64(tree.predict(row)).tobytes() == np.float64(
                tree_oracle(tree, row)).tobytes()

    def test_row_blocks(self, monkeypatch, forest_oracle):
        # Blocks of a few rows, the last one short, give the same answer.
        name, forest, X = oracle_cases()[0]
        monkeypatch.setattr(forest_mod, "_PREDICT_PAIRS", 7 * forest.n_trees)
        assert forest.predict(X).tobytes() == forest_oracle(forest, X).tobytes()

    def test_depths(self):
        def reference(tree, node=0):
            if tree.feature[node] == -1:
                return 0
            return 1 + max(reference(tree, tree.left[node]), reference(tree, tree.right[node]))

        for _, forest, _ in oracle_cases():
            expected = [reference(tree) for tree in forest.trees]
            assert forest.nodes.depths.tolist() == expected
            assert [tree.depth() for tree in forest.trees] == expected

    def test_too_few_columns_rejected(self):
        _, forest, X = oracle_cases()[0]
        tree = forest.trees[0]
        with pytest.raises(ValueError, match="dimension"):
            tree.predict(X[:, :1])


def bootstrap_rows(master_seed, tree_index, n):
    """The bootstrap rows fit_forest draws for a tree."""
    rng = forest_mod._tree_rng(master_seed, tree_index)
    return forest_mod._draw_bootstrap(rng, n)


def check_splits_against_oracle(X, y, rng, seed, brute_best_split, m=None, drawn=None):
    """Grow a tree with m features per node (all p by default) on a
    bootstrap of X drawn from rng and check every node against the
    brute-force split search: an internal node holds the best split of its
    own rows, and a leaf that could still split has none, and its
    improvement is the SSE of its rows less that of the best split's
    children. With m < p, drawn is the list a recording _draw_subsets
    appends each level's subsets to, and each node is searched over the
    features it drew. Returns the rows of every internal node and the
    number of nodes that could split but drew only features constant on
    their rows."""
    n, p = X.shape
    m = p if m is None else m
    boot = rng.integers(0, n, size=n)
    cap = None if seed % 2 else 5
    tree = grow_tree(X, y, boot, m=m, max_depth=cap, rng=np.random.default_rng(seed))
    node_rows = {0: boot}
    depth = {0: 0}
    split_rows = []
    stuck = 0
    # The rows of each level's subsets, one per node that could split, in
    # breadth-first order.
    subsets = iter(np.concatenate(drawn) if drawn else np.ones((tree.n_nodes, p), bool))
    for i in range(tree.n_nodes):
        rows = node_rows[i]
        open_node = cap is None or depth[i] < cap
        if not (open_node and np.ptp(y[rows]) > 0.0):
            assert tree.feature[i] == -1
            continue
        feats = np.flatnonzero(next(subsets))
        assert feats.shape[0] == m
        expected = brute_best_split(X, y, rows, feats)
        if np.ptp(X[np.ix_(rows, feats)], axis=0).max() == 0.0:
            stuck += 1
            assert tree.feature[i] == -1
        if tree.feature[i] == -1:
            assert expected is None
            continue
        assert (tree.feature[i], tree.threshold[i]) == expected[:2]
        node_sse = float(np.sum((y[rows] - y[rows].mean()) ** 2))
        assert tree.improvement[len(split_rows)] == pytest.approx(node_sse - expected[2],
                                                                  rel=1e-9)
        split_rows.append(rows)
        go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
        node_rows[tree.left[i]] = rows[go_left]
        node_rows[tree.right[i]] = rows[~go_left]
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    if drawn:
        assert next(subsets, None) is None
    return split_rows, stuck
