import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import e2credit.forest as forest_mod
from e2credit import _kernels
from e2credit.dataset import FeatureEncoder, FeatureMatrix, drop_incomplete
from e2credit.structural import ModelParams
from e2credit.synth import generate_snapshots
from e2credit.errors import InputFormatError

from conftest import build_from_rows, edit_header
from e2credit.forest import (
    Forest,
    Nodes,
    best_split,
    fit_forest,
    grow_tree,
    load_forest,
    predict,
    save_forest,
)

FOUR_X = np.array([[1.0], [2.0], [3.0], [4.0]])
FOUR_Y = np.array([1.0, 1.0, 5.0, 5.0])


class TestBestSplit:
    def test_four_point_example(self):
        decision = best_split(FOUR_X, FOUR_Y, np.arange(4), np.array([0]))
        assert decision.feature == 0
        assert decision.threshold == 2.5
        assert decision.sse_after == 0.0
        assert decision.left_mean == 1.0
        assert decision.right_mean == 5.0

    def test_constant_target_tie_break(self):
        decision = best_split(FOUR_X, np.ones(4), np.arange(4), np.array([0]))
        assert decision.threshold == 1.5

    def test_informative_feature_beats_noise(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.repeat([0.0, 1.0], 10), rng.normal(size=20)])
        y = np.repeat([0.0, 10.0], 10)
        decision = best_split(X, y, np.arange(20), np.array([0, 1]))
        assert decision.feature == 0

    def test_no_valid_split(self):
        X = np.ones((5, 2))
        y = np.arange(5.0)
        assert best_split(X, y, np.arange(5), np.array([0, 1])) is None

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            best_split(FOUR_X, FOUR_Y, np.array([], dtype=np.int64), np.array([0]))
        with pytest.raises(ValueError):
            best_split(FOUR_X, FOUR_Y, np.arange(4), np.array([], dtype=np.int64))

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
            got = best_split(X, y, rows, feats)
            if expected is None:
                assert got is None
                continue
            assert got.feature == expected[0]
            assert got.threshold == expected[1]
            assert got.sse_after == pytest.approx(expected[2], rel=1e-9, abs=1e-9)


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
            for rows in check_splits_against_oracle(X, y, rng, seed, brute_best_split):
                varies = np.ptp(X[rows][:, [0, 1, 2, 3, 5]], axis=0) > 0
                member_constant += bool(varies.any() and not varies.all())
        assert member_constant > 0

    def test_m_validation(self):
        with pytest.raises(ValueError):
            grow_tree(FOUR_X, FOUR_Y, np.arange(4), m=0, max_depth=3,
                      rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            grow_tree(FOUR_X, FOUR_Y, np.arange(4), m=2, max_depth=3,
                      rng=np.random.default_rng(0))


class TestFitForest:
    def test_defaults(self, small_matrix):
        forest = fit_forest(small_matrix, n_trees=5, m=3, max_depth=4, master_seed=0)
        assert forest.n_trees == 5
        assert len(forest.trees) == 5
        assert forest.n_train_rows == small_matrix.n_rows
        for b, oob in enumerate(forest.oob_indices):
            boot = bootstrap_rows(0, b, small_matrix.n_rows)
            assert boot.shape[0] == small_matrix.n_rows
            assert np.intersect1d(boot, oob).size == 0
            assert np.union1d(boot, oob).size == small_matrix.n_rows

    def test_default_hyperparameters(self):
        assert forest_mod.DEFAULT_N_TREES == 50
        assert forest_mod.DEFAULT_FEATURES_PER_SPLIT == 15
        assert forest_mod.DEFAULT_MAX_DEPTH == 15

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
                for name in ("feature", "threshold", "left", "right", "value",
                             "n_samples", "improvement"):
                    assert getattr(tree, name).tobytes() == getattr(alone, name).tobytes()

    def test_prediction_is_mean_of_trees(self, small_matrix):
        forest = fit_forest(small_matrix, n_trees=7, m=2, max_depth=5, master_seed=3)
        stacked = np.stack([t.predict(small_matrix.X) for t in forest.trees])
        assert np.allclose(forest.predict(small_matrix.X), stacked.mean(axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_two_tree_mean(self):
        pair = Forest(nodes=Nodes.join((leaf_tree(100.0), leaf_tree(200.0))),
                      oob_indices=(np.array([], dtype=np.int64),) * 2, n_trees=2,
                      m=1, max_depth=1, master_seed=0, n_train_rows=1)
        assert predict(pair, np.zeros(4)) == 150.0

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
                for oa, ob in zip(reference.oob_indices, other.oob_indices):
                    assert np.array_equal(oa, ob)

    @pytest.mark.parametrize("cpus, threads", [(1, []), (2, [2]), (None, [])])
    def test_workers_capped_at_cpu_count(self, small_matrix, monkeypatch, cpus, threads):
        # Never more threads than CPUs (one when the count is unknown), and
        # the same forest as with one worker.
        started = []

        class Recording(forest_mod.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        reference = fit_forest(small_matrix, n_trees=4, m=3, max_depth=4, master_seed=3)
        monkeypatch.setattr(forest_mod.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(forest_mod, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(forest_mod, "_BATCH_ROWS", small_matrix.n_rows)
        forest = fit_forest(small_matrix, n_trees=4, m=3, max_depth=4, master_seed=3,
                            workers=4)
        assert started == threads
        for name in ("feature", "threshold", "value", "n_samples", "improvement", "sizes"):
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
        routed = in_blocks + [f for _, cols, _ in pre.groups for f in cols.tolist()]
        routed += pre.sorted_feats.tolist()
        assert sorted(routed) == [f for f in range(X.shape[1]) if f != constant]


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
        for ta, tb in zip(forest.trees, loaded.trees):
            for name in ("feature", "threshold", "left", "right", "value",
                         "n_samples", "improvement"):
                assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes()
        for a, b in zip(forest.oob_indices, loaded.oob_indices):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        save_forest(loaded, tmp_path / "again.e2cf")
        assert (tmp_path / "again.e2cf").read_bytes() == path.read_bytes()

    def test_trees_share_the_store(self, small_matrix, tmp_path):
        # One copy of the nodes: a tree's arrays are views of its forest's.
        forest = fit_forest(small_matrix, n_trees=4, m=2, max_depth=5, master_seed=1)
        save_forest(forest, tmp_path / "model.e2cf")
        for f in (forest, load_forest(tmp_path / "model.e2cf")):
            assert sum(tree.n_nodes for tree in f.trees) == f.nodes.n_nodes
            for tree in f.trees:
                for name in ("feature", "threshold", "value", "n_samples", "improvement"):
                    assert np.shares_memory(getattr(tree, name), getattr(f.nodes, name))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.e2cf"
        path.write_bytes(b"NOTAFOREST")
        with pytest.raises(InputFormatError, match="magic"):
            load_forest(path)

    def test_layout(self, small_matrix, tmp_path):
        # Magic, header, node counts, then each field over all trees, and
        # nothing else: no children, bootstrap or out-of-bag rows.
        forest = fit_forest(small_matrix, n_trees=3, m=2, max_depth=4, master_seed=6)
        path = tmp_path / "model.e2cf"
        save_forest(forest, path)
        raw = path.read_bytes()
        size = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + size])
        assert raw[:8] == b"E2CFOR03"
        assert sorted(header) == ["columns", "m", "master_seed", "max_depth",
                                  "n_train_rows", "n_trees", "train_sha256"]
        assert header["train_sha256"] == small_matrix.sha256()
        payload = raw[12 + size :]
        counts = [tree.n_nodes for tree in forest.trees]
        assert np.frombuffer(payload, "<i8", count=3).tolist() == counts
        assert payload[24:] == b"".join(
            np.concatenate([getattr(t, name) for t in forest.trees]).astype(dtype).tobytes()
            for name, dtype in (("feature", "<i4"), ("threshold", "<f8"), ("value", "<f8"),
                                ("n_samples", "<i4"), ("improvement", "<f8"))
        )


def forest_file(tmp_path):
    """A small fitted forest and the path it was saved to."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    matrix = FeatureMatrix.from_arrays(X, X[:, 0] + 0.1 * rng.normal(size=40))
    forest = fit_forest(matrix, n_trees=3, m=2, max_depth=3, master_seed=8)
    path = tmp_path / "model.e2cf"
    save_forest(forest, path)
    return forest, path


NODE_FIELDS = ("feature", "threshold", "value", "n_samples", "improvement")


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
    if case in ("format_1", "format_2"):
        path.write_bytes(b"E2CFOR0" + case[-1].encode() + raw[8:])
    elif case == "truncated":
        path.write_bytes(raw[:-1])
    elif case == "trailing_byte":
        path.write_bytes(raw + b"\0")
    elif case == "missing_key":
        edit_header(path, lambda h: {k: v for k, v in h.items() if k != "n_train_rows"})
    elif case == "float_key":
        edit_header(path, lambda h: {**h, "m": 2.0})
    elif case == "bool_key":
        edit_header(path, lambda h: {**h, "n_trees": True})
    elif case == "bad_columns":
        edit_header(path, lambda h: {**h, "columns": [["x0", 1]]})
    elif case == "not_an_object":
        edit_header(path, lambda h: list(h))
    elif case == "rows_1e15":
        # Fails before the bootstrap redraw, which would allocate 8e15 bytes.
        edit_header(path, lambda h: {**h, "n_train_rows": 10**15})
    elif case == "rows_plus_one":
        edit_header(path, lambda h: {**h, "n_train_rows": h["n_train_rows"] + 1})
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


CORRUPT_CASES = [
    "format_1", "format_2", "truncated", "trailing_byte", "missing_key",
    "float_key", "bool_key", "bad_columns", "not_an_object", "rows_1e15",
    "rows_plus_one", "empty_tree",
    "feature_too_large", "feature_below_leaf", "leaf_made_split",
    "split_made_leaf", "split_after_children",
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

    @pytest.mark.parametrize("case, message", [
        ("rows_1e15", "root does not hold the n_train_rows=1000000000000000 bootstrap"),
        ("rows_plus_one", "root does not hold the n_train_rows="),
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
        feature=np.array([-1]), threshold=np.array([0.0]), value=np.array([value]),
        n_samples=np.array([1]), improvement=np.array([0.0]))


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
            oob_indices=(np.arange(1),) * 5,
            n_trees=5, m=2, max_depth=None, master_seed=0, n_train_rows=100), X),
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


def check_splits_against_oracle(X, y, rng, seed, brute_best_split):
    """Grow a tree with m = p on a bootstrap of X drawn from rng and check
    every node against the brute-force split search: an internal node holds
    the best split of its own rows, and a leaf that could still split has
    none. Returns the rows of every internal node."""
    n = X.shape[0]
    boot = rng.integers(0, n, size=n)
    cap = None if seed % 2 else 5
    tree = grow_tree(X, y, boot, m=X.shape[1], max_depth=cap,
                     rng=np.random.default_rng(seed))
    feats = np.arange(X.shape[1])
    node_rows = {0: boot}
    depth = {0: 0}
    split_rows = []
    for i in range(tree.n_nodes):
        rows = node_rows[i]
        assert rows.size == tree.n_samples[i]
        expected = brute_best_split(X, y, rows, feats)
        if tree.feature[i] == -1:
            open_node = cap is None or depth[i] < cap
            if open_node and np.ptp(y[rows]) > 0.0:
                assert expected is None
            continue
        assert (tree.feature[i], tree.threshold[i]) == expected[:2]
        split_rows.append(rows)
        go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
        node_rows[tree.left[i]] = rows[go_left]
        node_rows[tree.right[i]] = rows[~go_left]
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return split_rows
