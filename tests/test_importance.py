import dataclasses
import functools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import e2credit.importance as importance_mod
from conftest import build_from_rows
from e2credit.dataset import FeatureEncoder, FeatureMatrix, drop_incomplete
from e2credit.errors import CompatibilityError, PipelineError
from e2credit.forest import Forest, Nodes, RegressionTree, fit_forest
from e2credit.importance import (
    importance_report,
    mdi_importance,
    permutation_importance,
)
from e2credit.structural import ModelParams
from e2credit.synth import generate_snapshots


def single_factor_matrix(n=300, p=5, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = 3.0 * X[:, 0] + noise * rng.normal(size=n)
    return FeatureMatrix.from_arrays(X, y)


def constant_column_matrix(n=200, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    X[:, 2] = 7.0  # never splittable
    y = 2.0 * X[:, 0] + 0.1 * rng.normal(size=n)
    return FeatureMatrix.from_arrays(X, y)


class TestMDI:
    def test_single_factor_dominates(self):
        matrix = single_factor_matrix()
        forest = fit_forest(matrix, n_trees=20, m=3, max_depth=8, master_seed=0)
        mdi = mdi_importance(forest, matrix)
        assert np.argmax(mdi) == 0
        assert mdi[0] > 0.9

    def test_never_selected_feature_is_zero(self):
        matrix = constant_column_matrix()
        forest = fit_forest(matrix, n_trees=15, m=4, max_depth=6, master_seed=2)
        assert mdi_importance(forest, matrix)[2] == 0.0

    def test_weight_is_improvement(self):
        # One tree, two splits: the root (10 rows, improvement 1) on
        # column 0 and its left child (2 rows, improvement 3) on column 1.
        # By improvement alone column 1 leads, 3 to 1; weighted once more by
        # node size column 0 would, 10 to 6.
        matrix = FeatureMatrix.from_arrays(np.zeros((10, 2)), np.arange(10.0))
        tree = RegressionTree(
            feature=np.array([0, 1, -1, -1, -1]), key=np.array([0.5, 0.5, 0.0, 0.0, 0.0]),
            improvement=np.array([1.0, 3.0]))
        forest = hand_forest([tree], [np.arange(0)], matrix)
        assert mdi_importance(forest, matrix).tolist() == [0.25, 0.75]

    def test_no_split_anywhere_is_zero(self):
        # With no split node, bincount has nothing to count and returns
        # int64 zeros; the result is still float64.
        matrix = FeatureMatrix.from_arrays(np.zeros((6, 3)), np.arange(6.0))
        forest = hand_forest([leaf_tree(1.0), leaf_tree(2.0)], (np.arange(0),) * 2, matrix)
        mdi = mdi_importance(forest, matrix)
        assert mdi.dtype == np.float64
        assert mdi.tolist() == [0.0, 0.0, 0.0]

    def test_normalization(self):
        matrix = single_factor_matrix(seed=5)
        forest = fit_forest(matrix, n_trees=10, m=2, max_depth=5, master_seed=1)
        mdi = mdi_importance(forest, matrix)
        assert mdi.dtype == np.float64
        assert mdi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (mdi >= 0.0).all()


class TestPermutationVI:
    def test_never_split_feature_exactly_zero(self):
        matrix = constant_column_matrix()
        forest = fit_forest(matrix, n_trees=15, m=4, max_depth=6, master_seed=2)
        assert permutation_importance(forest, matrix, seed=0)[2] == 0.0

    def test_noise_feature_near_zero(self):
        matrix = single_factor_matrix(n=500, seed=3)
        forest = fit_forest(matrix, n_trees=50, m=3, max_depth=8, master_seed=4)
        vi = permutation_importance(forest, matrix, seed=1)
        for j in range(1, matrix.n_features):
            assert abs(vi[j]) < 0.02

    def test_dominant_feature_ranks_first_across_seeds(self):
        wins = 0
        for seed in range(10):
            matrix = single_factor_matrix(n=250, seed=100 + seed)
            forest = fit_forest(matrix, n_trees=20, m=3, max_depth=7,
                                master_seed=seed)
            vi = permutation_importance(forest, matrix, seed=seed)
            wins += np.argmax(vi) == 0
        assert wins >= 9

    def test_identity_permutation_hook(self, monkeypatch):
        matrix = single_factor_matrix(seed=6)
        forest = fit_forest(matrix, n_trees=8, m=3, max_depth=6, master_seed=3)
        monkeypatch.setattr(
            importance_mod, "_permutations",
            lambda rng, p, n: np.tile(np.arange(n, dtype=np.int64), (p, 1)),
        )
        assert np.all(permutation_importance(forest, matrix, seed=9) == 0.0)

    def test_no_side_effects_and_seed_repeatability(self):
        matrix = single_factor_matrix(seed=7)
        forest = fit_forest(matrix, n_trees=10, m=3, max_depth=6, master_seed=5)
        before = matrix.X.tobytes()
        first = permutation_importance(forest, matrix, seed=42)
        second = permutation_importance(forest, matrix, seed=42)
        assert matrix.X.tobytes() == before
        assert first.dtype == np.float64
        assert first.tobytes() == second.tobytes()

    def test_all_trees_skipped_errors(self, monkeypatch):
        import e2credit.forest as forest_mod

        matrix = single_factor_matrix(n=50, seed=8)
        monkeypatch.setattr(
            forest_mod, "_draw_bootstrap",
            lambda rng, n: np.arange(n, dtype=np.int64),
        )
        forest = fit_forest(matrix, n_trees=3, m=2, max_depth=4, master_seed=0)
        with pytest.raises(PipelineError, match="out-of-bag"), pytest.warns(UserWarning):
            permutation_importance(forest, matrix, seed=0)

    def test_every_oob_set_constant_errors(self):
        # Every tree has out-of-bag rows, but their labels never vary.
        matrix = FeatureMatrix.from_arrays(np.zeros((30, 2)), np.repeat([1.0, 2.0, 3.0], 10))
        forest = hand_forest([leaf_tree(1.0), leaf_tree(2.0)],
                             (np.arange(10), np.arange(12, 18)), matrix)
        messages = [f"tree {b}: constant OOB labels, R^2 undefined, skipped" for b in (0, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PipelineError, match="no tree had a usable out-of-bag sample"):
                permutation_importance(forest, matrix, seed=0)
        assert [str(w.message) for w in caught] == messages

    @pytest.mark.parametrize("change", ["fewer_rows", "other_labels"])
    def test_matrix_other_than_the_training_set_rejected(self, change):
        # Out-of-bag rows are redrawn from the seed, so they mean something
        # only on the training set itself.
        matrix = single_factor_matrix(n=60, seed=11)
        forest = fit_forest(matrix, n_trees=3, m=2, max_depth=4, master_seed=0)
        other = (matrix.take(np.arange(50)) if change == "fewer_rows"
                 else FeatureMatrix.from_arrays(matrix.X, matrix.y + 1.0))
        with pytest.raises(CompatibilityError, match="not the one the forest was trained on"):
            permutation_importance(forest, other, seed=0)


class TestReport:
    def test_combined_report(self):
        matrix = single_factor_matrix(seed=9)
        forest = fit_forest(matrix, n_trees=12, m=3, max_depth=6, master_seed=6)
        report = importance_report(forest, matrix, seed=2)
        assert report.mdi.tobytes() == mdi_importance(forest, matrix).tobytes()
        assert report.permutation_vi.tobytes() == permutation_importance(
            forest, matrix, seed=2).tobytes()
        assert report.mdi_ranking()[0] == 0
        assert report.vi_ranking()[0] == 0

    def test_column_mismatch_rejected(self):
        matrix = single_factor_matrix(seed=10)
        forest = fit_forest(matrix, n_trees=3, m=2, max_depth=4, master_seed=1)
        other = FeatureMatrix.from_arrays(
            matrix.X.copy(), matrix.y.copy(),
            columns=tuple(
                type(matrix.columns[0])(f"renamed{j}", "numeric")
                for j in range(matrix.n_features)
            ),
        )
        with pytest.raises(CompatibilityError, match="columns differ"):
            importance_report(forest, other, seed=0)


def recorded(fn, *args):
    """fn's result and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def leaf_tree(value):
    return RegressionTree(feature=np.array([-1]), key=np.array([value]),
                          improvement=np.array([]))


@dataclasses.dataclass(frozen=True)
class HandForest(Forest):
    """A forest whose out-of-bag sets are given rather than drawn from its
    seed, to reach cases that no seed draws."""

    oobs: tuple = ()

    def out_of_bag(self, n_rows):
        return self.oobs


def hand_forest(trees, oobs, matrix):
    return HandForest(nodes=Nodes.join(trees), n_trees=len(trees), m=1, max_depth=None,
                      master_seed=0, columns=matrix.columns, train_sha256=matrix.sha256(),
                      oobs=tuple(oobs))


def revisiting_forest():
    """Two hand-built trees that each test feature 0 twice on one path, with
    feature 1 between the tests, on 40 rows whose feature 0 takes the values
    0-15. A permuted value can go the row's way at the first test of
    feature 0 and the other way at the second: 3 and 8 agree at <= 10 and
    part at <= 5, and 12 and 8 agree at > 5 and part at <= 10."""
    rng = np.random.default_rng(41)
    X = np.column_stack([np.arange(40) % 16, rng.normal(size=40)]).astype(np.float64)
    # Tree 0: x0 <= 10, then x1 <= 0 on the left, then x0 <= 5 below that.
    # Tree 1: x0 <= 5, then x1 <= 0 on the right, then x0 <= 10 below that.
    trees = (
        RegressionTree(feature=np.array([0, 1, -1, 0, -1, -1, -1]),
                       key=np.array([10.0, 0.0, 3.0, 5.0, -1.0, 0.0, 2.0]),
                       improvement=np.ones(3)),
        RegressionTree(feature=np.array([0, -1, 1, 0, -1, -1, -1]),
                       key=np.array([5.0, -2.0, 0.0, 10.0, 1.5, 0.5, 4.0]),
                       improvement=np.ones(3)),
    )
    y = trees[0].predict(X) + trees[1].predict(X) + 0.5 * rng.normal(size=40)
    matrix = FeatureMatrix.from_arrays(X, y)
    return hand_forest(trees, (np.arange(40), np.arange(5, 35)), matrix), matrix


def panel_forest():
    """A forest of 10 trees up to 15 levels deep on an encoded 30x20
    synthetic panel: one-hot blocks, few-valued columns and a wider matrix."""
    rows, _ = generate_snapshots(n_firms=30, n_dates=20, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        records, _ = build_from_rows(rows, Path(tmp) / "snapshots.csv", ModelParams())
    complete = drop_incomplete(records)
    matrix = FeatureEncoder.fit(complete).transform(complete)
    return fit_forest(matrix, n_trees=10, max_depth=15, master_seed=4), matrix


@functools.cache
def vi_cases():
    """(name, forest, matrix) for the oracle comparison; the tree-skipping
    case comes last."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(150, 4))
    X[:, 3] = rng.integers(0, 2, size=150)
    y = 2.0 * X[:, 0] + X[:, 3] + 0.3 * rng.normal(size=150)
    y[100:110] = 4.0
    matrix = FeatureMatrix.from_arrays(X, y)
    one = FeatureMatrix.from_arrays(X[:, :1], y)
    deep = fit_forest(matrix, n_trees=15, m=2, max_depth=None, master_seed=1)
    stumps = fit_forest(matrix, n_trees=10, m=2, max_depth=1, master_seed=2)
    # Scored trees between trees skipped for each reason: an OOB set of one
    # row (tree 1), a single leaf whose value is exactly the mean of its OOB
    # labels, so R^2 == 0 (tree 3), and OOB labels all equal (tree 5).
    zero_r2 = leaf_tree(y[70:90].mean())
    deep_oob = deep.out_of_bag(matrix.n_rows)
    mixed = hand_forest(
        (deep.trees[0], stumps.trees[0], leaf_tree(1.0), zero_r2, deep.trees[1],
         stumps.trees[1], deep.trees[2]),
        (deep_oob[0], np.array([4]), np.arange(0, 150, 3), np.arange(70, 90),
         deep_oob[1], np.arange(100, 110), np.arange(10, 60)),
        matrix)
    leaves = hand_forest([leaf_tree(v) for v in (1.0, -2.0, 0.5)],
                         (np.arange(40), np.arange(50, 150), np.arange(7)), matrix)
    return [
        ("unbounded", deep, matrix),
        ("stumps", stumps, matrix),
        ("one_column", fit_forest(one, n_trees=10, m=1, max_depth=None, master_seed=3), one),
        ("single_leaf", leaves, matrix),
        ("revisited_feature", *revisiting_forest()),
        ("encoded_panel", *panel_forest()),
        ("skipped_trees", mixed, matrix),
    ]


class TestPermutationMatchesOracle:
    @pytest.mark.parametrize("chunk_rows", [1, 150, 2**14])
    @pytest.mark.parametrize("name, forest, matrix", vi_cases())
    def test_bitwise_with_same_warnings(self, name, forest, matrix, chunk_rows,
                                        monkeypatch, vi_oracle):
        monkeypatch.setattr(importance_mod, "_CHUNK_ROWS", chunk_rows)
        for seed in (0, 7):
            got, got_warnings = recorded(permutation_importance, forest, matrix, seed)
            want, want_warnings = recorded(vi_oracle, forest, matrix, seed)
            assert got.tobytes() == want.tobytes()
            assert got_warnings == want_warnings

    def test_skip_reasons_in_tree_order(self):
        _, forest, matrix = vi_cases()[-1]
        _, messages = recorded(permutation_importance, forest, matrix, 0)
        assert messages == [
            "tree 1: OOB set too small, skipped",
            "tree 3: zero OOB R^2, skipped",
            "tree 5: constant OOB labels, R^2 undefined, skipped",
        ]

    def test_permutation_draws(self, monkeypatch):
        # One draw per tree, in tree order, from the (seed, tree) stream of
        # every tree with two or more OOB rows and unequal OOB labels; the
        # zero-R^2 tree draws too. It holds p rows of the OOB size, the
        # draws of p successive rng.permutation calls in feature order.
        _, forest, matrix = vi_cases()[-1]
        calls = []
        one_call = importance_mod._permutations

        def draw(rng, p, n):
            perms = one_call(rng, p, n)
            calls.append((perms.shape, perms.tobytes()))
            return perms

        monkeypatch.setattr(importance_mod, "_permutations", draw)
        with pytest.warns(UserWarning):
            permutation_importance(forest, matrix, seed=5)
        p = matrix.n_features
        expected = []
        for b, oob in enumerate(forest.out_of_bag(matrix.n_rows)):
            if b in (1, 5):
                continue
            rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(b,)))
            draws = np.stack([rng.permutation(oob.size) for _ in range(p)])
            expected.append(((p, oob.size), draws.tobytes()))
        assert calls == expected

