"""Feature-importance procedures for a fitted forest.

Two views of the same question:

* mean decrease in impurity (MDI, Breiman 2001): per feature, sum the SSE
  improvement of its splits (each the decrease in summed squared error over
  the node's training rows), average over trees, normalize to sum one;
* out-of-bag permutation importance: per tree b and feature A, compare the
  tree's R^2 on its OOB rows before and after permuting column A there,
  VI(A) = mean over trees of (R2_b - R2_b_permuted) / R2_b. A tree's p
  permutations come from one call on its (seed, tree) stream, one row per
  feature in feature order: the same draws as p successive
  rng.permutation calls. The OOB rows are redrawn from the forest's seed,
  so the matrix must be the forest's training set; its SHA-256 is checked
  first.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix
from .errors import CompatibilityError, PipelineError
from .forest import LEAF, Forest
from .metrics import r_squared_arrays


@dataclass(frozen=True)
class ImportanceReport:
    """Both per-feature scores plus deterministic rankings (best first)."""

    feature_names: tuple[str, ...]
    mdi: np.ndarray
    permutation_vi: np.ndarray

    def mdi_ranking(self) -> tuple[int, ...]:
        return _ranking(self.mdi)

    def vi_ranking(self) -> tuple[int, ...]:
        return _ranking(self.permutation_vi)


def _ranking(scores: np.ndarray) -> tuple[int, ...]:
    # Stable sort on negated scores: ties keep column order.
    return tuple(int(i) for i in np.argsort(-scores, kind="stable"))


def mdi_importance(forest: Forest, train: FeatureMatrix) -> np.ndarray:
    """Mean decrease in impurity per feature: the summed SSE improvement of
    its splits, averaged over trees and normalized to sum one.

    A feature never chosen by any split scores exactly zero.
    """
    p = train.n_features
    nodes = forest.nodes
    nodes.check_columns(p)
    # With no split at all, bincount returns int64 zeros.
    totals = np.bincount(nodes.feature[nodes.feature != LEAF], nodes.improvement,
                         minlength=p).astype(np.float64)
    totals /= forest.n_trees
    total = totals.sum()
    if total > 0.0:
        totals = totals / total
    return totals


def _permutations(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    # A tree's p permutations of range(n), one row per feature in feature
    # order, from one call: Fisher-Yates row after row on the same stream,
    # so the same draws as p successive rng.permutation(n) calls.
    # Module-level so tests can substitute identity permutations.
    return rng.permuted(np.broadcast_to(np.arange(n), (p, n)), axis=1)


# Trees are scored together, in tree order, until their OOB sets hold this
# many rows: one chunk's descents run as a few large array operations rather
# than many small ones, while its scratch arrays (a prediction, a source row
# and a flag per feature for every row, and the re-descending pairs) stay a
# few MB.
_CHUNK_ROWS = 2**12


def permutation_importance(forest: Forest, train: FeatureMatrix, seed: int) -> np.ndarray:
    """Out-of-bag permutation importance VI per feature.

    Each tree's p permutations are drawn in one call, in feature order, from
    the stream derived from (seed, tree index), so repeated calls agree
    bitwise and worker scheduling cannot matter; they are the draws of p
    successive rng.permutation calls on that stream. Each tree's OOB rows
    are redrawn from the forest's seed and train's row count, so train must
    be the forest's training set: CompatibilityError otherwise. Trees whose
    OOB set is too small, has constant labels, or scores exactly zero R^2
    are skipped with a warning; the average runs over the remaining trees.
    The stored matrix is never modified.

    Only rows whose path tests a feature are re-scored when that feature is
    permuted, each from the first node on its path that tests it; every
    other row keeps its leaf, since every value its path compares is
    unchanged. The scores equal those of predicting every permuted copy of
    the OOB block in full, bit for bit.
    """
    if train.sha256() != forest.train_sha256:
        raise CompatibilityError(
            f"the {train.n_rows}-row matrix is not the one the forest was trained on; "
            "pass the training set (the snapshot CSV and config used for training)"
        )
    p = train.n_features
    X = np.ascontiguousarray(train.X, dtype=np.float64)
    forest.nodes.check_columns(p)
    acc = np.zeros(p, dtype=np.float64)
    used = 0
    skipped: list[tuple[int, str]] = []
    for chunk in _chunks(forest, train, seed, skipped):
        for b, vi in _score_chunk(forest.nodes, X, chunk):
            if vi is None:
                skipped.append((b, f"tree {b}: zero OOB R^2, skipped"))
            else:
                acc += vi
                used += 1
    for _, message in sorted(skipped):
        warnings.warn(message, stacklevel=2)
    if used == 0:
        raise PipelineError("no tree had a usable out-of-bag sample")
    return acc / used


def _chunks(forest: Forest, train: FeatureMatrix, seed: int, skipped: list):
    """Lists of (tree, OOB rows, OOB labels, one permutation per feature),
    _CHUNK_ROWS OOB rows or a little more each; trees that cannot be scored
    go to skipped instead. A tree's permutations are one _permutations call
    on its (seed, tree) stream, a row per feature in feature order."""
    chunk, rows = [], 0
    for b, oob in enumerate(forest.out_of_bag(train.n_rows)):
        if oob.size < 2:
            skipped.append((b, f"tree {b}: OOB set too small, skipped"))
            continue
        y_oob = train.y[oob]
        if np.all(y_oob == y_oob[0]):
            skipped.append((b, f"tree {b}: constant OOB labels, R^2 undefined, skipped"))
            continue
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        perms = _permutations(rng, train.n_features, oob.size)
        chunk.append((b, oob, y_oob, perms))
        rows += oob.size
        if rows >= _CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
    if chunk:
        yield chunk


def _score_chunk(nodes, X, chunk):
    """(tree, per-feature VI terms) for each tree of the chunk; the terms are
    None where the tree's OOB R^2 is zero."""
    trees = [b for b, _, _, _ in chunk]
    sizes = [oob.size for _, oob, _, _ in chunk]
    ends = np.cumsum(sizes)
    p = X.shape[1]
    Xf = X.ravel()
    # Row offsets into Xf of the chunk's rows, tree after tree.
    base = np.concatenate([oob for _, oob, _, _ in chunk]) * p
    K = base.shape[0]
    depth = int(nodes.depths[trees].max())

    # Descend the OOB rows once. At each depth, a row whose node tests a
    # feature its path has not tested before starts a (feature, row) pair
    # there: with that feature permuted, the row re-descends from this node,
    # while a row whose path never tests it keeps its leaf.
    node = np.repeat(nodes.roots[trees], sizes)
    every_row = np.arange(K)
    seen = np.zeros((p, K), dtype=bool)
    entering = []
    for _ in range(depth):
        tests = nodes.feature[node]
        at = every_row[tests >= 0]
        at = at[~seen[tests[at], at]]
        seen[tests[at], at] = True
        entering.append((tests[at], at, node[at]))
        node = nodes.step(Xf, node, base)
    # Row 0 holds the unpermuted leaf values and row 1 + a those with
    # feature a permuted, so one R^2 call scores a tree's base and all p.
    permuted = np.repeat(nodes.key[node][None], p + 1, axis=0)
    if entering:
        # Pairs are laid out by starting depth, so those under way at a
        # depth form a prefix; each reads its feature from its permuted
        # source row.
        feature, row, node = (np.concatenate(part) for part in zip(*entering))
        source = np.concatenate(
            [perms + (end - size) for (_, _, _, perms), end, size in zip(chunk, ends, sizes)],
            axis=1,
        )[feature, row]
        row_base, source_base = base[row], base[source]
        for n in np.cumsum([part[0].shape[0] for part in entering]):
            node[:n] = nodes.step(Xf, node[:n], row_base[:n], (feature[:n], source_base[:n]))
        permuted[feature + 1, row] = nodes.key[node]

    out = []
    for (b, _, y_oob, _), end, size in zip(chunk, ends, sizes):
        r2 = r_squared_arrays(y_oob, permuted[:, end - size:end])
        out.append((b, None if r2[0] == 0.0 else (r2[0] - r2[1:]) / r2[0]))
    return out


def importance_report(
    forest: Forest, train: FeatureMatrix, seed: int
) -> ImportanceReport:
    """Both importance measures of the forest on its training matrix, whose
    columns must be the forest's."""
    names = train.column_names()
    if forest.column_names() != names:
        raise ValueError("forest and matrix disagree on feature columns")
    return ImportanceReport(names, mdi_importance(forest, train),
                            permutation_importance(forest, train, seed))
