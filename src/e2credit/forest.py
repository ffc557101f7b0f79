"""Random forest regression: bagged, depth-limited CARTs with per-node
random feature subsets.

Training is deterministic for a fixed master seed no matter how many worker
threads run: each tree owns an independent generator derived from
(master_seed, tree_index) through numpy's SeedSequence spawn keys, so
scheduling order cannot leak into the result. Trees store their split
records (feature, threshold, per-node SSE improvement, sample counts),
which the importance module consumes. Prediction concatenates the trees'
nodes into one FlatForest and moves every (tree, row) pair down a level
at a time, all pairs in the same few array operations.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .dataset import FeatureColumn, FeatureMatrix
from .errors import InputFormatError

LEAF = _kernels.LEAF

DEFAULT_N_TREES = 50
DEFAULT_FEATURES_PER_SPLIT = 15
DEFAULT_MAX_DEPTH = 15


@dataclass(frozen=True)
class SplitDecision:
    """Winning split of a greedy SSE search."""

    feature: int
    threshold: float
    sse_after: float
    left_mean: float
    right_mean: float


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    row_indices: np.ndarray,
    feature_subset: np.ndarray,
) -> SplitDecision | None:
    """Greedy SSE-minimizing split over the given rows and features.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature; the objective is the summed within-region SSE
    around the region means. Ties break toward the lower SSE, then lower
    feature index, then lower threshold. Returns None when no candidate
    feature has two distinct values.
    """
    rows = np.asarray(row_indices, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("best_split requires a non-empty sample")
    feats = np.asarray(feature_subset, dtype=np.int64)
    if feats.size == 0:
        raise ValueError("best_split requires a non-empty feature subset")
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    f, s, sse_after = _kernels.scan_best_split(X, y, rows, feats)
    if f < 0:
        return None
    mask = X[rows, f] <= s
    left_rows = rows[mask]
    right_rows = rows[~mask]
    return SplitDecision(
        feature=int(f),
        threshold=float(s),
        sse_after=float(sse_after),
        left_mean=float(np.cumsum(y[left_rows])[-1] / left_rows.size),
        right_mean=float(np.cumsum(y[right_rows])[-1] / right_rows.size),
    )


@dataclass(frozen=True)
class RegressionTree:
    """Fitted CART stored as parallel node arrays (root at index 0).

    feature[i] is -1 for leaves; value[i] is the mean label of the node's
    training rows, improvement[i] the SSE decrease achieved by its split.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    improvement: np.ndarray
    max_depth: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def depth(self) -> int:
        return int(self.flat.depths[0])

    @cached_property
    def flat(self) -> "FlatForest":
        return FlatForest((self,))

    def predict(self, X: np.ndarray) -> np.ndarray | float:
        X, single = _as_rows(X)
        out = np.empty(X.shape[0], dtype=np.float64)
        for rows, values in self.flat.leaf_values(X):
            out[rows] = values[0]
        return float(out[0]) if single else out


def _as_rows(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """X as a C-contiguous float64 matrix, and whether it was one row."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    return np.ascontiguousarray(X[None, :] if single else X), single


# Forest.predict descends at most this many (tree, row) pairs at a time, so
# its scratch arrays stay about 2 MB whatever the number of rows.
_PREDICT_PAIRS = 2**15


class FlatForest:
    """The nodes of a sequence of trees, concatenated into one set of arrays.

    Node j of tree t is node roots[t] + j; children[2 * i + go_left] is the
    child of node i on that side, and key[i] is its split threshold, or its
    value when it is a leaf. A leaf is its own child on both sides, so a
    descent runs a fixed number of levels over every (tree, row) pair and
    pairs that reach a leaf early stay put. A leaf's feature stays LEAF: the
    value it reads, one element before its row (or the matrix's last), is
    never used. depths[t] is tree t's deepest level.
    """

    def __init__(self, trees):
        sizes = np.array([tree.n_nodes for tree in trees], dtype=np.intp)
        self.roots = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        self.feature = np.empty(n, dtype=np.intp)
        self.key = np.empty(n, dtype=np.float64)
        self.children = np.empty(2 * n, dtype=np.intp)
        for root, tree in zip(self.roots, trees):
            end = root + tree.n_nodes
            leaf = tree.feature == LEAF
            own = np.arange(root, end)
            self.feature[root:end] = tree.feature
            self.key[root:end] = np.where(leaf, tree.value, tree.threshold)
            self.children[2 * root : 2 * end : 2] = np.where(leaf, own, tree.right + root)
            self.children[2 * root + 1 : 2 * end : 2] = np.where(leaf, own, tree.left + root)
        self.max_feature = int(self.feature.max(initial=0))
        self.depths = self._depths(sizes)

    def _depths(self, sizes) -> np.ndarray:
        tree_of = np.repeat(np.arange(sizes.shape[0]), sizes)
        depths = np.zeros(sizes.shape[0], dtype=np.intp)
        level, reached, d = self.roots, sizes.shape[0], 0
        while True:
            level = level[self.feature[level] != LEAF]
            if level.shape[0] == 0:
                return depths
            level = np.concatenate([self.children[2 * level + 1], self.children[2 * level]])
            reached += level.shape[0]
            if reached > self.feature.shape[0]:
                raise ValueError("malformed tree: a node is reached twice")
            d += 1
            depths[tree_of[level]] = d

    def step(self, Xf, node, base, swap=None):
        """Move each pair one level down: node is its current node, base the
        offset of its row in the flattened matrix Xf. With swap = (feature,
        source), a pair whose node tests its feature reads that one value
        from the row at offset source instead."""
        f = self.feature[node]
        if swap is None:
            at = base + f
        else:
            at = np.where(f == swap[0], swap[1], base) + f
        go_left = Xf[at] <= self.key[node]
        return self.children[2 * node + go_left]

    def check_columns(self, p: int) -> None:
        # A column past the row's end would silently read the next row.
        if self.max_feature >= p:
            raise ValueError(
                f"feature dimension mismatch: trees test column {self.max_feature}, "
                f"got {p} columns"
            )

    def leaf_values(self, X: np.ndarray):
        """Leaf values of every (tree, row) pair for a C-contiguous float64
        matrix X, a block of rows at a time: yields (rows, values) with one
        row of values per tree."""
        n, p = X.shape
        self.check_columns(p)
        Xf = X.ravel()
        n_trees = self.roots.shape[0]
        block = max(1, _PREDICT_PAIRS // n_trees)
        levels = int(self.depths.max(initial=0))
        for start in range(0, n, block):
            rows = slice(start, min(start + block, n))
            base = np.arange(rows.start, rows.stop, dtype=np.intp) * p
            node = np.repeat(self.roots, base.shape[0])
            base = np.tile(base, n_trees)
            for _ in range(levels):
                node = self.step(Xf, node, base)
            yield rows, self.key[node].reshape(n_trees, -1)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    bootstrap_rows: np.ndarray,
    m: int,
    max_depth: int | None,
    rng: np.random.Generator,
) -> RegressionTree:
    """Grow one CART on the given sample rows.

    A fresh random subset of m features is drawn at every node; growth
    stops at pure nodes, nodes with fewer than two rows, nodes with no valid
    split, or max_depth levels below the root (None = no depth cap). Leaves
    predict the mean label of their rows.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    return _grow(_kernels.Presorted(X), y, [bootstrap_rows], m, max_depth, [rng])[0]


def _grow(presorted, y, samples, m, max_depth, rngs) -> list[RegressionTree]:
    p = presorted.p
    if not 1 <= m <= p:
        raise ValueError(f"m must be in [1, {p}], got {m}")
    return [
        RegressionTree(max_depth=max_depth, **arrays)
        for arrays in _kernels.build_trees(presorted, y, samples, m, max_depth, rngs)
    ]


@dataclass(frozen=True)
class Forest:
    """Bagged ensemble; prediction is the arithmetic mean of tree outputs."""

    trees: tuple[RegressionTree, ...]
    oob_indices: tuple[np.ndarray, ...]
    n_trees: int
    m: int
    max_depth: int | None
    master_seed: int
    n_train_rows: int
    columns: tuple[FeatureColumn, ...] | None = field(default=None)

    @property
    def n_features(self) -> int | None:
        return len(self.columns) if self.columns is not None else None

    @cached_property
    def flat(self) -> "FlatForest":
        return FlatForest(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray | float:
        X, single = _as_rows(X)
        if self.columns is not None and X.shape[1] != len(self.columns):
            raise ValueError(
                f"feature dimension mismatch: forest expects {len(self.columns)}, "
                f"got {X.shape[1]}"
            )
        # Summed tree by tree, in tree order, so the mean is the same to the
        # last bit however the descent is laid out.
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for rows, values in self.flat.leaf_values(X):
            for tree_values in values:
                acc[rows] += tree_values
        acc /= self.n_trees
        return float(acc[0]) if single else acc

    def column_names(self) -> tuple[str, ...] | None:
        if self.columns is None:
            return None
        return tuple(col.name for col in self.columns)


def predict(forest: Forest, x: np.ndarray) -> np.ndarray | float:
    """Forest prediction for a single feature vector or a matrix of rows."""
    return forest.predict(x)


def _tree_rng(master_seed: int, tree_index: int) -> np.random.Generator:
    # Counter-style derivation: child stream (master_seed, b) is independent
    # of every other tree and of how trees are scheduled onto workers.
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(tree_index,))
    )


def _draw_bootstrap(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


def _bootstrap(master_seed: int, tree_index: int, n: int):
    """Tree tree_index's generator, left where growing starts, its n bootstrap
    rows and its out-of-bag rows (those never drawn, ascending)."""
    rng = _tree_rng(master_seed, tree_index)
    boot = _draw_bootstrap(rng, n)
    return rng, boot, np.flatnonzero(np.bincount(boot, minlength=n) == 0)


def _fit_batch(presorted, y, n, trees, m, max_depth, master_seed):
    rngs, boots, oobs = zip(*(_bootstrap(master_seed, b, n) for b in trees))
    return list(zip(_grow(presorted, y, boots, m, max_depth, rngs), oobs))


# Trees grow in batches of about this many rows in total: one batch's level
# scan runs a few large array operations instead of many small ones, and
# batches are what the worker threads share out. 2**15 is the largest power
# of two that still splits a 50-tree, 1200-row forest into two batches, one
# per thread; on 2 cores it grows such trees about 4x faster than one tree
# per batch, while 2**16 leaves one thread idle.
_BATCH_ROWS = 2**15


def fit_forest(
    train: FeatureMatrix,
    n_trees: int = DEFAULT_N_TREES,
    m: int = DEFAULT_FEATURES_PER_SPLIT,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    master_seed: int = 0,
    workers: int = 1,
) -> Forest:
    """Train a forest of n_trees bagged CARTs on the encoded matrix.

    Each tree draws a bootstrap sample of n rows with replacement and grows
    with per-node feature subsets of size m; rows never drawn are recorded
    as the tree's out-of-bag set. The result is identical for any worker
    count.
    """
    if train.n_rows == 0:
        raise ValueError("cannot fit a forest on an empty training set")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    presorted = _kernels.Presorted(train.X)
    y = np.ascontiguousarray(train.y, dtype=np.float64)
    n = train.n_rows
    size = max(1, _BATCH_ROWS // n)
    jobs = [
        (presorted, y, n, range(start, min(start + size, n_trees)), m, max_depth, master_seed)
        for start in range(0, n_trees, size)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lambda args: _fit_batch(*args), jobs))
    else:
        batches = [_fit_batch(*args) for args in jobs]
    trees, oobs = zip(*(result for batch in batches for result in batch))
    return Forest(
        trees=tuple(trees),
        oob_indices=tuple(oobs),
        n_trees=n_trees,
        m=m,
        max_depth=max_depth,
        master_seed=master_seed,
        n_train_rows=n,
        columns=train.columns,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"E2CFOR02"

# Node fields in file order; each takes 8 bytes a node.
_TREE_FIELDS = (
    ("feature", "<i8"),
    ("threshold", "<f8"),
    ("left", "<i8"),
    ("right", "<i8"),
    ("value", "<f8"),
    ("n_samples", "<i8"),
    ("improvement", "<f8"),
)


def _at_least(low: int):
    return lambda v: type(v) is int and v >= low


# Each header key, which is also the Forest field it holds, and the test
# its value must pass.
_HEADER = {
    "n_trees": _at_least(1),
    "m": _at_least(1),
    "max_depth": lambda v: v is None or _at_least(1)(v),
    "master_seed": _at_least(0),
    "n_train_rows": _at_least(1),
    "columns": lambda v: v is None or type(v) is list and all(
        type(c) is list and len(c) == 2 and all(type(s) is str for s in c) for c in v
    ),
}


def save_forest(forest: Forest, path) -> None:
    """Write the forest to a binary file; identical forests give identical bytes.

    Layout: the magic "E2CFOR02" (the only version marker), a little-endian
    uint32 header length, a JSON header (sorted keys, no spaces) with the
    _HEADER keys, then the trees' node counts as <i8 and each of the
    _TREE_FIELDS concatenated over the trees in tree order. Out-of-bag rows
    are redrawn from (master_seed, tree, n_train_rows) on load, not stored,
    so a forest whose out-of-bag sets are not its seed's raises ValueError.
    """
    for b, oob in enumerate(forest.oob_indices):
        if not np.array_equal(oob, _bootstrap(forest.master_seed, b, forest.n_train_rows)[2]):
            raise ValueError(f"tree {b}'s out-of-bag rows are not its seed's; cannot save")
    header = {key: getattr(forest, key) for key in _HEADER}
    if forest.columns is not None:
        header["columns"] = [[c.name, c.kind] for c in forest.columns]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    counts = np.array([tree.n_nodes for tree in forest.trees], dtype="<i8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + len(blob).to_bytes(4, "little") + blob + counts.tobytes())
        for name, dtype in _TREE_FIELDS:
            nodes = np.concatenate([getattr(tree, name) for tree in forest.trees])
            fh.write(nodes.astype(dtype).tobytes())


def load_forest(path) -> Forest:
    """Read a forest written by save_forest; round-trips bit-exactly. Any
    other file, a format-1 one included, raises InputFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] == b"E2CFOR01":
        raise InputFormatError(f"{path}: forest file format 1 is no longer read; retrain")
    if raw[:8] != _MAGIC:
        raise InputFormatError(f"{path}: not a forest file (bad magic {raw[:8]!r})")
    size = int.from_bytes(raw[8:12], "little")
    try:
        header = json.loads(raw[12 : 12 + size])
    except ValueError as exc:
        raise InputFormatError(f"{path}: unreadable forest header ({exc})") from None
    for key, valid in _HEADER.items():
        if not (type(header) is dict and key in header and valid(header[key])):
            raise InputFormatError(f"{path}: forest header key {key!r} missing or malformed")
    n_trees, columns = header["n_trees"], header["columns"]
    payload = memoryview(raw)[12 + size :]
    counts = np.frombuffer(payload, "<i8", count=min(n_trees, len(payload) // 8))
    if np.any(counts < 1):
        raise InputFormatError(f"{path}: a tree has no nodes")
    n = sum(counts.tolist())
    if len(payload) != 8 * n_trees + 56 * n:
        raise InputFormatError(f"{path}: payload is not {n_trees} trees of {n} nodes")
    block = np.frombuffer(payload, "<i8", offset=8 * n_trees).reshape(len(_TREE_FIELDS), n)
    fields = {name: row.view(dtype) for (name, dtype), row in zip(_TREE_FIELDS, block)}
    _check_nodes(path, fields, counts, None if columns is None else len(columns))
    per_tree = zip(*(np.split(nodes, np.cumsum(counts)[:-1]) for nodes in fields.values()))
    max_depth = header["max_depth"]
    trees = tuple(RegressionTree(max_depth=max_depth, **dict(zip(fields, t))) for t in per_tree)
    seed, n_rows = header["master_seed"], header["n_train_rows"]
    oobs = tuple(_bootstrap(seed, b, n_rows)[2] for b in range(n_trees))
    if columns is not None:
        header["columns"] = tuple(FeatureColumn(name, kind) for name, kind in columns)
    return Forest(trees=trees, oob_indices=oobs, **{key: header[key] for key in _HEADER})


def _check_nodes(path, fields, counts, p) -> None:
    # Children must come after their parent within its tree, and every node
    # but a root must be the child of exactly one node: then each tree is a
    # tree, and every descent from its root ends at a leaf.
    feature, n = fields["feature"], fields["feature"].shape[0]
    if feature.min() < LEAF or (p is not None and feature.max() >= p):
        raise InputFormatError(f"{path}: a node tests a feature outside [-1, {p})")
    split = feature != LEAF
    first = np.repeat(np.cumsum(counts) - counts, counts)
    local = np.arange(n) - first
    kids = np.stack([fields["left"], fields["right"]])
    if np.any(~split & (kids != LEAF)):
        raise InputFormatError(f"{path}: a leaf has a child")
    if np.any(split & ((kids <= local) | (kids >= np.repeat(counts, counts)))):
        raise InputFormatError(f"{path}: a split node's child is not a later node of its tree")
    parents = np.bincount(np.where(split, kids + first, n).ravel(), minlength=n + 1)
    if np.any(parents[:n] != (local > 0)):
        raise InputFormatError(f"{path}: a node is not the child of exactly one node")
