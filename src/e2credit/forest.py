"""Random forest regression: bagged, depth-limited CARTs with per-node
random feature subsets.

Training is deterministic for a fixed master seed no matter how many worker
threads run: each tree owns an independent generator derived from
(master_seed, tree_index) through numpy's SeedSequence spawn keys, so
scheduling order cannot leak into the result. A forest's nodes live in one
store, each field concatenated over the trees: per node the feature and the
key (a split's threshold, a leaf's value), per split node the SSE
improvement that MDI importance reads. Nothing the seed gives back is kept:
a tree's bootstrap and out-of-bag rows are redrawn from (master_seed, tree,
training row count) where they are needed. Prediction moves every (tree,
row) pair down a level at a time, all pairs in the same few array operations.

A forest also keeps the calibration and holdout it was trained under.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .config import RunConfig
from .dataset import FeatureColumn, FeatureMatrix
from .errors import InputFormatError, PipelineError
from .structural import ModelParams

# The feature of a leaf node. The tree kernel (_kernels, imported only where
# trees grow, as reading or scoring a forest never runs it) writes it too.
LEAF = -1


# Forest.predict descends at most this many (tree, row) pairs at a time, so
# its scratch arrays stay about 2 MB whatever the number of rows.
_PREDICT_PAIRS = 2**15


@dataclass(frozen=True, eq=False)
class Nodes:
    """The nodes of a sequence of trees, each field concatenated over the
    trees in tree order; sizes[t] is tree t's node count.

    Per node: feature[i], LEAF for a leaf, and key[i], the threshold of a
    split node or the mean label of a leaf's training rows. Per split node,
    in node order: improvement, the decrease its split brings to the summed
    squared error of the node's training rows. Each tree is numbered
    breadth-first from its root, so it has 2s + 1 nodes for s splits, the
    children of its k-th split node are its nodes 2k+1 (left) and 2k+2
    (right), and tree t's split records start at (roots[t] - t) // 2.
    Children are derived.
    """

    feature: np.ndarray
    key: np.ndarray
    improvement: np.ndarray
    sizes: np.ndarray

    # The key at split nodes and at leaves, 0 at the others (a split node's
    # mean label is not kept).
    threshold = property(lambda self: np.where(self.feature == LEAF, 0.0, self.key))
    value = property(lambda self: np.where(self.feature == LEAF, self.key, 0.0))

    @staticmethod
    def join(stores) -> "Nodes":
        return Nodes(*(np.concatenate([getattr(s, f.name) for s in stores])
                       for f in fields(Nodes)))

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @cached_property
    def roots(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    def tree(self, t: int) -> "RegressionTree":
        """Tree t, as arrays that share this store's memory."""
        at = slice(self.roots[t], self.roots[t] + self.sizes[t])
        splits = slice((at.start - t) // 2, (at.stop - t) // 2)
        return RegressionTree(self.feature[at], self.key[at], self.improvement[splits])

    @cached_property
    def tree_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.sizes.shape[0]), self.sizes)

    @cached_property
    def children(self) -> np.ndarray:
        """children[2 * i + go_left]: the child of node i on that side. The
        left child of a split node of tree t with K split nodes before it in
        the store is node 2K + t + 1, as a tree of s splits holds 2s + 1
        nodes. A leaf is its own child, so a descent runs a fixed number of
        levels and pairs that reach a leaf early stay put; the value a leaf's
        LEAF feature reads, one before its row (or the matrix's last), is unused."""
        kids = np.repeat(np.arange(self.n_nodes), 2)
        split = np.flatnonzero(self.feature != LEAF)
        left = 2 * np.arange(split.shape[0]) + self.tree_of[split] + 1
        kids[2 * split + 1] = left
        kids[2 * split] = left + 1
        return kids

    @property
    def left(self) -> np.ndarray:
        """Store index of each node's left child, LEAF at a leaf."""
        return np.where(self.feature == LEAF, LEAF, self.children[1::2])

    @property
    def right(self) -> np.ndarray:
        """Store index of each node's right child, LEAF at a leaf."""
        return np.where(self.feature == LEAF, LEAF, self.children[::2])

    @cached_property
    def depths(self) -> np.ndarray:
        """Each tree's deepest level."""
        depths = np.zeros(self.sizes.shape[0], dtype=np.intp)
        level, d = self.roots, 0
        while True:
            level = level[self.feature[level] != LEAF]
            if level.shape[0] == 0:
                return depths
            level = np.concatenate([self.children[2 * level + 1], self.children[2 * level]])
            d += 1
            depths[self.tree_of[level]] = d

    def step(self, Xf, node, base, swap=None):
        """Move each pair one level down: node is its current node, base the
        offset of its row in the flattened matrix Xf. With swap = (feature,
        source), a pair whose node tests its feature reads that one value
        from the row at offset source instead."""
        # take, not [], for every gather: the same elements, less overhead.
        f = self.feature.take(node)
        if swap is None:
            at = base + f
        else:
            at = np.where(f == swap[0], swap[1], base) + f
        go_left = Xf.take(at) <= self.key.take(node)
        return self.children.take(2 * node + go_left)

    def check_columns(self, p: int) -> None:
        # A column past the row's end would silently read the next row.
        if self.feature.max(initial=0) >= p:
            raise ValueError(
                f"feature dimension mismatch: trees test column {self.feature.max()}, "
                f"got {p} columns"
            )

    def leaf_values(self, X: np.ndarray):
        """Leaf values of every (tree, row) pair for a C-contiguous float64
        matrix X, a block of rows at a time: yields (rows, values) with one
        row of values per tree."""
        n, p = X.shape
        self.check_columns(p)
        Xf = X.ravel()
        n_trees = self.sizes.shape[0]
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


class RegressionTree(Nodes):
    """Fitted CART: a store of one tree, root at index 0."""

    def __init__(self, feature, key, improvement):
        super().__init__(feature, key, improvement, np.array([feature.shape[0]]))

    def depth(self) -> int:
        return int(self.depths[0])

    def predict(self, X: np.ndarray) -> np.ndarray | float:
        X, single = _as_rows(X)
        out = np.empty(X.shape[0], dtype=np.float64)
        for rows, values in self.leaf_values(X):
            out[rows] = values[0]
        return float(out[0]) if single else out


def _as_rows(X: np.ndarray) -> tuple[np.ndarray, bool]:
    """X as a C-contiguous float64 matrix, and whether it was one row."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    return np.ascontiguousarray(X[None, :] if single else X), single


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
    from . import _kernels

    y = np.ascontiguousarray(y, dtype=np.float64)
    pre = _kernels.Presorted(X)
    return Nodes(**_kernels.build_trees(pre, y, [bootstrap_rows], m, max_depth, [rng])).tree(0)


@dataclass(frozen=True)
class Forest:
    """Bagged ensemble; prediction is the arithmetic mean of tree outputs."""

    nodes: Nodes
    n_trees: int
    m: int
    max_depth: int | None
    master_seed: int
    columns: tuple[FeatureColumn, ...]
    train_sha256: str  # FeatureMatrix.sha256() of the training set
    # The calibration that priced the training rows' E2C feature, and the
    # (firm_frac, date_frac) of the split that held rows out of them.
    calibration: ModelParams = ModelParams()
    holdout: tuple[float, float] = (RunConfig.firm_frac, RunConfig.date_frac)

    @cached_property
    def trees(self) -> tuple[RegressionTree, ...]:
        return tuple(self.nodes.tree(t) for t in range(self.n_trees))

    def predict(self, X: np.ndarray) -> np.ndarray | float:
        X, single = _as_rows(X)
        if X.shape[1] != len(self.columns):
            raise ValueError(
                f"feature dimension mismatch: forest expects {len(self.columns)}, "
                f"got {X.shape[1]}"
            )
        # Summed tree by tree, in tree order, so the mean is the same to the
        # last bit however the descent is laid out.
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for rows, values in self.nodes.leaf_values(X):
            for tree_values in values:
                acc[rows] += tree_values
        acc /= self.n_trees
        return float(acc[0]) if single else acc

    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def out_of_bag(self, n_rows: int) -> tuple[np.ndarray, ...]:
        """Each tree's out-of-bag rows, ascending, for a training set of
        n_rows rows: the rows its bootstrap never drew."""
        return tuple(np.flatnonzero(np.bincount(_bootstrap(self.master_seed, b, n_rows)[1],
                                                minlength=n_rows) == 0)
                     for b in range(self.n_trees))


def _tree_rng(master_seed: int, tree_index: int) -> np.random.Generator:
    # Counter-style derivation: child stream (master_seed, b) is independent
    # of every other tree and of how trees are scheduled onto workers.
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(tree_index,))
    )


def _draw_bootstrap(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, n, size=n)


def _bootstrap(master_seed: int, tree_index: int, n: int):
    """Tree tree_index's generator, left where growing starts, and its n
    bootstrap rows."""
    rng = _tree_rng(master_seed, tree_index)
    return rng, _draw_bootstrap(rng, n)


# Trees grow in batches of about this many rows in total: one batch's level
# scan runs a few large array operations instead of many small ones, and
# batches are what the worker threads share out. 2**15 is the largest power
# of two that still splits a 50-tree, 1200-row forest into two batches, one
# per thread; on 2 cores it grows such trees about 4x faster than one tree
# per batch, while 2**16 leaves one thread idle.
_BATCH_ROWS = 2**15


def fit_forest(
    train: FeatureMatrix,
    n_trees: int = RunConfig.trees,
    m: int = RunConfig.features_per_split,
    max_depth: int | None = RunConfig.max_depth,
    master_seed: int = RunConfig.seed,
    workers: int = RunConfig.workers,
) -> Forest:
    """Train a forest of n_trees bagged CARTs on the encoded matrix.

    Each tree draws a bootstrap sample of n rows with replacement and grows
    with per-node feature subsets of size m; rows never drawn are the tree's
    out-of-bag set (Forest.out_of_bag). The result is identical for any
    worker count, so at most os.cpu_count() threads run.
    """
    if train.n_rows == 0:
        raise ValueError("cannot fit a forest on an empty training set")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    from . import _kernels

    presorted = _kernels.Presorted(train.X)
    y = np.ascontiguousarray(train.y, dtype=np.float64)
    n = train.n_rows

    def fit_batch(trees):
        rngs, boots = zip(*(_bootstrap(master_seed, b, n) for b in trees))
        return Nodes(**_kernels.build_trees(presorted, y, boots, m, max_depth, rngs))

    size = max(1, _BATCH_ROWS // n)
    groups = [range(start, min(start + size, n_trees)) for start in range(0, n_trees, size)]
    workers = min(workers, os.cpu_count() or 1)
    # One worker grows every batch in the calling thread: a one-thread pool
    # raised the peak RSS of the benchmark's seeds process (1,200-row,
    # 50-tree forests) from 63 to 73 MB, as glibc gives each thread a malloc
    # arena of its own.
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(fit_batch, groups))
    else:
        batches = list(map(fit_batch, groups))
    return Forest(
        nodes=Nodes.join(batches),
        n_trees=n_trees,
        m=m,
        max_depth=max_depth,
        master_seed=master_seed,
        columns=train.columns,
        train_sha256=train.sha256(),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"E2CFOR06"

# Node fields in file order with their types on disk, which are also their
# types once loaded: key for every node, improvement for split nodes only,
# then feature for every node. Widest first, so that each field starts
# aligned to its type when the payload does: numpy gathers from a
# misaligned view several times slower, and a descent gathers key and
# feature at every level.
_FILE_FIELDS = (("key", "<f8"), ("improvement", "<f8"), ("feature", "<i2"))


def _at_least(low: int):
    return lambda v: type(v) is int and v >= low


_CALIBRATION = sorted(f.name for f in fields(ModelParams))


# Each header key, which is also the Forest field it holds, and the test
# its value must pass. The calibration and holdout values must also be in
# their RunConfig ranges.
_HEADER = {
    "n_trees": _at_least(1),
    "m": _at_least(1),
    "max_depth": lambda v: v is None or _at_least(1)(v),
    "master_seed": _at_least(0),
    "columns": lambda v: type(v) is list and all(
        type(c) is list and len(c) == 2 and all(type(s) is str for s in c) for c in v
    ),
    "train_sha256": lambda v: type(v) is str and len(v) == 64,
    "calibration": lambda v: (type(v) is dict and sorted(v) == _CALIBRATION
                              and all(type(x) is float for x in v.values())),
    "holdout": lambda v: type(v) is list and len(v) == 2 and all(type(x) is float for x in v),
}


def save_forest(forest: Forest, path) -> None:
    """Write the forest to a binary file; identical forests give identical bytes.

    Layout: the magic "E2CFOR06" (the only version marker), a little-endian
    uint32 header length, a JSON header (sorted keys, no spaces) with the
    _HEADER keys, the calibration's and holdout's values written as floats,
    padded with spaces so that the payload starts on a multiple of 8 bytes,
    then the trees' node counts as <i8 and each of the _FILE_FIELDS
    concatenated over the trees in tree order: 10 bytes a node and 8 more a
    split node. Children are not stored: they follow from the breadth-first
    numbering. Neither are bootstrap or out-of-bag rows: they follow from
    master_seed and the training set (Forest.out_of_bag). A forest of more
    columns than an <i2 feature can number raises PipelineError.
    """
    if len(forest.columns) > 2**15 - 1:
        raise PipelineError(f"a forest file holds at most 32767 columns, got {len(forest.columns)}")
    header = {key: getattr(forest, key) for key in _HEADER}
    header["columns"] = [[c.name, c.kind] for c in forest.columns]
    header["calibration"] = {k: float(getattr(forest.calibration, k)) for k in _CALIBRATION}
    header["holdout"] = [float(frac) for frac in forest.holdout]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += b" " * (-(12 + len(blob)) % 8)
    sizes = forest.nodes.sizes.astype("<i8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + len(blob).to_bytes(4, "little") + blob + sizes.tobytes())
        for name, disk in _FILE_FIELDS:
            fh.write(getattr(forest.nodes, name).astype(disk).tobytes())


def load_forest(path) -> Forest:
    """Read a forest written by save_forest; round-trips bit-exactly, its
    node fields being read-only views of the file's bytes. Any other file,
    one of an earlier format included, raises InputFormatError. No header
    value sizes an allocation before the payload's length confirms it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] in [b"E2CFOR0%d" % version for version in range(1, 6)]:
        raise InputFormatError(f"{path}: {raw[:8].decode()} is an earlier forest format; retrain")
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
    firm_frac, date_frac = header["holdout"]
    try:
        RunConfig(**header["calibration"], firm_frac=firm_frac, date_frac=date_frac)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: forest header setting out of range: {exc}") from None
    n_trees, columns = header["n_trees"], header["columns"]
    payload = memoryview(raw)[12 + size :]
    if len(payload) < 8 * n_trees:
        raise InputFormatError(f"{path}: payload too short for {n_trees} node counts")
    sizes = np.frombuffer(payload, "<i8", count=n_trees)
    if np.any(sizes < 1):
        raise InputFormatError(f"{path}: a tree has no nodes")
    n = sum(sizes.tolist())
    # A tree of s splits has 2s + 1 nodes (_check_nodes holds every tree to
    # it), so the forest has (n - n_trees) / 2 split records.
    counts = (n, (n - n_trees) // 2, n)
    widths = [count * np.dtype(disk).itemsize for (_, disk), count in zip(_FILE_FIELDS, counts)]
    if len(payload) != 8 * n_trees + sum(widths):
        raise InputFormatError(f"{path}: payload is not {n_trees} trees of {n} nodes")
    stored, at = {}, 8 * n_trees
    for (name, disk), count, width in zip(_FILE_FIELDS, counts, widths):
        stored[name] = np.frombuffer(payload, disk, count, at)
        at += width
    nodes = Nodes(sizes=sizes, **stored)
    _check_nodes(path, nodes, len(columns))
    header["columns"] = tuple(FeatureColumn(name, kind) for name, kind in columns)
    header["calibration"] = ModelParams(**header["calibration"])
    header["holdout"] = (firm_frac, date_frac)
    return Forest(nodes=nodes, **{key: header[key] for key in _HEADER})


def _check_nodes(path, nodes: Nodes, p: int) -> None:
    # A tree of s splits has 2s + 1 nodes, and its k-th split node is at most
    # its node 2k, before its children 2k+1 and 2k+2: then every node but the
    # root is the child of exactly one earlier node, and every descent from
    # the root ends at a leaf. Every feature is one of the p columns or LEAF.
    if nodes.feature.min() < LEAF or nodes.feature.max() >= p:
        raise InputFormatError(f"{path}: a node tests a feature outside [-1, {p})")
    split = nodes.feature != LEAF
    if np.any(nodes.sizes != 2 * np.add.reduceat(split, nodes.roots, dtype=np.int64) + 1):
        raise InputFormatError(f"{path}: a tree's node count is not twice its splits plus one")
    if np.any(split & (nodes.left <= np.arange(nodes.n_nodes))):
        raise InputFormatError(f"{path}: a split node comes after its children")
