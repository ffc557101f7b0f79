"""Exact greedy CART kernel in numpy, grown level by level.

Trees grow one depth at a time: all open nodes of a level are scored in the
same handful of array operations, so the Python-level cost is paid per level
rather than per node. Several trees can grow in one batch, which makes those
operations larger still; their nodes never mix, so each tree is the same
whatever else its batch holds.

Split search is exact greedy CART. Every midpoint of a feature the node
drew, at a value boundary (between two consecutive distinct values of that
feature inside the node), is scored by the summed SSE of the two children;
within a feature the first minimum (lowest threshold) wins, and a later
feature must beat the incumbent by TIE_TOL times the node SSE. Each column
takes one of three routes, chosen from its own count V of distinct values
over the matrix's N rows:

* two values (every one-hot dummy): the columns are packed into blocks of
  columns that are never high on the same row, like the country dummies of
  one encoded panel. A block holds one code per row, 0 where no member is
  high and j + 1 where member j is; as members never share a high row,
  code j + 1 marks exactly the rows where member j is high. np.bincount
  over (node, code) gives each member's high count n_j and label sum s_j,
  and its only split sends every other row left: n - n_j rows summing to
  t - s_j, t being the node total. These are the count and sum of that
  very partition, so the scan stays exact, and a block of c columns costs
  two passes over the rows instead of 2c.
* few values (V >= 3, V * V <= N): np.bincount over (node, value), one
  column at a time and over the nodes that drew it, gives the counts and
  label sums, prefix-summed along the value axis inside each node. The bins
  are the distinct values themselves, so the scan stays exact.
* many values: each batch sorts its positions once per column, by tree,
  value and row. Every level keeps each node's rows in value order (a
  stable partition into the children), takes segmented prefix sums that
  restart at every node boundary over the nodes that drew the column, and
  scores the last position of each run of equal values only.

Labels are centred on their node mean before summing, and no sum runs across
nodes, so the SSEs of a deep node carry rounding error on the scale of that
node alone. Split choices depend only on the ranks of feature values, never
on their magnitudes, so a strictly increasing transform of a column grows
the same tree (up to the midpoint thresholds).
"""
from __future__ import annotations

import numpy as np

from .forest import LEAF

# Two features inducing the same row partition have identical SSE in exact
# arithmetic but differ by summation-order noise in floats; a candidate must
# beat the incumbent by this fraction of the node SSE, otherwise the earlier
# (lower feature index, lower threshold) winner stands, matching the exact
# tie-break.
TIE_TOL = 1e-10


class Presorted:
    """Per-matrix column index shared by every tree grown on one X.

    ranks[f, r] is the dense rank of X[r, f] among the column's distinct
    values, stored ascending in distinct[offset[f]:]. Every two-valued
    column belongs to one block: a column joins the first block none of
    whose members is high (rank 1) on a row where it is high, and otherwise
    opens a new one. A block stores one code per row, 0 where no member is
    high and j + 1 where member j is, so blocks[b] is (members, codes,
    thresholds), the thresholds being each member's midpoint. Columns with
    V >= 3 distinct values over N rows are listed in few_feats when
    V * V <= N (the bincount route) and in sorted_feats otherwise (the
    presorted route). A constant column (V == 1) has no split candidate and
    takes no route.
    """

    def __init__(self, X):
        self.X_T = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        self.p, self.N = p, N = self.X_T.shape
        order = np.argsort(self.X_T, axis=1, kind="stable")
        ordered = np.take_along_axis(self.X_T, order, axis=1)
        run_start = np.ones((p, N), dtype=bool)
        run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        sorted_rank = np.cumsum(run_start, axis=1) - 1
        self.ranks = np.empty((p, N), dtype=np.int64)
        np.put_along_axis(self.ranks, order, sorted_rank, axis=1)
        self.distinct = ordered[run_start]
        self.n_distinct = n_distinct = run_start.sum(axis=1)
        self.offset = np.cumsum(n_distinct) - n_distinct
        blocks = []
        for f in np.flatnonzero(n_distinct == 2).tolist():
            high = self.ranks[f] == 1
            members, codes = next((b for b in blocks if not high[b[1] > 0].any()),
                                  ([], np.zeros(N, dtype=np.int64)))
            if not members:
                blocks.append((members, codes))
            members.append(f)
            codes[high] = len(members)
        self.blocks = []
        for members, codes in blocks:
            members = np.array(members)
            lo = self.distinct[self.offset[members]]
            hi = self.distinct[self.offset[members] + 1]
            self.blocks.append((members, codes, (lo + hi) / 2.0))
        many = n_distinct >= 3
        few = many & (n_distinct * n_distinct <= N)
        self.few_feats = np.flatnonzero(few)
        self.sorted_feats = np.flatnonzero(many & ~few)


class _Batch:
    """The rows of the trees grown together, as positions 0..n-1 of their
    concatenated row lists (a row drawn twice is two positions), with the
    per-position column data the level scan reads."""

    def __init__(self, pre, y, samples):
        self.pre = pre
        self.sizes = sizes = np.array([rows.shape[0] for rows in samples], dtype=np.int64)
        self.rows = rows = np.concatenate(samples)
        self.n = rows.shape[0]
        self.y = y[rows]
        # np.take keeps gathered blocks C-contiguous; [:, idx] would not.
        self.block_codes = [codes[rows] for _, codes, _ in pre.blocks]
        self.few_ranks = np.take(pre.ranks[pre.few_feats], rows, axis=1)
        self.sorted_ranks = np.take(pre.ranks[pre.sorted_feats], rows, axis=1)
        # Positions by tree, then value, then row; a row drawn twice keeps
        # its draw order, as the sort is stable.
        tree = np.repeat(np.arange(sizes.shape[0]), sizes)
        key = (tree * pre.N + self.sorted_ranks) * pre.N + rows
        self.orders = np.argsort(key, axis=1, kind="stable")

    def root_layout(self):
        """Row layout of the root level (one node per tree): one row per
        presorted column, or the positions in index order when no column is
        presorted."""
        O = self.orders if self.orders.shape[0] else np.arange(self.n)[None, :]
        return O, self.sizes


def _split_sse(node_sq, p1, t1, nl, n):
    """Summed SSE of the two children of a split, from the node's sum of
    squared centred labels, the left prefix sum p1 of centred labels, their
    node total t1 and the left count nl; the mask marks candidates that
    leave both children non-empty."""
    nr = n - nl
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = node_sq - (p1 * p1 / nl + (t1 - p1) ** 2 / nr)
    return sse, (nl > 0) & (nr > 0)


def _segmented_cumsum(a, pos):
    """In-place inclusive prefix sums along the last axis that restart
    wherever pos == 0 (pos[i] is the offset of i inside its segment).

    Log-step doubling: every partial sum adds entries of its own segment
    only, so no segment sees the magnitude of another, and a segment's sums
    do not depend on what else the level holds.
    """
    shift = 1
    top = int(pos.max())
    while shift <= top:
        a[..., shift:] += np.where(pos[shift:] >= shift, a[..., :-shift], 0.0)
        shift *= 2


def _drawn(drew, counts):
    """The nodes that drew a feature (drew marks them): their indices, the
    mask of their rows among the node-grouped positions, their counts, and
    each kept row's node among them."""
    at = np.flatnonzero(drew)
    n = counts[at]
    return at, np.repeat(drew, counts), n, np.repeat(np.arange(at.shape[0]), n)


def _scan_level(batch, O, counts, mean, sel):
    """Best split of every node of one level.

    Each row of O lists the positions of every node contiguously, nodes in
    order with the given counts: row j in ascending order of presorted
    column j inside each node, or, with no presorted column, one row in any
    fixed order. O[0] serves as the node-grouped row list; row j is read
    only at the nodes that drew column j. mean is the node mean label and
    sel (nodes x p) marks each node's candidate features, each scored at
    the nodes that drew it only (no sum runs across nodes, so the other
    nodes' rows change nothing).
    Returns per node (feature, threshold, sse_after, node_sse); feature is
    LEAF where no candidate feature has two distinct values in the node.
    """
    pre = batch.pre
    K = counts.shape[0]
    starts = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(K), counts)
    act = O[0]
    yc_g = batch.y[act] - mean[seg]
    node_sse = np.add.reduceat(yc_g * yc_g, starts)
    cand_sse = np.full((pre.p, K), np.inf)
    cand_thr = np.zeros((pre.p, K))

    # Member j of a block splits "code j + 1 versus the rest": its left
    # child holds every row of the node but the n_j with code j + 1. A node
    # almost always drew some member, so every node of the level is counted.
    node_sum = np.add.reduceat(yc_g, starts)[:, None]
    for (cols, _, thr), codes in zip(pre.blocks, batch.block_codes):
        width = cols.shape[0] + 1
        key = np.take(codes, act) + seg * width
        n_j = np.bincount(key, minlength=K * width).reshape(K, width)[:, 1:]
        s_j = np.bincount(key, yc_g, K * width).reshape(K, width)[:, 1:]
        sse, ok = _split_sse(
            node_sse[:, None], node_sum - s_j, node_sum, counts[:, None] - n_j,
            counts[:, None],
        )
        cand_sse[cols] = np.where(ok & sel[:, cols], sse, np.inf).T
        cand_thr[cols] = thr[:, None]

    for f, ranks in zip(pre.few_feats.tolist(), batch.few_ranks):
        at, keep, n, node = _drawn(sel[:, f], counts)
        v = int(pre.n_distinct[f])
        key = np.take(ranks, act[keep]) + node * v
        cnt = np.bincount(key, minlength=at.shape[0] * v).reshape(-1, v)
        p1 = np.bincount(key, yc_g[keep], at.shape[0] * v).reshape(-1, v).cumsum(axis=1)
        sse, ok = _split_sse(node_sse[at, None], p1, p1[:, -1:], cnt.cumsum(axis=1),
                             n[:, None])
        sse = np.where(ok & (cnt > 0), sse, np.inf)
        k = np.argmin(sse, axis=1)
        k_next = np.argmax((cnt > 0) & (np.arange(v) > k[:, None]), axis=1)
        cand_sse[f, at] = sse[np.arange(at.shape[0]), k]
        values = pre.distinct[pre.offset[f]:]
        cand_thr[f, at] = (values[k] + values[k_next]) / 2.0

    yc = np.empty(batch.n)
    yc[act] = yc_g
    pos_g = np.arange(act.shape[0]) - starts[seg]
    for j, f in enumerate(pre.sorted_feats.tolist()):
        at, keep, n, node = _drawn(sel[:, f], counts)
        o, pos = O[j][keep], pos_g[keep]
        r = batch.sorted_ranks[j][o]
        # A split can only follow the last position of a run of equal
        # values that is not its node's last position.
        c = np.flatnonzero((r[:-1] < r[1:]) & (pos[1:] > 0))
        if not c.shape[0]:
            continue
        p1 = yc[o]
        _segmented_cumsum(p1, pos)
        node = node[c]
        t1 = p1[(np.cumsum(n) - 1)[node]]
        sse, _ = _split_sse(node_sse[at][node], p1[c], t1, pos[c] + 1.0, n[node])
        first = np.flatnonzero(np.diff(node, prepend=-1))
        best = np.minimum.reduceat(sse, first)
        # Within a node the first minimum (lowest threshold) wins.
        on_best = sse == np.repeat(best, np.diff(first, append=c.shape[0]))
        k = np.minimum.reduceat(np.where(on_best, c, o.shape[0]), first)
        values = pre.distinct[pre.offset[f]:]
        cand_sse[f, at[node[first]]] = best
        cand_thr[f, at[node[first]]] = (values[r[k]] + values[r[k + 1]]) / 2.0

    # Features in ascending order; a later one must beat the incumbent by
    # TIE_TOL times the node SSE.
    best_f = np.full(K, LEAF, dtype=np.int64)
    best_sse = np.full(K, np.inf)
    best_thr = np.zeros(K)
    tol = TIE_TOL * node_sse
    for f in range(pre.p):
        better = cand_sse[f] < best_sse - tol
        best_f[better] = f
        best_sse = np.where(better, cand_sse[f], best_sse)
        best_thr = np.where(better, cand_thr[f], best_thr)
    return best_f, best_thr, best_sse, node_sse


def _partition(batch, O, counts, split, feature, threshold):
    """Row layout of the next level: split node k's rows go to its children
    2k (value <= threshold) and 2k + 1. A stable sort by child keeps every
    row of O in its relative order, so the presorted columns stay sorted
    inside each child. Returns (O, counts)."""
    O = np.compress(np.repeat(split, counts), O, axis=1)
    counts = counts[split]
    seg = np.repeat(np.arange(counts.shape[0]), counts)
    act = O[0]
    goes_left = np.empty(batch.n, dtype=bool)
    goes_left[act] = (
        batch.pre.X_T[feature[split][seg], batch.rows[act]] <= threshold[split][seg]
    )
    child = 2 * seg + ~goes_left[O]
    O = np.take_along_axis(O, np.argsort(child, axis=1, kind="stable"), axis=1)
    return O, np.bincount(child[0], minlength=2 * counts.shape[0])


def _draw_subsets(rngs, node_tree, p, m):
    """Uniform m-of-p feature subsets for a level's nodes, ordered by tree:
    one Generator call per tree draws p uniform keys per node of that tree,
    and each node keeps the features holding its m smallest keys."""
    sel = np.zeros((node_tree.shape[0], p), dtype=bool)
    if m >= p:
        sel[:] = True
        return sel
    per_tree = np.bincount(node_tree, minlength=len(rngs))
    keys = np.concatenate(
        [rngs[t].random((k, p)) for t, k in enumerate(per_tree.tolist()) if k]
    )
    np.put_along_axis(sel, np.argpartition(keys, m - 1, axis=1)[:, :m], True, axis=1)
    return sel


# Per node: the tested feature (LEAF at a leaf) and the key, a split node's
# threshold or a leaf's mean label. Per split node: its SSE improvement.
_NODE_FIELDS = ("feature", "key", "improvement")


def build_trees(pre, y, samples, m, max_depth, rngs):
    """Grow one regression tree per (row sample, Generator) pair on the
    presorted matrix; returns each of _NODE_FIELDS concatenated over the
    trees in tree order, and "sizes", the node count of each tree.

    The trees grow together, level by level, but never interact: each
    node's sums run over its own rows only and each tree draws from its own
    Generator, so a tree comes out bit-identical whichever trees share its
    batch. Nodes are numbered breadth-first, root 0, so the children of a
    tree's k-th split node are its nodes 2k+1 (left) and 2k+2 (right). A
    node stays a leaf when it has fewer than two rows, constant labels, sits
    max_depth levels below the root, or no candidate feature has two
    distinct values. Per-node feature subsets are drawn level by level in
    node order. max_depth=None grows until no node can split.
    """
    samples = [np.asarray(rows, dtype=np.int64) for rows in samples]
    if not 1 <= m <= pre.p:
        raise ValueError(f"m must be in [1, {pre.p}], got {m}")
    if any(rows.shape[0] == 0 for rows in samples):
        raise ValueError("cannot grow a tree on an empty sample")
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    n_trees = len(samples)
    batch = _Batch(pre, y, samples)
    O, counts = batch.root_layout()
    tree = np.arange(n_trees)
    levels = []
    depth = 0
    while True:
        K = counts.shape[0]
        starts = np.cumsum(counts) - counts
        y_g = batch.y[O[0]]
        mean = np.add.reduceat(y_g, starts) / counts
        level = {
            "tree": tree,
            "feature": np.full(K, LEAF, dtype=np.int64),
            "key": mean,
            "improvement": np.zeros(K),
        }
        levels.append(level)
        if max_depth is not None and depth >= max_depth:
            break
        can_split = (counts >= 2) & (
            np.maximum.reduceat(y_g, starts) != np.minimum.reduceat(y_g, starts)
        )
        at = np.flatnonzero(can_split)
        if at.shape[0] == 0:
            break
        if at.shape[0] < K:
            O = np.compress(np.repeat(can_split, counts), O, axis=1)
            counts, mean = counts[at], mean[at]
        sel = _draw_subsets(rngs, tree[at], pre.p, m)
        feature, threshold, sse_after, node_sse = _scan_level(batch, O, counts, mean, sel)
        split = feature >= 0
        if not split.any():
            break
        at = at[split]
        level["feature"][at] = feature[split]
        level["key"][at] = threshold[split]
        level["improvement"][at] = np.maximum(node_sse - sse_after, 0.0)[split]
        O, counts = _partition(batch, O, counts, split, feature, threshold)
        # The next level holds the children of the split nodes, in order.
        tree = np.repeat(tree[at], 2)
        depth += 1
    node_tree = np.concatenate([level["tree"] for level in levels])
    by_tree = np.argsort(node_tree, kind="stable")
    nodes = {name: np.concatenate([level[name] for level in levels])[by_tree]
             for name in _NODE_FIELDS}
    nodes["improvement"] = nodes["improvement"][nodes["feature"] != LEAF]
    nodes["sizes"] = np.bincount(node_tree, minlength=n_trees)
    return nodes


def scan_best_split(X, y, row_indices, feats):
    """Best (feature, threshold, sse_after) over explicit features and rows,
    scored as a one-node level of the tree kernel; feature is -1 when no
    feature has two distinct values."""
    batch = _Batch(Presorted(X), y, [np.asarray(row_indices, dtype=np.int64)])
    O, counts = batch.root_layout()
    sel = np.zeros((1, batch.pre.p), dtype=bool)
    sel[0, np.asarray(feats, dtype=np.int64)] = True
    mean = np.array([batch.y.sum() / batch.n])
    f, thr, sse, _ = _scan_level(batch, O, counts, mean, sel)
    return int(f[0]), float(thr[0]), float(sse[0])
