import json

import numpy as np
import pytest

from e2credit.dataset import FeatureMatrix


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

    Draws the permutations through the module's _permutation hook in the
    same order as the program, and warns about skipped trees the same way.
    Returns the VI vector.
    """
    import warnings

    import e2credit.importance as importance_mod
    from e2credit.metrics import r_squared_arrays

    p = train.n_features
    acc = np.zeros(p, dtype=np.float64)
    used = 0
    for b, tree in enumerate(forest.trees):
        oob = forest.oob_indices[b]
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
        perms = [importance_mod._permutation(rng, oob.size) for _ in range(p)]
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


def edit_header(path, edit):
    """Replace the header of the forest file at path with edit(header)."""
    raw = path.read_bytes()
    size = int.from_bytes(raw[8:12], "little")
    blob = json.dumps(edit(json.loads(raw[12 : 12 + size]))).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + size :])
