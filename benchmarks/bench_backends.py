#!/usr/bin/env python3
"""Benchmark the tree-growing and prediction kernels.

Grows bagged trees on synthetic regression data through fit_forest and
reports wall time, milliseconds per tree and nodes per tree, then times
Forest.predict on the training rows (milliseconds per 1k rows) and OOB
permutation importance (milliseconds per forest) on that forest, each the
median of REPEATS calls. Optionally (--pipeline) also times the `train`
command end to end in a subprocess. Forests grow with two worker threads,
the setting acceptance criterion 6 uses; predict and importance run on one.

Usage:
    python benchmarks/bench_backends.py [--rows 4000] [--trees 10] [--pipeline]
"""
from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from e2credit.dataset import FeatureMatrix
from e2credit.forest import fit_forest
from e2credit.importance import permutation_importance

WORKERS = 2
REPEATS = 5


def make_data(rows: int, features: int, seed: int = 0) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, features))
    y = (
        2.5 * X[:, 0]
        + np.sin(X[:, 1])
        + 0.5 * X[:, 2] * X[:, 0]
        + 0.3 * rng.normal(size=rows)
    )
    return FeatureMatrix.from_arrays(X, y)


def bench_kernel(args) -> None:
    matrix = make_data(args.rows, args.features)
    print(
        f"kernel benchmark: {args.rows} rows x {args.features} features, "
        f"{args.trees} trees, m={args.m}, depth={args.depth}, workers={WORKERS}"
    )
    start = time.perf_counter()
    forest = fit_forest(matrix, n_trees=args.trees, m=args.m, max_depth=args.depth,
                        master_seed=0, workers=WORKERS)
    elapsed = time.perf_counter() - start
    nodes = np.mean([tree.n_nodes for tree in forest.trees])
    print(
        f"  {elapsed:8.3f} s, {1000 * elapsed / args.trees:8.2f} ms/tree, "
        f"{nodes:.0f} nodes/tree"
    )
    predict_ms = _median_ms(lambda: forest.predict(matrix.X))
    print(f"  predict: {1000 * predict_ms / args.rows:8.2f} ms per 1k rows")
    vi_ms = _median_ms(lambda: permutation_importance(forest, matrix, seed=0))
    print(f"  permutation importance: {vi_ms:8.1f} ms per forest")


def _median_ms(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1000 * float(np.median(times))


def bench_pipeline(args) -> None:
    print("\nfull-pipeline benchmark (train command in a subprocess)")
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        synth_dir = tmp_path / "synth"
        subprocess.run(
            [sys.executable, "-m", "e2credit.cli", "synth", "--firms", "60",
             "--dates", "40", "--seed", "0", "--out-dir", str(synth_dir)],
            check=True, capture_output=True,
        )
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "e2credit.cli", "train",
             str(synth_dir / "snapshots.csv"), "--seed", "0",
             "--workers", str(WORKERS), "--out-dir", str(tmp_path / "train")],
            check=True, capture_output=True,
        )
        elapsed = time.perf_counter() - start
        print(f"  train: {elapsed:8.2f} s (includes interpreter start)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--features", type=int, default=20)
    parser.add_argument("--trees", type=int, default=10)
    parser.add_argument("--m", type=int, default=15)
    parser.add_argument("--depth", type=int, default=15)
    parser.add_argument("--pipeline", action="store_true",
                        help="also benchmark the train command end to end")
    args = parser.parse_args()
    bench_kernel(args)
    if args.pipeline:
        bench_pipeline(args)


if __name__ == "__main__":
    main()
