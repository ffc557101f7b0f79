"""The `seeds` workload: acceptance criterion 6's seed loop, at its size.

For each of K seeds, reads and prices the snapshot CSV (the panel is encoded
from the first pass only), then makes the library calls that
`train --seed s`, `evaluate` and `importance --seed s` make, without their
CSV re-reads:

    train       split_in_out, fit_forest (workers=1), in- and out-of-sample
                predict, save_forest
    evaluate    load_forest, predict, the overall metrics and the rating and
                sector bucket tables
    importance  load_forest, split_in_out, importance_report

A round is one seed. The K seeds run once, and their outputs are checked;
then they run again in turn while another round should end within
--seconds, and must repeat their outputs byte for byte. Prints one JSON
line: per-round times and operation counts, the bytes of the K forest files
and check failures.

    python3 perfbench/seedsloop.py --csv in.csv --seed 0 --seconds 10 --out-dir d
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
from workloads import SEEDS_PER_ROUND, next_round_fits
from e2credit.dataset import FeatureEncoder, drop_incomplete, rating_bucket, rating_code, split_in_out
from e2credit.forest import fit_forest, load_forest, save_forest
from e2credit.importance import importance_report
from e2credit.metrics import (
    PairedSeries,
    accuracy_metrics,
    avg_correlation,
    bucket_comparison,
    group_pairs,
    r_squared_arrays,
)
from e2credit.snapshots import build_records, read_snapshots
from e2credit.structural import ModelParams

# One worker thread, as `train --workers 1` on gappy: on a 2-core shared
# host a two-thread fit's time follows whether the second core is free of
# other tenants. Per-minute medians of one 1200-row forest fit ranged from
# 0.36 to 0.64 s with two workers and from 0.58 to 0.65 s with one. The
# traced run times the same fits with workers=2 (forest.fit_two_workers_s).
TREES, FEATURES_PER_SPLIT, MAX_DEPTH, WORKERS = 50, 15, 15, 1
# Fits, predicts and VI passes before timing starts: the first few calls pay
# one-off costs (about 0.3 s per fit against 0.2 s later).
WARM_UP_FITS = 3
# Timed steps per seed: a read-and-price pass, train, evaluate, importance.
STEPS = ("spread_s", "train_s", "evaluate_s", "importance_s")


def forest_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


class Loop:
    def __init__(self, csv: Path, seed: int, out_dir: Path, tracer=None):
        self.csv = csv
        self.seed = seed
        self.out_dir = out_dir
        self.params = ModelParams()
        self.tracer = tracer
        self.encoded = None  # the panel encoded from the first pricing pass
        self.span = tracer.span if tracer is not None else lambda name: nullcontext()

    def price(self):
        snaps = read_snapshots(self.csv)
        records, spreads = build_records(snaps, self.params)
        return snaps, records, spreads

    def encode(self, records, spreads):
        complete = drop_incomplete(records)
        matrix = FeatureEncoder.fit(complete).transform(complete)
        cg = np.array([spreads[(r.firm_id, r.date)].creditgrades_bps for r in complete])
        ratings = [rating_bucket(rating_code(r.merged_rating())) for r in complete]
        sectors = [r.sector for r in complete]
        return matrix, cg, ratings, sectors

    def train(self, matrix, s, path):
        split = split_in_out(matrix, checks.FIRM_FRAC, checks.DATE_FRAC, s)
        forest = fit_forest(split.in_sample, n_trees=TREES, m=FEATURES_PER_SPLIT,
                            max_depth=MAX_DEPTH, master_seed=s, workers=WORKERS)
        is_r2 = r_squared_arrays(split.in_sample.y, forest.predict(split.in_sample.X))
        oos_r2 = r_squared_arrays(split.out_of_sample.y,
                                  forest.predict(split.out_of_sample.X))
        save_forest(forest, path)
        return split, is_r2, oos_r2

    def evaluate(self, matrix, cg, ratings, sectors, path):
        forest = load_forest(path)
        models = {"e2c": matrix.X[:, 0], "creditgrades": cg,
                  "forest": forest.predict(matrix.X)}
        overall = []
        for name, values in models.items():
            series = PairedSeries(firm_ids=matrix.firm_ids, dates=matrix.dates,
                                  actual=matrix.y, predicted=values)
            overall.append({
                "model": name,
                "r2": r_squared_arrays(matrix.y, values),
                "acc": accuracy_metrics(series, trim_frac=0.10),
                "corr_by_firm": avg_correlation(group_pairs(series, "by_firm")),
                "corr_by_date": avg_correlation(group_pairs(series, "by_date")),
            })
        tables = [bucket_comparison(keys, matrix.firm_ids, matrix.dates, matrix.y,
                                    models, trim_frac=0.10)
                  for keys in (ratings, sectors)]
        return models, overall, tables

    def importance(self, matrix, s, path):
        forest = load_forest(path)
        split = split_in_out(matrix, checks.FIRM_FRAC, checks.DATE_FRAC, forest.master_seed)
        return importance_report(forest, split.in_sample, seed=s)

    def warm_up(self):
        _, records, spreads = self.price()
        matrix, cg, ratings, sectors = self.encode(records, spreads)
        s = forest_seed(self.seed, SEEDS_PER_ROUND)
        path = self.out_dir / "warm-up.e2cf"
        for _ in range(WARM_UP_FITS):
            self.train(matrix, s, path)
        self.evaluate(matrix, cg, ratings, sectors, path)
        self.importance(matrix, s, path)
        path.unlink()
        if self.tracer is not None:
            self.tracer.reset()

    def round(self, k: int, first: bool) -> dict:
        """Forest seed k: a read-and-price pass and the three commands'
        calls. Returns each step's time, counts, a digest of the forest and
        importances and, when first, the check inputs."""
        times = {}
        out = {"times": times, "attempted": len(STEPS), "failed": 0,
               "forest_bytes": 0, "digest": None, "checks": [], "win": False}
        s = forest_seed(self.seed, k)
        path = self.out_dir / f"forest-{k}.e2cf"
        try:
            with self.span("bench.spread"):
                start = time.perf_counter()
                snaps, records, spreads = self.price()
                times["spread_s"] = time.perf_counter() - start
            if self.encoded is None:
                self.encoded = self.encode(records, spreads)
                out["checks"] += checks.spread_checks(
                    _spread_rows(snaps, spreads), {(x.firm_id, x.date): "" for x in snaps})
            matrix, cg, ratings, sectors = self.encoded
            with self.span("bench.train"):
                start = time.perf_counter()
                split, is_r2, oos_r2 = self.train(matrix, s, path)
                times["train_s"] = time.perf_counter() - start
            with self.span("bench.evaluate"):
                start = time.perf_counter()
                models, overall, tables = self.evaluate(matrix, cg, ratings, sectors, path)
                times["evaluate_s"] = time.perf_counter() - start
            with self.span("bench.importance"):
                start = time.perf_counter()
                report = self.importance(matrix, s, path)
                times["importance_s"] = time.perf_counter() - start
        except Exception:  # counted as failed operations, reported below
            traceback.print_exc()
            out["failed"] = len(STEPS)
            return out
        blob = path.read_bytes()
        out["forest_bytes"] = len(blob)
        digest = hashlib.sha256(blob)
        for arr in (report.mdi, report.permutation_vi):
            digest.update(arr.tobytes())
        out["digest"] = digest.hexdigest()
        if first:
            out["checks"] += _seed_checks(matrix, split, is_r2, oos_r2, models, overall, report)
            out["win"] = checks.e2c_first(_importance_rows(report))
        return out


def _cell(value) -> str:
    """A value as the CLI's CSV writers would print it."""
    if value is None:
        return ""
    if isinstance(value, (str, bool)):
        return str(value)
    return repr(float(value))


def _spread_rows(snaps, spreads) -> list[dict]:
    rows = []
    for snap in snaps:
        spread = spreads[(snap.firm_id, snap.date)]
        row = {c: _cell(v) for c, v in snap.values.items()}
        row.update(firm_id=snap.firm_id, date=snap.date, reason=spread.reason,
                   e2c_bps=_cell(spread.e2c_bps), selected_vol=_cell(spread.selected_vol),
                   creditgrades_bps=_cell(spread.creditgrades_bps),
                   debt_per_share=_cell(spread.debt_per_share))
        rows.append(row)
    return rows


def _importance_rows(report) -> list[dict]:
    """The report as importance.csv lays it out."""
    return [{"feature": name, "mdi": _cell(mdi), "permutation_vi": _cell(vi)}
            for name, mdi, vi in zip(report.feature_names, report.mdi, report.permutation_vi)]


def _seed_checks(matrix, split, is_r2, oos_r2, models, overall, report) -> list:
    """The CLI checks, on the library calls' results laid out as the
    commands would write them."""
    n_in, n_out = split.in_sample.n_rows, split.out_of_sample.n_rows
    train_metrics = {
        "n_complete_rows": str(matrix.n_rows), "n_in_sample": str(n_in),
        "n_out_of_sample": str(n_out), "realized_oos_fraction": _cell(split.oos_fraction),
        "in_sample_r2": _cell(is_r2), "out_of_sample_r2": _cell(oos_r2),
    }
    removed = (set(split.removed_firms), set(split.removed_dates))
    timeseries = [
        {"firm_id": f, "date": d, "cds_5y_bps": _cell(y), "e2c_bps": _cell(e),
         "creditgrades_bps": _cell(c), "forest_bps": _cell(p)}
        for f, d, y, e, c, p in zip(matrix.firm_ids, matrix.dates, matrix.y,
                                    models["e2c"], models["creditgrades"], models["forest"])
    ]
    overall_rows = [{"model": row["model"], "r2": _cell(row["r2"])} for row in overall]
    keys = set(zip(matrix.firm_ids, matrix.dates))
    n_firms, n_dates = len({f for f, _ in keys}), len({d for _, d in keys})
    return [
        ("split_counts", checks.check_split, train_metrics, removed, keys),
        ("grid_counts", checks.check_grid, train_metrics, n_firms, n_dates),
        ("overall_r2", checks.check_overall_r2, overall_rows, timeseries),
        ("reloaded_r2", checks.check_reloaded_r2, train_metrics, timeseries, removed),
        ("mdi", checks.check_mdi, _importance_rows(report)),
    ]


def run(opts, tracer=None) -> dict:
    out_dir = Path(opts.out_dir)
    loop = Loop(Path(opts.csv), opts.seed, out_dir, tracer)
    loop.warm_up()
    rounds, failures, digests, wins, forest_bytes = [], [], [], 0, 0
    start = time.perf_counter()
    # The first K rounds are the criterion's K seeds and are checked; later
    # rounds cycle through the seeds again and must repeat their outputs.
    while len(rounds) < SEEDS_PER_ROUND or next_round_fits(start, len(rounds), opts.seconds):
        k = len(rounds) % SEEDS_PER_ROUND
        first = len(rounds) < SEEDS_PER_ROUND
        result = loop.round(k, first)
        if first:
            failures += checks.run_checks(result["checks"])
            digests.append(result["digest"])
            wins += result["win"]
            forest_bytes += result["forest_bytes"]
        elif result["digest"] != digests[k]:
            failures.append(f"repeat: forest seed {k}'s forest or importances differ")
        rounds.append({key: result[key] for key in ("times", "attempted", "failed")})
    failures += checks.run_checks([("e2c_first", checks.check_win_share, wins, SEEDS_PER_ROUND)])
    return {"rounds": rounds, "forest_bytes": forest_bytes, "failures": failures}


def main(argv=None, tracer=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    opts = parser.parse_args(argv)
    print(json.dumps(run(opts, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
