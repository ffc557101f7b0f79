"""Command-line front end.

Subcommands: spread (augment a snapshot CSV with model spreads), train
(build the dataset, split, fit the forest), evaluate (comparison tables and
plot-ready files), importance (both feature-importance reports) and synth
(generate the synthetic validation panel).

Every output is a deterministic function of (inputs, config, seed); wall
clock and the process's memory use only appear in the out-dir's
manifest.txt. Exit codes: 0 success, 2 input format, 3 pipeline
precondition, 4 forest/dataset compatibility.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import fields
from datetime import datetime, timezone
from inspect import signature
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, save_config
from .dataset import FeatureEncoder, drop_incomplete, rating_bucket, split_in_out
from .errors import CompatibilityError, InputFormatError, PipelineError
from .forest import fit_forest, load_forest, save_forest
from .importance import importance_report
from .metrics import bucket_comparison, overall_comparison, r_squared_arrays
from .snapshots import (
    build_records,
    read_snapshots,
    write_csv,
    write_snapshot_csv,
    write_spread_csv,
)
from .structural import ModelParams
from .synth import generate_snapshots

try:  # Unix only; the manifest then leaves out the memory figures
    import resource
except ImportError:
    resource = None

FOREST_FILENAME = "forest.e2cf"

# glibc's malloc parameters (the M_* number in <malloc.h>, value), set at
# the top of main. glibc raises its mmap and trim thresholds only after the
# process frees a large mmapped block; a mid-sized run whose CSV read frees
# none returns the fit's few-MB temporaries to the kernel at every tree
# level and faults them in again. Both thresholds are fixed, since setting
# either one switches that adjustment off for both, and one arena stops each
# --workers thread from keeping a heap of its own.
_MMAP_THRESHOLD = (-3, 32 << 20)
_TRIM_THRESHOLD = (-1, 64 << 20)
_ARENA_MAX = (-8, 1)

# The RunConfig fields each command takes as flags (--name-with-dashes).
# spread prices without drawing, so it takes no seed.
_MODEL = tuple(f.name for f in fields(ModelParams))
_COMMON = ("seed", *_MODEL)
_CONFIG_FLAGS = {
    "spread": _MODEL,
    "train": tuple(f.name for f in fields(RunConfig)),
    "evaluate": _COMMON,
    "importance": (*_COMMON, "firm_frac", "date_frac"),
    "synth": _COMMON,
}
# synth's flag defaults are generate_snapshots's. As with the trees bound,
# 200 times the default panel's rows is a typo, not a run: generating that
# many allocates gigabytes.
_SYNTH = {name: p.default for name, p in signature(generate_snapshots).parameters.items()}
_MAX_SYNTH_ROWS = 200 * _SYNTH["n_firms"] * _SYNTH["n_dates"]


def _set_malloc_policy() -> None:
    """Apply the parameters above where the C library has glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library by that handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in (_MMAP_THRESHOLD, _TRIM_THRESHOLD, _ARENA_MAX):
        mallopt(param, value)


def _memory_used() -> list[str]:
    """This process's peak RSS and minor page faults so far, as manifest lines."""
    if resource is None:
        return []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in kB on Linux and in bytes on macOS.
    kib = usage.ru_maxrss / (1024 if sys.platform == "darwin" else 1)
    return [f"max_rss_mb = {kib / 1024:.1f}", f"minor_page_faults = {usage.ru_minflt}"]


def _write_manifest(out_dir: Path, args, config: RunConfig) -> None:
    inputs = {"snapshots": getattr(args, "input", None), "forest": getattr(args, "forest", None)}
    if args.command == "evaluate":
        # Panel convention, not in the metric's usual time-series form.
        inputs["mase_scaling"] = "per-firm lag-1 naive error, averaged over firms"
    lines = [
        "# e2credit run manifest",
        f"generated_at = {datetime.now(timezone.utc).isoformat()}",
        *_memory_used(),
        f"package_version = {__version__}",
        f"command = {args.command}",
    ]
    lines += [f"input_{k} = {v}" for k, v in inputs.items() if v is not None]
    lines += [f"{name} = {value!r}" for name, value in config.items()]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_synth_flags(args) -> None:
    for flag, value, ok, rule in (
        ("--firms", args.firms, args.firms >= 1, ">= 1"),
        ("--dates", args.dates, args.dates >= 1, ">= 1"),
        ("--firms x --dates", args.firms * args.dates,
         args.firms * args.dates <= _MAX_SYNTH_ROWS, f"<= {_MAX_SYNTH_ROWS:,}"),
        ("--missing-rate", args.missing_rate, 0.0 <= args.missing_rate < 1.0, "in [0, 1)"),
        ("--bayes-r2", args.bayes_r2, 0.0 < args.bayes_r2 <= 1.0, "in (0, 1]"),
    ):
        if not ok:
            raise InputFormatError(f"{flag} must be {rule}, got {value}")


def _build_dataset(input_csv, config: RunConfig):
    """Snapshot CSV -> (complete records, matrix, per-row spreads)."""
    records, spreads = build_records(read_snapshots(input_csv), config)
    complete = drop_incomplete(records)
    if not len(complete):
        raise PipelineError("no complete records after dropping missing data")
    return complete, FeatureEncoder.fit(complete).transform(complete), spreads


def _forest_and_dataset(args, config: RunConfig):
    """The forest file and the dataset of the CSV, which must have the
    forest's feature columns."""
    forest = load_forest(args.forest)
    complete, matrix, spreads = _build_dataset(args.input, config)
    if forest.column_names() != matrix.column_names():
        raise CompatibilityError(
            "forest and dataset feature columns differ: "
            f"{forest.column_names()} vs {matrix.column_names()}"
        )
    return forest, complete, matrix, spreads


def _write_table(path: Path, rows: list[dict], header=("bucket", "obs")) -> None:
    """Rows that share their keys as a CSV; header names an empty table's columns."""
    write_csv(path, {c: [row[c] for row in rows] for c in (rows[0] if rows else header)})


# ---------------------------------------------------------------------------
# Subcommands: each writes its outputs into out_dir; main() resolves the
# config, makes out_dir and writes the manifest.
# ---------------------------------------------------------------------------


def cmd_spread(args, config: RunConfig, out_dir: Path) -> None:
    _, spreads = build_records(read_snapshots(args.input), config)
    spreads.creditgrades_bps  # priced here, so the writer only formats
    write_spread_csv(spreads, out_dir / "spreads.csv")
    print(f"spread: {np.count_nonzero(spreads.ok)}/{len(spreads)} rows priced "
          f"-> {out_dir / 'spreads.csv'}")


def cmd_train(args, config: RunConfig, out_dir: Path) -> None:
    _, matrix, _ = _build_dataset(args.input, config)
    split = split_in_out(matrix, config.firm_frac, config.date_frac, config.seed)
    if split.in_sample.n_rows == 0:
        raise PipelineError("in-sample set is empty after the firm/date split")
    if split.out_of_sample.n_rows == 0:
        raise PipelineError(
            "out-of-sample set is empty (fractions too small); "
            "evaluation would be meaningless"
        )
    for name, part in (("in-sample", split.in_sample), ("out-of-sample", split.out_of_sample)):
        if np.ptp(part.y) == 0:
            raise PipelineError(f"{name} labels do not vary (rows: {part.n_rows}); R^2 undefined")
    p = matrix.n_features
    if config.features_per_split > p:
        raise PipelineError(
            f"features_per_split={config.features_per_split} exceeds "
            f"the {p} encoded features"
        )
    forest = fit_forest(
        split.in_sample,
        n_trees=config.trees,
        m=config.features_per_split,
        max_depth=config.max_depth,
        master_seed=config.seed,
        workers=config.workers,
    )
    is_r2 = r_squared_arrays(split.in_sample.y, forest.predict(split.in_sample.X))
    oos_r2 = r_squared_arrays(
        split.out_of_sample.y, forest.predict(split.out_of_sample.X)
    )
    save_forest(forest, out_dir / FOREST_FILENAME)
    removed = {"removed_firm": split.removed_firms, "removed_date": split.removed_dates}
    write_csv(out_dir / "split_manifest.csv", {
        "kind": [kind for kind, keys in removed.items() for _ in keys],
        "value": [key for keys in removed.values() for key in keys],
    })
    metrics = {
        "n_complete_rows": matrix.n_rows,
        "n_in_sample": split.in_sample.n_rows,
        "n_out_of_sample": split.out_of_sample.n_rows,
        "realized_oos_fraction": split.oos_fraction,
        "in_sample_r2": is_r2,
        "out_of_sample_r2": oos_r2,
    }
    write_csv(out_dir / "train_metrics.csv",
              {"metric": list(metrics), "value": list(metrics.values())})
    save_config(config, out_dir / "run_config.txt")
    print(
        f"train: {split.in_sample.n_rows} in-sample rows, "
        f"{split.out_of_sample.n_rows} out-of-sample "
        f"({split.oos_fraction:.1%}); IS R2={is_r2:.4f} OoS R2={oos_r2:.4f}"
    )


def cmd_evaluate(args, config: RunConfig, out_dir: Path) -> None:
    forest, complete, matrix, spreads = _forest_and_dataset(args, config)
    if np.ptp(matrix.y) == 0:
        raise PipelineError(f"labels do not vary (rows: {matrix.n_rows}); R^2 undefined")
    models = {
        "e2c": matrix.X[:, 0],
        "creditgrades": spreads.creditgrades_bps[complete.index],
        "forest": forest.predict(matrix.X),
    }
    actual = matrix.y
    firm_ids, dates = matrix.firm_ids, matrix.dates

    overall = overall_comparison(firm_ids, dates, actual, models)
    _write_table(out_dir / "overall_metrics.csv", overall)

    rating_keys = [rating_bucket(code) for code in complete.rating.tolist()]
    for keys, filename in ((rating_keys, "by_rating.csv"), (complete.sector, "by_sector.csv")):
        table = bucket_comparison(keys, firm_ids, dates, actual, models)
        _write_table(out_dir / filename, table)

    # Rows by (firm, date); a key appears once, so the row number never decides.
    firm_col, date_col, order = zip(*sorted(zip(firm_ids, dates, range(matrix.n_rows))))
    order = list(order)
    write_csv(out_dir / "timeseries.csv", {
        "firm_id": firm_col, "date": date_col, "cds_5y_bps": actual[order],
        **{f"{name}_bps": values[order] for name, values in models.items()},
    })
    print(f"evaluate: {matrix.n_rows} rows -> {out_dir}")


def cmd_importance(args, config: RunConfig, out_dir: Path) -> None:
    forest, _, matrix, _ = _forest_and_dataset(args, config)
    split = split_in_out(matrix, config.firm_frac, config.date_frac, forest.master_seed)
    report = importance_report(forest, split.in_sample, seed=config.seed)
    names = report.feature_names
    scores = {"mdi": report.mdi, "permutation_vi": report.permutation_vi}
    # Every feature in column order with both scores, then each ranking.
    for filename, ranking, measures in (
        ("importance.csv", None, scores),
        ("importance_mdi_ranked.csv", report.mdi_ranking(), ("mdi",)),
        ("importance_vi_ranked.csv", report.vi_ranking(), ("permutation_vi",)),
    ):
        rows = list(range(len(names)) if ranking is None else ranking)
        ranks = {} if ranking is None else {"rank": range(1, len(rows) + 1)}
        write_csv(out_dir / filename, {**ranks, "feature": [names[i] for i in rows],
                                       **{m: scores[m][rows] for m in measures}})
    top_mdi = names[report.mdi_ranking()[0]]
    top_vi = names[report.vi_ranking()[0]]
    print(f"importance: top feature by MDI = {top_mdi}, by permutation = {top_vi}")


def cmd_synth(args, config: RunConfig, out_dir: Path) -> None:
    rows, meta = generate_snapshots(
        n_firms=args.firms,
        n_dates=args.dates,
        seed=config.seed,
        missing_rate=args.missing_rate,
        bayes_r2=args.bayes_r2,
        params=config,
    )
    write_snapshot_csv(rows, out_dir / "snapshots.csv")
    write_csv(out_dir / "synth_meta.csv", {"key": list(meta), "value": list(meta.values())})
    print(
        f"synth: {len(rows)} rows ({args.firms} firms x {args.dates} dates) "
        f"-> {out_dir / 'snapshots.csv'}"
    )


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2credit",
        description="Structural credit-spread approximations and their "
        "random-forest improvement pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    forest = ("forest", "forest file written by train")
    for command, help_text, positionals in (
        ("spread", "augment a snapshot CSV with model spreads",
         [("input", "firm-snapshot CSV")]),
        ("train", "build the dataset, split, train a forest",
         [("input", "firm-snapshot CSV with cds_5y_bps labels")]),
        ("evaluate", "comparison tables for a trained forest",
         [forest, ("input", "firm-snapshot CSV to evaluate on")]),
        ("importance", "MDI and permutation feature importance",
         [forest, ("input", "the snapshot CSV used for training")]),
        ("synth", "generate the synthetic validation panel", []),
    ):
        p = sub.add_parser(command, help=help_text)
        for name, text in positionals:
            p.add_argument(name, help=text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out-dir", default="out", help="output directory")
        for f in fields(RunConfig):
            if f.name in _CONFIG_FLAGS[command]:
                p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                               help=f.metadata["help"])

    p = sub.choices["synth"]
    p.add_argument("--firms", type=int, default=_SYNTH["n_firms"], help="number of firms")
    p.add_argument("--dates", type=int, default=_SYNTH["n_dates"], help="number of weekly dates")
    p.add_argument("--missing-rate", type=float, default=_SYNTH["missing_rate"],
                   help="fraction of rows with blanked ratings")
    p.add_argument("--bayes-r2", type=float, default=_SYNTH["bayes_r2"],
                   help="best achievable R2 on the labels (1.0 = noiseless)")
    return parser


def main(argv=None) -> int:
    _set_malloc_policy()
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = config.with_overrides(
            **{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
        if args.command == "synth":
            _check_synth_flags(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Looked up at call time, so a wrapper set on the module is the one run.
        globals()[f"cmd_{args.command}"](args, config, out_dir)
        _write_manifest(out_dir, args, config)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ValueError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
