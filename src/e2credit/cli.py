"""Command-line front end.

Subcommands: spread (augment a snapshot CSV with model spreads), train
(build the dataset, split, fit the forest), evaluate (comparison tables and
plot-ready files), importance (both feature-importance reports) and synth
(generate the synthetic validation panel).

Every output is a deterministic function of (inputs, config, seed); wall
clock only appears in the out-dir's manifest.txt. Exit codes: 0 success,
2 input format, 3 pipeline precondition, 4 forest/dataset compatibility.
"""
from __future__ import annotations

import argparse
import csv
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, save_config
from .dataset import (
    FeatureEncoder,
    FeatureMatrix,
    drop_incomplete,
    rating_bucket,
    split_in_out,
)
from .errors import CompatibilityError, InputFormatError, PipelineError
from .forest import Forest, fit_forest, load_forest, save_forest
from .importance import importance_report
from .metrics import (
    PairedSeries,
    avg_correlation,
    bucket_comparison,
    accuracy_metrics,
    group_pairs,
    r_squared_arrays,
)
from .snapshots import (
    build_records,
    read_snapshots,
    write_snapshot_csv,
    write_spread_csv,
)
from .synth import generate_snapshots

FOREST_FILENAME = "forest.e2cf"


def _cell(value) -> str:
    return "" if value is None else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_manifest(out_dir: Path, command: str, config: RunConfig, inputs: dict) -> None:
    lines = [
        "# e2credit run manifest",
        f"generated_at = {datetime.now(timezone.utc).isoformat()}",
        f"package_version = {__version__}",
        f"command = {command}",
    ]
    lines += [f"input_{k} = {v}" for k, v in inputs.items()]
    lines += [f"{name} = {value!r}" for name, value in config.items()]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_effective_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config = load_config(args.config)
    overrides = {
        name: getattr(args, name, None)
        for name in (
            "recovery",
            "debt_recovery",
            "debt_recovery_vol",
            "maturity",
            "trees",
            "features_per_split",
            "max_depth",
            "firm_frac",
            "date_frac",
            "seed",
            "workers",
        )
    }
    return config.with_overrides(**overrides)


def _prepare_out_dir(args) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _build_dataset(input_csv, config: RunConfig):
    """Snapshot CSV -> (complete records, matrix, per-row spreads)."""
    records, spreads = build_records(read_snapshots(input_csv), config.model_params())
    complete = drop_incomplete(records)
    if not len(complete):
        raise PipelineError("no complete records after dropping missing data")
    return complete, FeatureEncoder.fit(complete).transform(complete), spreads


def _check_columns(forest: Forest, matrix: FeatureMatrix) -> None:
    if forest.columns is None:
        return
    if forest.column_names() != matrix.column_names():
        raise CompatibilityError(
            "forest and dataset feature columns differ: "
            f"{forest.column_names()} vs {matrix.column_names()}"
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spread(args) -> int:
    config = _load_effective_config(args)
    out_dir = _prepare_out_dir(args)
    snaps = read_snapshots(args.input)
    _, spreads = build_records(snaps, config.model_params())
    write_spread_csv(snaps, spreads, out_dir / "spreads.csv")
    _write_manifest(out_dir, "spread", config, {"snapshots": args.input})
    print(f"spread: {np.count_nonzero(spreads.ok)}/{len(spreads)} rows priced "
          f"-> {out_dir / 'spreads.csv'}")
    return 0


def cmd_train(args) -> int:
    config = _load_effective_config(args)
    out_dir = _prepare_out_dir(args)
    _, matrix, _ = _build_dataset(args.input, config)
    split = split_in_out(matrix, config.firm_frac, config.date_frac, config.seed)
    if split.in_sample.n_rows == 0:
        raise PipelineError("in-sample set is empty after the firm/date split")
    if split.out_of_sample.n_rows == 0:
        raise PipelineError(
            "out-of-sample set is empty (fractions too small); "
            "evaluation would be meaningless"
        )
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
    _write_csv(
        out_dir / "split_manifest.csv",
        ["kind", "value"],
        [["removed_firm", f] for f in split.removed_firms]
        + [["removed_date", d] for d in split.removed_dates],
    )
    _write_csv(
        out_dir / "train_metrics.csv",
        ["metric", "value"],
        [
            ["n_complete_rows", matrix.n_rows],
            ["n_in_sample", split.in_sample.n_rows],
            ["n_out_of_sample", split.out_of_sample.n_rows],
            ["realized_oos_fraction", split.oos_fraction],
            ["in_sample_r2", is_r2],
            ["out_of_sample_r2", oos_r2],
        ],
    )
    save_config(config, out_dir / "run_config.txt")
    _write_manifest(out_dir, "train", config, {"snapshots": args.input})
    print(
        f"train: {split.in_sample.n_rows} in-sample rows, "
        f"{split.out_of_sample.n_rows} out-of-sample "
        f"({split.oos_fraction:.1%}); IS R2={is_r2:.4f} OoS R2={oos_r2:.4f}"
    )
    return 0


def cmd_evaluate(args) -> int:
    config = _load_effective_config(args)
    out_dir = _prepare_out_dir(args)
    forest = load_forest(args.forest)
    complete, matrix, spreads = _build_dataset(args.input, config)
    _check_columns(forest, matrix)
    models = {
        "e2c": matrix.X[:, 0],
        "creditgrades": spreads.creditgrades_bps[complete.index],
        "forest": forest.predict(matrix.X),
    }
    actual = matrix.y
    firm_ids, dates = matrix.firm_ids, matrix.dates

    overall_rows = []
    for name, values in models.items():
        series = PairedSeries(
            firm_ids=firm_ids, dates=dates, actual=actual, predicted=values
        )
        acc = accuracy_metrics(series, trim_frac=0.10)
        row = [
            name,
            r_squared_arrays(actual, values),
            acc["rmse"],
            acc["mape"],
            acc["mase"],
            avg_correlation(group_pairs(series, "by_firm")),
            avg_correlation(group_pairs(series, "by_date")),
        ]
        overall_rows.append(row)
    _write_csv(
        out_dir / "overall_metrics.csv",
        ["model", "r2", "rmse", "mape", "mase", "corr_by_firm", "corr_by_date"],
        overall_rows,
    )

    rating_keys = [rating_bucket(code) for code in complete.rating.tolist()]
    sector_keys = complete.sector
    for keys, filename in ((rating_keys, "by_rating.csv"), (sector_keys, "by_sector.csv")):
        table = bucket_comparison(keys, firm_ids, dates, actual, models, trim_frac=0.10)
        if table:
            header = list(table[0].keys())
            _write_csv(out_dir / filename, header, [[r[c] for c in header] for r in table])
        else:
            _write_csv(out_dir / filename, ["bucket", "obs"], [])

    ts_rows = sorted(
        zip(firm_ids, dates, actual, models["e2c"], models["creditgrades"], models["forest"]),
        key=lambda item: (item[0], item[1]),
    )
    _write_csv(
        out_dir / "timeseries.csv",
        ["firm_id", "date", "cds_5y_bps", "e2c_bps", "creditgrades_bps", "forest_bps"],
        [list(row) for row in ts_rows],
    )
    _write_manifest(
        out_dir, "evaluate", config,
        {
            "snapshots": args.input,
            "forest": args.forest,
            # Panel convention, not in the metric's usual time-series form.
            "mase_scaling": "per-firm lag-1 naive error, averaged over firms",
        },
    )
    print(f"evaluate: {matrix.n_rows} rows -> {out_dir}")
    return 0


def cmd_importance(args) -> int:
    config = _load_effective_config(args)
    out_dir = _prepare_out_dir(args)
    forest = load_forest(args.forest)
    _, matrix, _ = _build_dataset(args.input, config)
    _check_columns(forest, matrix)
    split = split_in_out(matrix, config.firm_frac, config.date_frac, forest.master_seed)
    train = split.in_sample
    if train.sha256() != forest.train_sha256:
        raise CompatibilityError(
            f"the rebuilt in-sample set ({train.n_rows} rows) is not the one the "
            f"forest was trained on ({forest.n_train_rows} rows); pass the same "
            "snapshot CSV and config used for training"
        )
    report = importance_report(forest, train, seed=config.seed)
    names = report.feature_names
    _write_csv(
        out_dir / "importance.csv",
        ["feature", "mdi", "permutation_vi"],
        [[names[i], report.mdi[i], report.permutation_vi[i]] for i in range(len(names))],
    )
    _write_csv(
        out_dir / "importance_mdi_ranked.csv",
        ["rank", "feature", "mdi"],
        [
            [rank + 1, names[i], report.mdi[i]]
            for rank, i in enumerate(report.mdi_ranking())
        ],
    )
    _write_csv(
        out_dir / "importance_vi_ranked.csv",
        ["rank", "feature", "permutation_vi"],
        [
            [rank + 1, names[i], report.permutation_vi[i]]
            for rank, i in enumerate(report.vi_ranking())
        ],
    )
    _write_manifest(
        out_dir, "importance", config,
        {"snapshots": args.input, "forest": args.forest},
    )
    top_mdi = names[report.mdi_ranking()[0]]
    top_vi = names[report.vi_ranking()[0]]
    print(f"importance: top feature by MDI = {top_mdi}, by permutation = {top_vi}")
    return 0


def cmd_synth(args) -> int:
    config = _load_effective_config(args)
    for flag, value, ok, rule in (
        ("--firms", args.firms, args.firms >= 1, ">= 1"),
        ("--dates", args.dates, args.dates >= 1, ">= 1"),
        ("--missing-rate", args.missing_rate, 0.0 <= args.missing_rate < 1.0, "in [0, 1)"),
        ("--bayes-r2", args.bayes_r2, 0.0 < args.bayes_r2 <= 1.0, "in (0, 1]"),
    ):
        if not ok:
            raise InputFormatError(f"{flag} must be {rule}, got {value}")
    out_dir = _prepare_out_dir(args)
    rows, meta = generate_snapshots(
        n_firms=args.firms,
        n_dates=args.dates,
        seed=config.seed,
        missing_rate=args.missing_rate,
        bayes_r2=args.bayes_r2,
        params=config.model_params(),
    )
    write_snapshot_csv(rows, out_dir / "snapshots.csv")
    _write_csv(
        out_dir / "synth_meta.csv",
        ["key", "value"],
        [[k, v] for k, v in meta.items()],
    )
    _write_manifest(out_dir, "synth", config, {})
    print(
        f"synth: {len(rows)} rows ({args.firms} firms x {args.dates} dates) "
        f"-> {out_dir / 'snapshots.csv'}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master seed (split, forest, permutation)")
    parser.add_argument("--workers", type=int, help="worker threads for forest training")
    parser.add_argument("--out-dir", default="out", help="output directory")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--recovery", type=float, help="asset recovery rate R")
    parser.add_argument("--debt-recovery", dest="debt_recovery", type=float,
                        help="average recovery on the debt")
    parser.add_argument("--debt-recovery-vol", dest="debt_recovery_vol", type=float,
                        help="std of the global recovery rate")
    parser.add_argument("--maturity", type=float, help="spread maturity in years")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2credit",
        description="Structural credit-spread approximations and their "
        "random-forest improvement pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spread", help="augment a snapshot CSV with model spreads")
    p.add_argument("input", help="firm-snapshot CSV")
    _add_common(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("train", help="build the dataset, split, train a forest")
    p.add_argument("input", help="firm-snapshot CSV with cds_5y_bps labels")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--trees", type=int, help="number of bagged trees")
    p.add_argument("--features-per-split", dest="features_per_split", type=int,
                   help="features drawn at each node")
    p.add_argument("--max-depth", dest="max_depth", type=int, help="tree depth cap")
    p.add_argument("--firm-frac", dest="firm_frac", type=float,
                   help="fraction of firms held out")
    p.add_argument("--date-frac", dest="date_frac", type=float,
                   help="fraction of dates held out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="comparison tables for a trained forest")
    p.add_argument("forest", help="forest file written by train")
    p.add_argument("input", help="firm-snapshot CSV to evaluate on")
    _add_common(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="MDI and permutation feature importance")
    p.add_argument("forest", help="forest file written by train")
    p.add_argument("input", help="the snapshot CSV used for training")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--firm-frac", dest="firm_frac", type=float,
                   help="fraction of firms held out at training time")
    p.add_argument("--date-frac", dest="date_frac", type=float,
                   help="fraction of dates held out at training time")
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("synth", help="generate the synthetic validation panel")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--firms", type=int, default=300, help="number of firms")
    p.add_argument("--dates", type=int, default=150, help="number of weekly dates")
    p.add_argument("--missing-rate", type=float, default=0.0,
                   help="fraction of rows with blanked ratings")
    p.add_argument("--bayes-r2", dest="bayes_r2", type=float, default=0.90,
                   help="best achievable R2 on the labels (1.0 = noiseless)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
