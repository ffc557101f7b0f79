import csv
import ctypes
import hashlib
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from e2credit import cli
from e2credit import snapshots as snapshots_mod
from e2credit.cli import build_parser, main
from e2credit.config import RunConfig, save_config
from e2credit.forest import load_forest
from e2credit.snapshots import SNAPSHOT_COLUMNS, read_snapshots

import test_golden_digests
from conftest import edit_header


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--firms", "30", "--dates", "20", "--seed", "3",
                 "--out-dir", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = main([
        "train", str(synth_dir / "snapshots.csv"),
        "--seed", "3", "--trees", "10", "--features-per-split", "8",
        "--max-depth", "8", "--workers", "2", "--out-dir", str(out),
    ])
    assert code == 0
    return out


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "snapshots.csv").exists()
        assert (synth_dir / "synth_meta.csv").exists()
        assert (synth_dir / "manifest.txt").exists()
        header = (synth_dir / "snapshots.csv").read_text().splitlines()[0]
        assert header == ",".join(SNAPSHOT_COLUMNS)

    @pytest.mark.parametrize("flag, value, rule", [
        ("--firms", "0", ">= 1"),
        ("--dates", "-1", ">= 1"),
        ("--missing-rate", "1", "in [0, 1)"),
        ("--bayes-r2", "0", "in (0, 1]"),
        ("--bayes-r2", "nan", "in (0, 1]"),
    ])
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, flag, value, rule):
        code = main(["synth", "--firms", "3", "--dates", "2", flag, value,
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {flag} must be {rule}")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sizes, rows", [
        (["--firms", "3000000"], 450_000_000),  # the default 150 dates
        (["--firms", "100000", "--dates", "100000"], 10_000_000_000),
    ])
    def test_panel_too_large_exit_2(self, tmp_path, capsys, monkeypatch, sizes, rows):
        # Far above the 9,000,000-row bound, and refused before anything is
        # generated: a panel near the bound allocates gigabytes.
        monkeypatch.setattr(cli, "generate_snapshots", None)
        code = main(["synth", *sizes, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"input error: --firms x --dates must be <= 9,000,000, got {rows}\n"
        assert not (tmp_path / "o").exists()

    def test_one_row_panel_leaves_realized_r2_blank(self, tmp_path, capsys):
        # One row: the labels have no variance, so the realized Bayes R^2 is
        # undefined.
        out = tmp_path / "o"
        code = main(["synth", "--firms", "1", "--dates", "1", "--out-dir", str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        meta = {row["key"]: row["value"] for row in read_table(out / "synth_meta.csv")}
        assert meta["bayes_r2_realized"] == ""
        assert len(read_table(out / "snapshots.csv")) == 1


class TestSpreadCommand:
    def test_augments_rows(self, synth_dir, tmp_path):
        out = tmp_path / "spread"
        code = main(["spread", str(synth_dir / "snapshots.csv"),
                     "--out-dir", str(out)])
        assert code == 0
        rows = read_table(out / "spreads.csv")
        assert len(rows) == 30 * 20
        assert all(r["reason"] == "" for r in rows)
        assert all(float(r["e2c_bps"]) > 0 for r in rows)

    def test_prices_creditgrades_before_writing(self, synth_dir, tmp_path, monkeypatch):
        # One pricing call, made before the writer starts, so the writer
        # only formats.
        events = []
        pricing, writer = snapshots_mod.creditgrades_spread, cli.write_spread_csv
        monkeypatch.setattr(snapshots_mod, "creditgrades_spread",
                            lambda *args: events.append("price") or pricing(*args))
        monkeypatch.setattr(cli, "write_spread_csv",
                            lambda *args: events.append("write") or writer(*args))
        assert main(["spread", str(synth_dir / "snapshots.csv"),
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert events == ["price", "write"]

    def test_text_with_line_breaks_reads_back_from_spreads(self, synth_dir, tmp_path):
        # Quoted input cells holding CR, LF, commas and quotes pass the
        # reader; spreads.csv must quote them so that its rows read back.
        with open(synth_dir / "snapshots.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        at = {c: rows[0].index(c) for c in ("firm_id", "sector", "country")}
        for row in rows[1:]:
            row[at["firm_id"]] = row[at["firm_id"]][:2] + "\r" + row[at["firm_id"]][2:]
            row[at["sector"]] = 'a,"b"\nc'
            row[at["country"]] = "p\rq"
        odd = tmp_path / "odd.csv"
        with open(odd, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
        out = tmp_path / "spread"
        assert main(["spread", str(odd), "--out-dir", str(out)]) == 0
        before, after = read_snapshots(odd), read_snapshots(out / "spreads.csv")
        assert after.firm_id == before.firm_id and after.date == before.date
        assert len(set(after.firm_id)) == 30 and after.firm_id[0] == "F0\r000"
        for col in ("sector", "country"):
            assert after.columns[col] == before.columns[col]

    def test_missing_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        cols = [c for c in SNAPSHOT_COLUMNS if c != "cds_5y_bps"]
        bad.write_text(",".join(cols) + "\n")
        code = main(["spread", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "cds_5y_bps" in capsys.readouterr().err

    def test_empty_file_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        code = main(["spread", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {empty}: empty file, header row required\n"
        )

    def test_seed_flag_rejected(self, tmp_path, capsys):
        # spread prices without drawing, so it takes no --seed.
        with pytest.raises(SystemExit) as exc:
            main(["spread", "in.csv", "--seed", "5", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_with_seed_loads(self, synth_dir, tmp_path):
        # A run_config.txt written by train holds seed; spread still takes it.
        save_config(RunConfig(seed=5), tmp_path / "run.cfg")
        for out, extra in (("plain", []), ("config", ["--config", str(tmp_path / "run.cfg")])):
            assert main(["spread", str(synth_dir / "snapshots.csv"), *extra,
                         "--out-dir", str(tmp_path / out)]) == 0
        assert ((tmp_path / "plain" / "spreads.csv").read_bytes()
                == (tmp_path / "config" / "spreads.csv").read_bytes())

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["spread", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_row_reason_on_bad_inputs(self, synth_dir, tmp_path):
        src = (synth_dir / "snapshots.csv").read_text().splitlines()
        header = src[0].split(",")
        row = src[1].split(",")
        row[header.index("stock_price")] = ""
        row[header.index("firm_id")] = "BROKEN"
        bad = tmp_path / "one_bad.csv"
        bad.write_text("\n".join([src[0], ",".join(row)] + src[2:]) + "\n")
        out = tmp_path / "spread"
        assert main(["spread", str(bad), "--out-dir", str(out)]) == 0
        rows = read_table(out / "spreads.csv")
        broken = [r for r in rows if r["firm_id"] == "BROKEN"]
        assert broken and "stock_price" in broken[0]["reason"]
        assert broken[0]["e2c_bps"] == ""


class TestMalformedInput:
    @pytest.mark.parametrize("column", ["ig_cdx_bps", "cds_5y_bps"])
    @pytest.mark.parametrize("command", ["spread", "train", "evaluate", "importance"])
    def test_negative_observed_spread_exit_2(
        self, synth_dir, trained_dir, tmp_path, capsys, command, column
    ):
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = "-1"
        lines[3] = ",".join(row)
        bad = tmp_path / "negative.csv"
        bad.write_text("\n".join(lines) + "\n")
        forest = [str(trained_dir / "forest.e2cf")] if command in ("evaluate", "importance") else []
        code = main([command, *forest, str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:4" in err and column in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_below_one_exit_2(self, synth_dir, tmp_path, capsys, workers):
        code = main(["train", str(synth_dir / "snapshots.csv"), "--trees", "2",
                     "--workers", workers, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_workers_config_below_one_exit_2(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("trees = 2\nworkers = 0\n")
        code = main(["train", str(synth_dir / "snapshots.csv"), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"{config}:2: workers must be >= 1" in capsys.readouterr().err

    def test_config_not_utf8_exit_2(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"trees = 2\n\xff\n")
        code = main(["train", str(synth_dir / "snapshots.csv"), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {config}: not UTF-8 text")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["spread", "train"])
    def test_snapshots_not_utf8_exit_2(self, synth_dir, tmp_path, capsys, command):
        raw = (synth_dir / "snapshots.csv").read_bytes()
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(raw.replace(b"F0003", b"F\xff003", 1))
        code = main([command, str(bad), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {bad}: not UTF-8 text")

    @pytest.mark.parametrize("bad_price_line, message", [
        (None, ":4: field larger than field limit"),
        # A bad cell on an earlier line is still the one reported.
        (2, ":2: column stock_price: not a number: 'abc'"),
    ])
    def test_cell_past_csv_field_limit_exit_2(self, synth_dir, tmp_path, capsys,
                                              bad_price_line, message):
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        header = lines[0].split(",")
        for at, column, cell in ((4, "sector", "x" * (csv.field_size_limit() + 1)),
                                 (bad_price_line, "stock_price", "abc")):
            if at is not None:
                row = lines[at - 1].split(",")
                row[header.index(column)] = cell
                lines[at - 1] = ",".join(row)
        bad = tmp_path / "long_cell.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["spread", str(bad), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: {bad}{message}")

    @pytest.mark.parametrize("command", ["spread", "train", "evaluate", "importance"])
    def test_directory_path_exit_2(self, synth_dir, trained_dir, tmp_path, capsys, command):
        # A directory as the CSV (spread, train) or as the forest (evaluate,
        # importance): the path exists but cannot be read as a file.
        if command in ("spread", "train"):
            argv = [command, str(tmp_path)]
        else:
            argv = [command, str(tmp_path), str(synth_dir / "snapshots.csv")]
        code = main([*argv, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("column", ["sp_rating", "moody_rating"])
    @pytest.mark.parametrize("command", ["spread", "train"])
    def test_unknown_rating_label_exit_2(self, synth_dir, tmp_path, capsys, command, column):
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = "ZZZ"
        lines[3] = ",".join(row)
        bad = tmp_path / "ratings.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main([command, str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"{bad}:4: column {column}: unknown rating label 'ZZZ'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spread", "train"])
    def test_key_repeated_as_compact_date_exit_2(self, synth_dir, tmp_path, capsys, command):
        # A second row for the first row's firm and day, its date written
        # 20160205: read as another key, the day would be priced twice.
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        row = lines[1].split(",")
        row[1] = row[1].replace("-", "")
        bad = tmp_path / "compact.csv"
        bad.write_text("\n".join(lines + [",".join(row)]) + "\n")
        code = main([command, str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"{bad}:{len(lines) + 1}: bad ISO date '{row[1]}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--recovery", "2"], "recovery must be in [0, 1]"),
            (["--debt-recovery", "0"], "debt_recovery must be in (0, 1]"),
            (["--debt-recovery-vol", "30"], "debt_recovery_vol must be <= 26.64"),
            (["--maturity", "-1"], "maturity must be > 0"),
            (["--trees", "0"], "trees must be >= 1"),
            (["--features-per-split", "0"], "features_per_split must be >= 1"),
            (["--max-depth", "0"], "max_depth must be >= 1"),
            (["--seed", "-1"], "seed must be >= 0"),
            (["--firm-frac", "1"], "firm_frac must be in [0, 1)"),
            (["--date-frac", "-0.5"], "date_frac must be in [0, 1)"),
        ],
    )
    def test_out_of_range_flag_exit_2(self, synth_dir, tmp_path, capsys, flags, message):
        code = main(["train", str(synth_dir / "snapshots.csv"), *flags,
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")
        assert not (tmp_path / "o").exists()

    def test_too_many_trees_exit_2_before_any_forest(self, synth_dir, tmp_path, capsys,
                                                     monkeypatch):
        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was started")

        monkeypatch.setattr(cli, "fit_forest", no_forest)
        config = tmp_path / "run.cfg"
        config.write_text("workers = 1\ntrees = 10001\n")
        for flags, message in (
            (["--trees", "10001"], "input error: trees must be <= 10000, got 10001"),
            (["--config", str(config)], f"input error: {config}:2: trees must be <= 10000"),
        ):
            code = main(["train", str(synth_dir / "snapshots.csv"), *flags,
                         "--out-dir", str(tmp_path / "o")])
            assert code == 2
            assert capsys.readouterr().err.startswith(message)
            assert not (tmp_path / "o").exists()

    def test_out_of_range_config_exit_2(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("workers = 1\nmax_depth = 0\n")
        code = main(["train", str(synth_dir / "snapshots.csv"), "--config", str(config),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"{config}:2: max_depth must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_debt_recovery_vol_30_spread_exit_2(self, synth_dir, tmp_path, capsys):
        code = main(["spread", str(synth_dir / "snapshots.csv"), "--debt-recovery-vol", "30",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "debt_recovery_vol" in capsys.readouterr().err

    def test_overflowing_vol_row_priced_as_reason(self, synth_dir, tmp_path):
        # Most of one row's vol quotes are 1e200: E2C overflows. The row
        # gets a reason and falls out of the dataset; every command runs.
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        for column in header:
            if column.startswith(("hist_vol_", "impl_vol_")) and column != "impl_vol_24m":
                row[header.index(column)] = "1e200"
        lines[3] = ",".join(row)
        bad = tmp_path / "huge_vol.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["spread", str(bad), "--out-dir", str(tmp_path / "s")]) == 0
        reasons = [r["reason"] for r in read_table(tmp_path / "s" / "spreads.csv")]
        assert reasons[2] == "e2c_bps must be finite, got inf"
        assert reasons.count("") == len(reasons) - 1
        assert main(["train", str(bad), "--trees", "2", "--features-per-split", "8",
                     "--out-dir", str(tmp_path / "t")]) == 0
        metrics = dict((r["metric"], r["value"])
                       for r in read_table(tmp_path / "t" / "train_metrics.csv"))
        assert metrics["n_complete_rows"] == str(30 * 20 - 1)


class TestTrainCommand:
    def test_outputs(self, trained_dir):
        for name in ("forest.e2cf", "split_manifest.csv", "train_metrics.csv",
                     "run_config.txt", "manifest.txt"):
            assert (trained_dir / name).exists()
        metrics = {r["metric"]: float(r["value"])
                   for r in read_table(trained_dir / "train_metrics.csv")}
        assert metrics["n_in_sample"] + metrics["n_out_of_sample"] == 600
        assert metrics["in_sample_r2"] > 0.8
        forest = load_forest(trained_dir / "forest.e2cf")
        assert forest.n_trees == 10
        assert forest.master_seed == 3

    def test_split_manifest_counts(self, trained_dir):
        rows = read_table(trained_dir / "split_manifest.csv")
        firms = [r for r in rows if r["kind"] == "removed_firm"]
        dates = [r for r in rows if r["kind"] == "removed_date"]
        assert len(firms) == 6  # 20% of 30
        assert len(dates) == 4  # 20% of 20

    def test_deterministic_reruns(self, synth_dir, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "train", str(synth_dir / "snapshots.csv"), "--seed", "11",
                "--trees", "5", "--features-per-split", "6", "--max-depth", "5",
                "--workers", "1" if name == "a" else "2",
                "--out-dir", str(out),
            ])
            assert code == 0
            blob = b"".join(
                (out / f).read_bytes()
                for f in ("forest.e2cf", "split_manifest.csv", "train_metrics.csv")
            )
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_forest_bytes_pinned(self, tmp_path):
        # On the panel test_synth_csv_bytes_pinned pins: any change to a
        # split, a threshold, a leaf value or the file layout shows here,
        # even one that alters every forest alike.
        synth = tmp_path / "synth"
        assert main(["synth", "--firms", "20", "--dates", "15", "--seed", "8",
                     "--out-dir", str(synth)]) == 0
        out = tmp_path / "train"
        assert main(["train", str(synth / "snapshots.csv"), "--seed", "1", "--trees", "5",
                     "--out-dir", str(out)]) == 0
        digest = hashlib.sha256((out / "forest.e2cf").read_bytes()).hexdigest()
        assert digest == "d6f760896f6a07e16b30829e06038fd3a8818bda4e24c89c32b530f21365bee5"

    def test_no_complete_records_exit_3(self, synth_dir, tmp_path, capsys):
        # Every label blank: each row is read and priced, none is complete.
        with open(synth_dir / "snapshots.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        at = rows[0].index("cds_5y_bps")
        for row in rows[1:]:
            row[at] = ""
        blank = tmp_path / "no_labels.csv"
        with open(blank, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        code = main(["train", str(blank), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "pipeline error: no complete records after dropping missing data\n"
        )

    def test_empty_in_sample_exit_3(self, tmp_path, capsys):
        # One firm: holding out half the firms holds out that one.
        synth = tmp_path / "one_firm"
        assert main(["synth", "--firms", "1", "--dates", "30", "--out-dir", str(synth)]) == 0
        capsys.readouterr()
        code = main(["train", str(synth / "snapshots.csv"), "--firm-frac", "0.5",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "pipeline error: in-sample set is empty after the firm/date split\n"
        )
        assert not (tmp_path / "o" / "forest.e2cf").exists()

    def test_zero_fractions_exit_3(self, synth_dir, tmp_path, capsys):
        code = main([
            "train", str(synth_dir / "snapshots.csv"),
            "--firm-frac", "0", "--date-frac", "0",
            "--trees", "2", "--features-per-split", "4",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "out-of-sample" in capsys.readouterr().err

    @pytest.mark.parametrize("swap", [False, True], ids=["in-sample", "out-of-sample"])
    def test_one_label_value_exit_3_before_any_forest(self, synth_dir, tmp_path, capsys,
                                                      monkeypatch, swap):
        # 95% of the firms and of the dates held out leave one in-sample
        # row; swapping the two sets leaves that row out of sample instead.
        dataset_split = cli.split_in_out

        def split_in_out(*args):
            split = dataset_split(*args)
            if swap:
                split = replace(split, in_sample=split.out_of_sample,
                                out_of_sample=split.in_sample)
            return split

        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was started")

        monkeypatch.setattr(cli, "split_in_out", split_in_out)
        monkeypatch.setattr(cli, "fit_forest", no_forest)
        code = main([
            "train", str(synth_dir / "snapshots.csv"),
            "--firm-frac", "0.95", "--date-frac", "0.95",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        name = "out-of-sample" if swap else "in-sample"
        assert capsys.readouterr().err == (
            f"pipeline error: {name} labels do not vary (rows: 1); R^2 undefined\n"
        )
        assert not (tmp_path / "o" / "forest.e2cf").exists()

    def test_too_many_features_exit_3(self, synth_dir, tmp_path):
        code = main([
            "train", str(synth_dir / "snapshots.csv"),
            "--trees", "2", "--features-per-split", "99",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_noiseless_panel_high_oos_r2(self, tmp_path):
        synth = tmp_path / "clean"
        assert main(["synth", "--firms", "100", "--dates", "50", "--seed", "2",
                     "--bayes-r2", "1.0", "--out-dir", str(synth)]) == 0
        out = tmp_path / "train"
        assert main(["train", str(synth / "snapshots.csv"), "--seed", "2",
                     "--workers", "2", "--out-dir", str(out)]) == 0
        metrics = {r["metric"]: float(r["value"])
                   for r in read_table(out / "train_metrics.csv")}
        assert metrics["out_of_sample_r2"] >= 0.95


class TestEvaluateCommand:
    def test_tables(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = main([
            "evaluate", str(trained_dir / "forest.e2cf"),
            str(synth_dir / "snapshots.csv"), "--out-dir", str(out),
        ])
        assert code == 0
        overall = {r["model"]: r for r in read_table(out / "overall_metrics.csv")}
        assert set(overall) == {"e2c", "creditgrades", "forest"}
        assert float(overall["forest"]["r2"]) > float(overall["e2c"]["r2"])
        assert float(overall["forest"]["rmse"]) < float(overall["e2c"]["rmse"])
        by_rating = read_table(out / "by_rating.csv")
        assert by_rating and "median_forest" in by_rating[0]
        ts = read_table(out / "timeseries.csv")
        assert len(ts) == 600
        assert list(ts[0].keys()) == [
            "firm_id", "date", "cds_5y_bps", "e2c_bps", "creditgrades_bps",
            "forest_bps",
        ]

    def test_no_defined_correlation_leaves_blank_cells(self, synth_dir, trained_dir,
                                                        tmp_path):
        # At the largest debt-recovery vol every CreditGrades spread is 0.0,
        # constant within every firm and every date: its correlations are
        # undefined, blank cells as an undefined MASE is.
        out = tmp_path / "eval"
        with pytest.warns(UserWarning, match="no group had a defined correlation"):
            code = main(["evaluate", str(trained_dir / "forest.e2cf"),
                         str(synth_dir / "snapshots.csv"), "--debt-recovery-vol", "26.64",
                         "--out-dir", str(out)])
        assert code == 0
        assert {r["creditgrades_bps"] for r in read_table(out / "timeseries.csv")} == {"0.0"}
        overall = {r["model"]: r for r in read_table(out / "overall_metrics.csv")}
        for model in ("e2c", "creditgrades", "forest"):
            for key in ("corr_by_firm", "corr_by_date"):
                assert (overall[model][key] == "") == (model == "creditgrades")

    def test_one_correlation_warning_per_call(self, synth_dir, trained_dir, tmp_path):
        # Every firm and every date is a degenerate group for CreditGrades:
        # one counting warning per correlation, then one saying it is
        # unavailable, not one warning per group.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evaluate", str(trained_dir / "forest.e2cf"),
                         str(synth_dir / "snapshots.csv"), "--debt-recovery-vol", "26.64",
                         "--out-dir", str(tmp_path / "eval")]) == 0
        messages = [str(w.message) for w in caught if "correlation" in str(w.message)]
        unavailable = "correlation unavailable: no group had a defined correlation"
        assert messages == [
            "30 of 30 groups degenerate for correlation, skipped", unavailable,
            "20 of 20 groups degenerate for correlation, skipped", unavailable,
        ]

    def test_zero_label_leaves_blank_mape_cells(self, synth_dir, trained_dir, tmp_path):
        # A zero CDS label is a valid reading, but MAPE divides by it: a
        # blank cell with a warning, as an undefined MASE is.
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        at = lines[0].split(",").index("cds_5y_bps")
        for i in range(1, len(lines), 3):
            row = lines[i].split(",")
            row[at] = "0"
            lines[i] = ",".join(row)
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        with pytest.warns(UserWarning, match="MAPE unavailable: MAPE undefined"):
            code = main(["evaluate", str(trained_dir / "forest.e2cf"), str(zeros),
                         "--out-dir", str(out)])
        assert code == 0
        overall = read_table(out / "overall_metrics.csv")
        assert [r["mape"] for r in overall] == ["", "", ""]
        assert all(r["rmse"] != "" for r in overall)
        assert any(r["mape_forest"] == "" for r in read_table(out / "by_rating.csv"))

    def test_constant_labels_exit_3_before_scoring(self, synth_dir, trained_dir, tmp_path,
                                                   capsys):
        # Every complete row carries one CDS label: R^2 is undefined, so
        # evaluate stops before it scores a model or writes a table.
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        at = lines[0].split(",").index("cds_5y_bps")
        for i in range(1, len(lines)):
            row = lines[i].split(",")
            row[at] = "100.0"
            lines[i] = ",".join(row)
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", str(trained_dir / "forest.e2cf"), str(flat),
                         "--out-dir", str(out)])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "pipeline error: labels do not vary (rows: 600); R^2 undefined\n")
        assert not (out / "overall_metrics.csv").exists()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_one_creditgrades_price_per_row_across_commands(self, tmp_path, monkeypatch):
        # Blanked ratings drop priced rows from the dataset. evaluate prices
        # CreditGrades in one call, of every priced row, and each evaluated
        # row gets the spreads that spread writes for its (firm, date),
        # under a calibration other than the default.
        synth = tmp_path / "synth"
        assert main(["synth", "--firms", "30", "--dates", "20", "--seed", "4",
                     "--missing-rate", "0.2", "--out-dir", str(synth)]) == 0
        snapshots_csv = str(synth / "snapshots.csv")
        calibration = ["--recovery", "0.4", "--maturity", "7"]
        assert main(["train", snapshots_csv, *calibration, "--trees", "2",
                     "--features-per-split", "4", "--max-depth", "3",
                     "--out-dir", str(tmp_path / "t")]) == 0
        assert main(["spread", snapshots_csv, *calibration,
                     "--out-dir", str(tmp_path / "s")]) == 0
        calls = []
        pricing = snapshots_mod.creditgrades_spread
        monkeypatch.setattr(snapshots_mod, "creditgrades_spread",
                            lambda *args: calls.append(args) or pricing(*args))
        out = tmp_path / "eval"
        assert main(["evaluate", str(tmp_path / "t" / "forest.e2cf"), snapshots_csv,
                     *calibration, "--out-dir", str(out)]) == 0
        evaluated = read_table(out / "timeseries.csv")
        spreads = {(row["firm_id"], row["date"]): row
                   for row in read_table(tmp_path / "s" / "spreads.csv")}
        priced = sum(row["creditgrades_bps"] != "" for row in spreads.values())
        assert len(calls) == 1
        assert len(calls[0][0]) == priced > len(evaluated) > 0
        columns = ("creditgrades_bps", "e2c_bps")
        mismatched = [row for row in evaluated
                      if [row[c] for c in columns]
                      != [spreads[row["firm_id"], row["date"]][c] for c in columns]]
        assert mismatched == []

    def test_column_mismatch_exit_4(self, trained_dir, tmp_path):
        other = tmp_path / "other"
        assert main(["synth", "--firms", "4", "--dates", "6", "--seed", "9",
                     "--out-dir", str(other)]) == 0
        code = main([
            "evaluate", str(trained_dir / "forest.e2cf"),
            str(other / "snapshots.csv"), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 4

    def test_deterministic_tables(self, synth_dir, trained_dir, tmp_path):
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main([
                "evaluate", str(trained_dir / "forest.e2cf"),
                str(synth_dir / "snapshots.csv"), "--out-dir", str(out),
            ]) == 0
            blobs.append(b"".join(
                (out / f).read_bytes()
                for f in ("overall_metrics.csv", "by_rating.csv",
                          "by_sector.csv", "timeseries.csv")
            ))
        assert blobs[0] == blobs[1]


class TestImportanceCommand:
    def test_reports(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "imp"
        code = main([
            "importance", str(trained_dir / "forest.e2cf"),
            str(synth_dir / "snapshots.csv"), "--seed", "3",
            "--out-dir", str(out),
        ])
        assert code == 0
        table = read_table(out / "importance.csv")
        names = [r["feature"] for r in table]
        assert "e2c_bps" in names and "rating" in names
        mdi_ranked = read_table(out / "importance_mdi_ranked.csv")
        vi_ranked = read_table(out / "importance_vi_ranked.csv")
        assert mdi_ranked[0]["feature"] == "e2c_bps"
        assert vi_ranked[0]["feature"] == "e2c_bps"

    def test_wrong_split_exit_4(self, synth_dir, trained_dir, tmp_path):
        code = main([
            "importance", str(trained_dir / "forest.e2cf"),
            str(synth_dir / "snapshots.csv"), "--seed", "3",
            "--firm-frac", "0.4", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 4

    def test_same_size_other_labels_exit_4(self, synth_dir, trained_dir, tmp_path, capsys):
        # Same rows and columns as at training, but every label tripled.
        lines = (synth_dir / "snapshots.csv").read_text().splitlines()
        at = lines[0].split(",").index("cds_5y_bps")
        for i in range(1, len(lines)):
            row = lines[i].split(",")
            row[at] = repr(3.0 * float(row[at]))
            lines[i] = ",".join(row)
        tripled = tmp_path / "tripled.csv"
        tripled.write_text("\n".join(lines) + "\n")
        code = main(["importance", str(trained_dir / "forest.e2cf"), str(tripled),
                     "--seed", "3", "--out-dir", str(tmp_path / "o")])
        assert code == 4
        assert "not the one the forest was trained on" in capsys.readouterr().err

    def test_other_model_params_exit_4(self, synth_dir, trained_dir, tmp_path):
        # A different recovery rate changes the E2C feature column only.
        code = main(["importance", str(trained_dir / "forest.e2cf"),
                     str(synth_dir / "snapshots.csv"), "--seed", "3",
                     "--recovery", "0.6", "--out-dir", str(tmp_path / "o")])
        assert code == 4

    def test_no_split_in_any_tree_exit_3(self, tmp_path, capsys):
        # Two in-sample rows: all three trees are single leaves, so no
        # feature has MDI and no tree has a usable out-of-bag sample.
        code = main(["synth", "--firms", "2", "--dates", "5", "--missing-rate", "0.3",
                     "--seed", "2", "--out-dir", str(tmp_path / "s")])
        assert code == 0
        csv_path = str(tmp_path / "s" / "snapshots.csv")
        code = main(["train", csv_path, "--trees", "3", "--features-per-split", "1",
                     "--out-dir", str(tmp_path / "t")])
        assert code == 0
        capsys.readouterr()
        with pytest.warns(UserWarning, match="OOB set too small"):
            code = main(["importance", str(tmp_path / "t" / "forest.e2cf"), csv_path,
                         "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "pipeline error: no tree had a usable out-of-bag sample\n" in err
        assert "Traceback" not in err


def corrupt_forest(trained_dir, tmp_path, case):
    """A copy of the trained forest file, truncated, with a header key
    removed or with a tree count no file could hold."""
    raw = (trained_dir / "forest.e2cf").read_bytes()
    path = tmp_path / "corrupt.e2cf"
    path.write_bytes(raw[: len(raw) // 2] if case == "truncated" else raw)
    if case == "header_without_key":
        edit_header(path, lambda h: {k: v for k, v in h.items() if k != "master_seed"})
    if case == "huge_tree_count":
        edit_header(path, lambda h: {**h, "n_trees": 10**15})
    return path


@pytest.mark.parametrize("case", ["truncated", "header_without_key", "huge_tree_count"])
@pytest.mark.parametrize("command", ["evaluate", "importance"])
def test_corrupt_forest_exit_2(synth_dir, trained_dir, tmp_path, capsys, command, case):
    path = corrupt_forest(trained_dir, tmp_path, case)
    code = main([command, str(path), str(synth_dir / "snapshots.csv"),
                 "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ") and str(path) in err
    assert "Traceback" not in err


# Runs one command in a fresh interpreter; its last line is the exit code and
# which of the modules a command may not need it has loaded.
_LOADED = """
import sys
from e2credit.cli import main
code = main(sys.argv[1:])
print(code, *[m for m in ("numpy.ma", "e2credit._kernels", "concurrent.futures")
              if m in sys.modules])
"""


def modules_loaded(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), modules


class TestImports:
    """Commands that never grow a tree do not load the tree kernel, and no
    command loads numpy.ma (np.median's NaN check imports it) or, with one
    worker, the thread pool's concurrent.futures."""

    @pytest.mark.parametrize("command", ["spread", "evaluate", "importance"])
    def test_commands_that_grow_no_tree(self, synth_dir, trained_dir, tmp_path, command):
        inputs = [str(synth_dir / "snapshots.csv")]
        if command != "spread":
            inputs.insert(0, str(trained_dir / "forest.e2cf"))
        assert modules_loaded([command, *inputs, "--out-dir", str(tmp_path)]) == (0, [])

    def test_train_loads_the_tree_kernel(self, synth_dir, tmp_path):
        argv = ["train", str(synth_dir / "snapshots.csv"), "--trees", "2",
                "--out-dir", str(tmp_path)]
        assert modules_loaded(argv) == (0, ["e2credit._kernels"])


class TestMallocPolicy:
    """main sets glibc's malloc parameters once, before it parses, and runs
    alike where the C library has no mallopt."""

    def test_three_mallopt_calls_before_parsing(self, tmp_path, monkeypatch):
        events = []

        class FakeLibrary:
            @staticmethod
            def mallopt(param, value):
                events.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibrary())
        parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: events.append("parse") or parser())
        monkeypatch.setattr(cli, "cmd_spread", lambda args, config, out_dir: None)
        assert main(["spread", "in.csv", "--out-dir", str(tmp_path)]) == 0
        assert events == [cli._MMAP_THRESHOLD, cli._TRIM_THRESHOLD, cli._ARENA_MAX, "parse"]
        assert cli._MMAP_THRESHOLD == (-3, 32 << 20)
        assert cli._TRIM_THRESHOLD == (-1, 64 << 20)
        assert cli._ARENA_MAX == (-8, 1)

    @pytest.mark.parametrize("library", ["no C library", "no mallopt"])
    def test_commands_give_the_golden_outputs_without_mallopt(self, tmp_path, monkeypatch,
                                                               library):
        def cdll(name):
            if library == "no C library":
                raise OSError("no such library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        test_golden_digests.test_every_output_matches_its_golden_digest(tmp_path)


class TestManifest:
    @pytest.mark.parametrize("command", ["synth", "spread", "train", "evaluate", "importance"])
    def test_memory_figures(self, synth_dir, trained_dir, tmp_path, command):
        # The run's own peak RSS and minor page faults sit next to generated_at.
        out = {"synth": synth_dir, "train": trained_dir}.get(command, tmp_path)
        if out is tmp_path:
            inputs = [str(synth_dir / "snapshots.csv")]
            if command != "spread":
                inputs.insert(0, str(trained_dir / "forest.e2cf"))
            assert main([command, *inputs, "--out-dir", str(out)]) == 0
        lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        values = dict(line.split(" = ", 1) for line in lines[1:])
        assert float(values["max_rss_mb"]) >= 0
        assert int(values["minor_page_faults"]) >= 0


class TestDerivedFlags:
    """Each config flag is a RunConfig field with dashes."""

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_train_flag_overrides_the_config_file(self, tmp_path, monkeypatch, name):
        default = getattr(RunConfig(), name)
        # Valid values other than the default: halved floats, incremented ints.
        file_config = RunConfig(**{f.name: getattr(RunConfig(), f.name) / 2
                                   if isinstance(f.default, float) else f.default + 1
                                   for f in fields(RunConfig)})
        flag_value = default / 4 if isinstance(default, float) else default + 2
        save_config(file_config, tmp_path / "run.cfg")
        argv = ["train", "in.csv", "--config", str(tmp_path / "run.cfg"),
                "--" + name.replace("_", "-"), str(flag_value),
                "--out-dir", str(tmp_path / "o")]
        parsed = getattr(build_parser().parse_args(argv), name)
        assert type(parsed) is type(default) and parsed == flag_value
        seen = []
        monkeypatch.setattr(cli, "cmd_train", lambda args, config, out_dir: seen.append(config))
        assert main(argv) == 0
        assert seen == [replace(file_config, **{name: flag_value})]

    def test_importance_takes_the_split_fractions(self):
        args = build_parser().parse_args(["importance", "forest.e2cf", "in.csv",
                                          "--firm-frac", "0.3", "--date-frac", "0.1"])
        assert (args.firm_frac, args.date_frac) == (0.3, 0.1)

    @pytest.mark.parametrize("flag", ["--trees", "--firm-frac"])
    @pytest.mark.parametrize("command", [["spread", "in.csv"],
                                         ["evaluate", "forest.e2cf", "in.csv"], ["synth"]])
    def test_forest_flags_rejected_elsewhere(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "2", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["spread", "in.csv"],
                                         ["evaluate", "forest.e2cf", "in.csv"],
                                         ["importance", "forest.e2cf", "in.csv"], ["synth"]])
    def test_workers_flag_is_train_only(self, tmp_path, capsys, command):
        # Only the forest fit runs threads; no other command reads workers.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--workers", "2", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert build_parser().parse_args(["train", "in.csv", "--workers", "2"]).workers == 2

    def test_readme_flag_table_matches_the_parser(self):
        # README's table of the config flags each command takes: its header
        # names each column's flags, and a row marks a command's columns.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme[readme.index("Every command takes `--config FILE`"):].splitlines()
        start = next(i for i, line in enumerate(after) if line.startswith("|"))
        end = next(i for i in range(start, len(after)) if not after[i].startswith("|"))
        header, _, *rows = [[cell.strip() for cell in line.strip("|").split("|")]
                            for line in after[start:end]]
        columns = [re.findall(r"`(--[a-z-]+)`", cell) for cell in header[1:]]
        table = {row[0].strip("`"): {flag for mark, flags in zip(row[1:], columns)
                                     if mark == "yes" for flag in flags}
                 for row in rows}
        inputs = {"spread": ["in.csv"], "train": ["in.csv"],
                  "evaluate": ["forest.e2cf", "in.csv"],
                  "importance": ["forest.e2cf", "in.csv"], "synth": []}
        parsed = {command: vars(build_parser().parse_args([command, *args]))
                  for command, args in inputs.items()}
        assert table == {command: {"--" + f.name.replace("_", "-")
                                   for f in fields(RunConfig) if f.name in names}
                         for command, names in parsed.items()}
