import hashlib

import numpy as np
import pytest

from e2credit.cli import main
from e2credit.dataset import drop_incomplete
from e2credit.structural import ModelParams
from e2credit.synth import generate_snapshots

from conftest import build_from_rows


class TestGenerator:
    def test_grid_shape_and_determinism(self):
        rows_a, meta_a = generate_snapshots(n_firms=12, n_dates=9, seed=4)
        rows_b, meta_b = generate_snapshots(n_firms=12, n_dates=9, seed=4)
        assert len(rows_a) == 12 * 9
        assert rows_a == rows_b
        assert meta_a == meta_b
        rows_c, _ = generate_snapshots(n_firms=12, n_dates=9, seed=5)
        assert rows_c != rows_a

    def test_bayes_bound_near_target(self):
        _, meta = generate_snapshots(n_firms=60, n_dates=40, seed=0)
        assert meta["bayes_r2_realized"] == pytest.approx(0.90, abs=0.02)

    def test_all_rows_complete_by_default(self, tmp_path):
        rows, _ = generate_snapshots(n_firms=10, n_dates=6, seed=1)
        records, _ = build_from_rows(rows, tmp_path / "s.csv", ModelParams())
        assert len(drop_incomplete(records)) == len(rows)

    def test_missing_rate_drops_rows(self, tmp_path):
        rows, _ = generate_snapshots(n_firms=10, n_dates=8, seed=2, missing_rate=0.2)
        records, _ = build_from_rows(rows, tmp_path / "s.csv", ModelParams())
        kept = drop_incomplete(records)
        assert 0 < len(kept) < len(rows)

    def test_label_and_spread_ranges(self, tmp_path):
        rows, _ = generate_snapshots(n_firms=25, n_dates=12, seed=3)
        records, _ = build_from_rows(rows, tmp_path / "s.csv", ModelParams())
        e2c = np.array([r.e2c_bps for r in records])
        cds = np.array([r.cds5y_bps for r in records])
        assert (e2c > 0).all() and (cds >= 1.0).all()
        assert np.ptp(e2c) > 50.0  # wide cross-section, not a constant

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_snapshots(n_firms=0, n_dates=5)
        with pytest.raises(ValueError):
            generate_snapshots(missing_rate=1.0)
        with pytest.raises(ValueError):
            generate_snapshots(bayes_r2=0.0)


def test_synth_csv_bytes_pinned(tmp_path):
    # Any change to the generator's arithmetic or draw order shows here.
    assert main(["synth", "--firms", "20", "--dates", "15", "--seed", "8",
                 "--out-dir", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "snapshots.csv").read_bytes()).hexdigest()
    assert digest == "a63056a80ba1039b5125bf2ed54a869d2d8fd0e557f2c94e70844827da6dfde2"
