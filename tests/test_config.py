import re
from dataclasses import fields

import pytest

from e2credit.cli import main
from e2credit.config import RunConfig, load_config, save_config
from e2credit.errors import InputFormatError
from e2credit.structural import ModelParams


class TestRunConfig:
    def test_defaults_match_calibration(self):
        config = RunConfig()
        assert config.recovery == 0.3
        assert config.debt_recovery == 0.5
        assert config.debt_recovery_vol == 0.3
        assert config.maturity == 5.0
        assert config.trees == 50
        assert config.features_per_split == 15
        assert config.max_depth == 15
        assert config.firm_frac == 0.2
        assert config.date_frac == 0.2

    def test_round_trip_unchanged(self, tmp_path):
        config = RunConfig(recovery=0.3, debt_recovery=0.5, debt_recovery_vol=0.3,
                           maturity=5.0, seed=7)
        path = tmp_path / "run.cfg"
        save_config(config, path)
        assert load_config(path) == config

    def test_round_trip_odd_floats(self, tmp_path):
        config = RunConfig(recovery=0.1 + 0.2, firm_frac=1 / 3)
        path = tmp_path / "run.cfg"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.recovery == config.recovery
        assert loaded.firm_frac == config.firm_frac

    def test_overrides(self):
        config = RunConfig().with_overrides(seed=9, trees=None, maturity=3.0)
        assert config.seed == 9
        assert config.trees == 50
        assert config.maturity == 3.0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(InputFormatError, match="workers must be >= 1"):
            RunConfig(workers=workers)
        with pytest.raises(InputFormatError, match="workers must be >= 1"):
            RunConfig().with_overrides(workers=workers)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("recovery", 2.0, "recovery must be in [0, 1]"),
            ("recovery", float("nan"), "recovery must be finite"),
            ("debt_recovery", 0.0, "debt_recovery must be in (0, 1]"),
            ("debt_recovery_vol", -0.1, "debt_recovery_vol must be >= 0"),
            ("debt_recovery_vol", 30.0, "debt_recovery_vol must be <= 26.64"),
            ("maturity", 0.0, "maturity must be > 0"),
            ("trees", 0, "trees must be >= 1"),
            ("features_per_split", 0, "features_per_split must be >= 1"),
            ("max_depth", -2, "max_depth must be >= 1"),
            ("seed", -1, "seed must be >= 0"),
            ("firm_frac", 1.0, "firm_frac must be in [0, 1)"),
            ("firm_frac", -0.1, "firm_frac must be in [0, 1)"),
            ("date_frac", float("nan"), "date_frac must be in [0, 1)"),
        ],
    )
    def test_out_of_range_rejected(self, name, value, message):
        with pytest.raises(InputFormatError, match=re.escape(message)):
            RunConfig(**{name: value})
        with pytest.raises(InputFormatError, match=re.escape(message)):
            RunConfig().with_overrides(**{name: value})

    def test_range_edges_accepted(self):
        config = RunConfig(recovery=1.0, debt_recovery=1.0, debt_recovery_vol=26.6,
                           trees=1, features_per_split=1, max_depth=1, seed=0,
                           firm_frac=0.0, date_frac=0.0)
        assert config.debt_recovery_vol == 26.6

    def test_model_params_view(self):
        # A RunConfig is the ModelParams of its run: the calibration fields
        # are inherited, come first and keep ModelParams's defaults.
        config = RunConfig()
        assert isinstance(config, ModelParams)
        calibration = [f.name for f in fields(ModelParams)]
        assert [f.name for f in fields(RunConfig)][:len(calibration)] == calibration
        assert [getattr(config, name) for name in calibration] == [
            getattr(ModelParams(), name) for name in calibration]
        assert config.recovery == 0.3 and config.maturity == 5.0


class TestConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 3  # trailing\ntrees = 10\n")
        config = load_config(path)
        assert config.seed == 3 and config.trees == 10

    def test_byte_order_mark_skipped(self, tmp_path):
        # As Windows editors and Excel write UTF-8: the mark is not part of
        # the first key.
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbftrees = 10\nseed = 3\n")
        assert load_config(path) == RunConfig(trees=10, seed=3)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(InputFormatError, match="mystery"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trees = many\n")
        with pytest.raises(InputFormatError, match="trees"):
            load_config(path)

    def test_workers_below_one_names_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n\nworkers = 0\n")
        with pytest.raises(InputFormatError, match=r"run.cfg:3: workers must be >= 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("recovery = 2", "recovery must be in [0, 1], got 2.0"),
            ("debt_recovery_vol = 30", "debt_recovery_vol must be <= 26.64"),
            ("trees = 0", "trees must be >= 1, got 0"),
            ("date_frac = 1", "date_frac must be in [0, 1), got 1.0"),
        ],
    )
    def test_out_of_range_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 3\n# comment\n{line}\nworkers = 2\n")
        with pytest.raises(InputFormatError, match=re.escape(f"run.cfg:3: {message}")):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 3\n")
        with pytest.raises(InputFormatError, match="key = value"):
            load_config(path)

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        # The last value would otherwise win silently: 20 trees, not 10.
        path = tmp_path / "run.cfg"
        path.write_text("trees = 10\nseed = 3\n# comment\ntrees = 20\n")
        message = f"{path}:4: config key 'trees' already set on line 1"
        with pytest.raises(InputFormatError, match=re.escape(message)):
            load_config(path)
        # Exit 2 before the CSV is opened.
        code = main(["spread", str(tmp_path / "absent.csv"), "--config", str(path),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
