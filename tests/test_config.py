import pytest

from e2credit.config import RunConfig, load_config, save_config
from e2credit.errors import InputFormatError


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

    def test_model_params_view(self):
        params = RunConfig().model_params()
        assert params.recovery == 0.3 and params.maturity == 5.0


class TestConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 3  # trailing\ntrees = 10\n")
        config = load_config(path)
        assert config.seed == 3 and config.trees == 10

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

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 3\n")
        with pytest.raises(InputFormatError, match="key = value"):
            load_config(path)
