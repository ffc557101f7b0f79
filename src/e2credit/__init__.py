"""Structural credit-spread approximations (E2C and CreditGrades), their
balance-sheet inputs, and a from-scratch random-forest pipeline that learns
observed CDS levels from the model spread plus a few market features."""

__version__ = "0.1.0"

from .config import RunConfig, load_config, save_config
from .dataset import (
    FeatureColumn,
    FeatureEncoder,
    FeatureMatrix,
    RawRecord,
    Split,
    drop_incomplete,
    encode_features,
    merge_ratings,
    rating_bucket,
    rating_code,
    rating_label,
    split_in_out,
)
from .forest import (
    Forest,
    RegressionTree,
    fit_forest,
    grow_tree,
    load_forest,
    save_forest,
)
from .fundamentals import debt_per_share, financial_debt, select_volatility
from .importance import (
    ImportanceReport,
    importance_report,
    mdi_importance,
    permutation_importance,
)
from .metrics import (
    PairedSeries,
    avg_correlation,
    group_pairs,
    mape,
    mase,
    r_squared,
    r_squared_arrays,
    rmse,
    truncated_mean,
)
from .structural import (
    ModelParams,
    creditgrades_spread,
    creditgrades_survival,
    e2c_spread,
    norm_cdf,
)
from .synth import generate_snapshots

__all__ = [
    "FeatureColumn",
    "FeatureEncoder",
    "FeatureMatrix",
    "Forest",
    "ImportanceReport",
    "ModelParams",
    "PairedSeries",
    "RawRecord",
    "RegressionTree",
    "RunConfig",
    "Split",
    "avg_correlation",
    "creditgrades_spread",
    "creditgrades_survival",
    "debt_per_share",
    "drop_incomplete",
    "e2c_spread",
    "encode_features",
    "financial_debt",
    "fit_forest",
    "generate_snapshots",
    "group_pairs",
    "grow_tree",
    "importance_report",
    "load_config",
    "load_forest",
    "mape",
    "mase",
    "mdi_importance",
    "merge_ratings",
    "norm_cdf",
    "permutation_importance",
    "r_squared",
    "r_squared_arrays",
    "rating_bucket",
    "rating_code",
    "rating_label",
    "rmse",
    "save_config",
    "save_forest",
    "select_volatility",
    "split_in_out",
    "truncated_mean",
]
