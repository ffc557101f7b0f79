"""Run configuration: model calibration, forest hyperparameters, split
fractions and the master seed.

Stored as a flat ``key = value`` text file ('#' starts a comment), each key
at most once. Values round-trip exactly: floats are written with their
shortest repr. CLI flags override file values, which override the
defaults. Each field is also the command-line flag of the same name with
dashes, its help text in the field's metadata; cli._CONFIG_FLAGS lists the
commands that take it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import InputFormatError, not_utf8
from .structural import ModelParams, _setting

_MODEL_FIELDS = {f.name for f in fields(ModelParams)}
# Inclusive (low, high) of each integer field, None where unbounded. 10,000
# trees is 200 times the default: a forest that large is a typo, not a run.
_INT_RANGE = {"trees": (1, 10_000), "features_per_split": (1, None), "max_depth": (1, None),
              "seed": (0, None), "workers": (1, None)}
_FRACTION_FIELDS = {"firm_frac", "date_frac"}


def _check_value(name: str, value) -> None:
    """Raise InputFormatError if one field's value is out of its range.

    No rule spans two fields, so each value can be checked on its own.
    """
    if name in _MODEL_FIELDS:
        try:
            ModelParams(**{name: value})
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
    elif name in _INT_RANGE:
        low, high = _INT_RANGE[name]
        if value < low:
            raise InputFormatError(f"{name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise InputFormatError(f"{name} must be <= {high}, got {value}")
    elif name in _FRACTION_FIELDS and not 0.0 <= value < 1.0:
        raise InputFormatError(f"{name} must be in [0, 1), got {value}")


@dataclass(frozen=True)
class RunConfig(ModelParams):
    """The calibration fields come first, inherited from ModelParams, so a
    RunConfig is passed wherever a ModelParams is taken."""

    trees: int = _setting(50, "number of bagged trees")
    features_per_split: int = _setting(15, "features drawn at each node")
    max_depth: int = _setting(15, "tree depth cap")
    firm_frac: float = _setting(0.2, "fraction of firms held out")
    date_frac: float = _setting(0.2, "fraction of dates held out")
    seed: int = _setting(0, "master seed (split, forest, permutation)")
    workers: int = _setting(1, "worker threads for forest training")

    def __post_init__(self) -> None:
        for name, value in self.items():
            _check_value(name, value)

    def items(self) -> list[tuple[str, float | int]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def with_overrides(self, **overrides) -> "RunConfig":
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean) if clean else self


def save_config(config: RunConfig, path) -> None:
    lines = [f"{name} = {value!r}" for name, value in config.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> RunConfig:
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    values: dict[str, float | int] = {}
    set_on: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in kinds:
            raise InputFormatError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise InputFormatError(
                f"{path}:{lineno}: config key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = kinds[key](text)
        except ValueError:
            raise InputFormatError(
                f"{path}:{lineno}: bad value {text!r} for {key}"
            ) from None
        try:
            _check_value(key, values[key])
        except InputFormatError as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from None
    return RunConfig(**values)
