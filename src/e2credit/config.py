"""Run configuration: model calibration, forest hyperparameters, split
fractions and the master seed.

Stored as a flat ``key = value`` text file ('#' starts a comment). Values
round-trip exactly: floats are written with their shortest repr. CLI flags
override file values, which override the defaults.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import InputFormatError
from .structural import ModelParams

_INT_FIELDS = {"trees", "features_per_split", "max_depth", "seed", "workers"}


@dataclass(frozen=True)
class RunConfig:
    recovery: float = 0.3
    debt_recovery: float = 0.5
    debt_recovery_vol: float = 0.3
    maturity: float = 5.0
    trees: int = 50
    features_per_split: int = 15
    max_depth: int = 15
    firm_frac: float = 0.2
    date_frac: float = 0.2
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InputFormatError(f"workers must be >= 1, got {self.workers}")

    def model_params(self) -> ModelParams:
        return ModelParams(
            recovery=self.recovery,
            debt_recovery=self.debt_recovery,
            debt_recovery_vol=self.debt_recovery_vol,
            maturity=self.maturity,
        )

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
    names = {f.name for f in fields(RunConfig)}
    values: dict[str, float | int] = {}
    where: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in names:
                raise InputFormatError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = int(text) if key in _INT_FIELDS else float(text)
            except ValueError:
                raise InputFormatError(
                    f"{path}:{lineno}: bad value {text!r} for {key}"
                ) from None
            where[key] = lineno
    try:
        return RunConfig(**values)
    except InputFormatError as exc:
        # Only workers is range-checked; name the line that set it.
        raise InputFormatError(f"{path}:{where['workers']}: {exc}") from None
