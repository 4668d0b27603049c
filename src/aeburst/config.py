"""Pipeline configuration, read from a flat JSON object and checked on construction."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .detector import DEFAULT_FLAG_MARGIN
from .distributions import GammaParams
from .dppmm import Hyperparams
from .windowing import ThresholdPolicy, WindowSpec

__all__ = ["PipelineConfig"]

# The config field behind each parameter name the builders' checks report.
_BUILT_FROM = {
    "length_n": "window_length",
    "overlap_fraction": "overlap",
    "kind": "threshold_kind",
    "percentile": "threshold_value",
    "shape": "prior_shape",
    "rate": "prior_rate",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the detection/clustering/monitoring pipeline.

    A config file is a flat JSON object of these fields; ``from_dict``
    accepts any subset of keys on top of the defaults, so files may be
    partial.  Each value must have its default's type (an ``int`` may stand
    for a ``float``, a ``bool`` for nothing else) and lie in its field's
    range, as the window spec, threshold policy and hyperparameters built
    from it check; anything else raises ``ValueError``.
    """

    threshold_kind: str = "percentile"
    threshold_value: float = 99.0
    rectify: bool = True
    window_length: int = 1000
    overlap: float = 0.875
    prior_shape: float = 1.0
    prior_rate: float = 1.0
    alpha: float = 1.0
    sweeps: int = 100
    burn_in: int = 50
    keep_ratio: float = 0.1
    min_probability: float = 0.5
    min_event_length: int = 1
    flag_margin: float = DEFAULT_FLAG_MARGIN
    step_factor: float = 10.0
    alarm_lag: int = 50
    alarm_min_history: int = 10
    survival_horizon: int = 20
    min_survivors: int = 2
    alarm_warmup: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value, expected = getattr(self, f.name), type(f.default)
            if type(value) is not expected and (type(value), expected) != (int, float):
                raise ValueError(
                    f"config {f.name} must be {expected.__name__}, got {value!r}"
                )
        # The builders check their own fields, in messages that begin with
        # their own parameter name; the rest are checked here.
        try:
            self.window_spec(), self.threshold_policy(), self.hyperparams()
        except ValueError as exc:
            param, _, rule = str(exc).partition(" ")
            name = _BUILT_FROM.get(param, param)
            named = name if name == param else f"{name} ({param})"
            raise ValueError(f"config {named} {rule}") from exc
        for name, ok, rule in [
            ("seed", self.seed >= 0, ">= 0"),
            ("burn_in", self.burn_in >= 0, ">= 0"),
            ("sweeps", self.sweeps > self.burn_in, f"> burn_in {self.burn_in}"),
            ("keep_ratio", 0 < self.keep_ratio <= 1, "in (0, 1]"),
            ("min_probability", 0 < self.min_probability <= 1, "in (0, 1]"),
            ("min_event_length", self.min_event_length >= 1, ">= 1"),
            ("flag_margin", math.isfinite(self.flag_margin), "finite"),
            ("step_factor", 0 < self.step_factor < math.inf, "finite and > 0"),
            ("alarm_min_history", self.alarm_min_history >= 1, ">= 1"),
            ("alarm_lag", self.alarm_lag >= self.alarm_min_history,
             f">= alarm_min_history {self.alarm_min_history}"),
            ("survival_horizon", self.survival_horizon >= 0, ">= 0"),
            ("min_survivors", self.min_survivors >= 1, ">= 1"),
            ("alarm_warmup", self.alarm_warmup >= 0, ">= 0"),
            ("threshold_value", math.isfinite(self.threshold_value), "finite"),
        ]:
            if not ok:
                raise ValueError(f"config {name} must be {rule}, got {getattr(self, name)}")

    def threshold_policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.threshold_kind, self.threshold_value, self.rectify)

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_length, self.overlap)

    def prior(self) -> GammaParams:
        return GammaParams(self.prior_shape, self.prior_rate)

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(self.alpha, self.prior())

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
