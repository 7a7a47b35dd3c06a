"""Experiment configuration: one nested dataclass tree, one JSON document.

Defaults run the full desk-scale experiment end to end: two synthetic
patients at 64 Hz with four EEG channels, four seizures each, five-fold
cross-validation of the two sensor models plus the fusion combiner, and a
closed-loop network simulation.

A config file may specify any subset of keys, within a section too; the rest
keep their defaults.  Unknown keys and values of the wrong type are rejected
rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .bansim import SimConfig
from .combiner import CombinerConfig
from .dataset import SynthConfig
from .errors import read_json
from .nn.optim import TrainConfig


@dataclass
class WindowingConfig:
    window_seconds: float = 5.0
    stride_seconds: float = 5.0

    def __post_init__(self):
        # Overlapping windows share samples, which a random fold split would
        # put on both sides of a fold's train/test boundary.
        if not 0 < self.window_seconds <= self.stride_seconds:
            raise ValueError(f"need 0 < window_seconds <= stride_seconds, got "
                             f"{self.window_seconds} and {self.stride_seconds}")


@dataclass
class ModelConfig:
    kernel_len: int = 5
    hidden: tuple[int, int] = (64, 32)

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        if self.kernel_len <= 0:
            raise ValueError("kernel_len must be positive")
        if len(self.hidden) != 2 or any(h <= 0 for h in self.hidden):
            raise ValueError("hidden must be two positive layer widths")


@dataclass
class ExperimentConfig:
    seed: int = 0
    patients: int = 2
    folds: int = 5
    data: SynthConfig = field(default_factory=SynthConfig)
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    combiner: CombinerConfig = field(default_factory=CombinerConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.patients < 1:
            raise ValueError("patients must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def _fits(value, default) -> bool:
    """A config value must have its default's type, except that an int may
    stand for a float and a list for a tuple; a tuple's elements must each
    fit the default's.  NaN and infinity fit nothing, as they would pass
    every range check."""
    if isinstance(default, tuple):
        return (isinstance(value, (tuple, list)) and len(value) == len(default)
                and all(map(_fits, value, default)))
    allowed = (float, int) if type(default) is float else type(default)
    return (isinstance(value, allowed)
            and isinstance(value, bool) == isinstance(default, bool)
            and (not isinstance(value, float) or math.isfinite(value)))


def _overlay(default, payload):
    """`default` with the keys of `payload` replaced; a nested section is
    overlaid onto the default's own section, so its other keys keep their
    values."""
    name = type(default).__name__
    if not isinstance(payload, dict):
        raise ValueError(f"{name} section must be an object, "
                         f"got {type(payload).__name__}")
    known = {f.name for f in dataclasses.fields(default)}
    changes = {}
    for key, value in payload.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r} in {name} "
                             f"(known: {', '.join(sorted(known))})")
        current = getattr(default, key)
        if dataclasses.is_dataclass(current):
            value = _overlay(current, value)
        elif not _fits(value, current):
            raise ValueError(f"config key {key!r} in {name} must be "
                             f"{type(current).__name__}, got {value!r}")
        changes[key] = value
    return dataclasses.replace(default, **changes)


def from_dict(payload: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) nested dict of overrides."""
    return _overlay(ExperimentConfig(), payload)


def load_config(path: Path | str) -> ExperimentConfig:
    return read_json(Path(path), "an experiment config", from_dict)


def write_config(cfg: ExperimentConfig, path: Path | str) -> None:
    """Echo the fully resolved config (provenance for every run)."""
    Path(path).write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")
