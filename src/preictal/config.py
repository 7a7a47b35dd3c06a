"""Experiment configuration: one nested dataclass tree, one JSON document.

Defaults run the full desk-scale experiment end to end: two synthetic
patients at 64 Hz with four EEG channels, four seizures each, five-fold
cross-validation of the two sensor models plus the fusion combiner, and a
closed-loop network simulation.  (Clinic-scale recordings — 19-channel
10-20 EEG at 256 Hz — stay available through dataset.SynthConfig; these
defaults trade channels and sample rate for a laptop-sized run.)

A config file may specify any subset of keys; the rest keep their defaults.
Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .bansim import SimConfig
from .combiner import CombinerConfig
from .dataset import SynthConfig
from .nn.optim import TrainConfig


@dataclass
class WindowingConfig:
    window_seconds: float = 5.0
    stride_seconds: float = 5.0

    def __post_init__(self):
        if self.window_seconds <= 0 or self.stride_seconds <= 0:
            raise ValueError("window_seconds and stride_seconds must be positive")


@dataclass
class ModelConfig:
    kernel_len: int = 5
    pool_size: int = 4
    ecg_pool_size: int = 2  # single-channel stack keeps more time resolution
    hidden: tuple[int, int] = (64, 32)
    focal_gamma: float = 2.0

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        if self.kernel_len <= 0 or self.pool_size <= 0 or self.ecg_pool_size <= 0:
            raise ValueError("kernel_len and pool sizes must be positive")
        if len(self.hidden) != 2 or any(h <= 0 for h in self.hidden):
            raise ValueError("hidden must be two positive layer widths")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be >= 0")


def _desk_synth() -> SynthConfig:
    return SynthConfig(duration_s=41_240.0, n_seizures=4, sample_rate_hz=64,
                       eeg_channels=4, seizure_duration_s=60.0, noise_sigma=0.3)


@dataclass
class ExperimentConfig:
    seed: int = 0
    patients: int = 2
    folds: int = 5
    data: SynthConfig = field(default_factory=_desk_synth)
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    combiner: CombinerConfig = field(default_factory=CombinerConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.patients < 1:
            raise ValueError("patients must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def to_dict(cfg) -> dict:
    """Dataclass tree -> plain nested dict (JSON-ready)."""
    if dataclasses.is_dataclass(cfg):
        return {f.name: to_dict(getattr(cfg, f.name))
                for f in dataclasses.fields(cfg)}
    if isinstance(cfg, Enum):
        return cfg.value
    if isinstance(cfg, tuple):
        return [to_dict(v) for v in cfg]
    return cfg


def _build(cls, payload: dict):
    if not isinstance(payload, dict):
        raise ValueError(f"{cls.__name__} section must be an object, "
                         f"got {type(payload).__name__}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r} in {cls.__name__} "
                             f"(known: {', '.join(sorted(known))})")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _build(hint, value)
        kwargs[key] = value
    return cls(**kwargs)


def from_dict(payload: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) nested dict of overrides."""
    return _build(ExperimentConfig, payload)


def load_config(path: Path | str) -> ExperimentConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    return from_dict(payload)


def write_config(cfg: ExperimentConfig, path: Path | str) -> None:
    """Echo the fully resolved config (provenance for every run)."""
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2, sort_keys=True) + "\n")
