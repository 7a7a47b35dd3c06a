"""Adam with bias correction, plus the shared training configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")
        if self.batch_size <= 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("batch_size, max_epochs, and patience must be positive")


@dataclass
class AdamState:
    """First and second moment estimates, shaped like the parameter buffer."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> None:
    """One Adam update of a flat parameter buffer, in place.

    A single fused elementwise pass; entries with zero gradient (and zero
    moments) are left exactly as they are.  Deterministic.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(f"params {params.shape}, grads {grads.shape} and Adam "
                         f"state {state.m.shape} must have one shape")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    m, v = state.m, state.v
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grads
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grads * grads
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_epsilon)
