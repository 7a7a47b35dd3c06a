"""Adam with bias correction, plus the shared training configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's, as Kingma & Ba suggest


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("batch_size, max_epochs, and patience must be positive")


@dataclass
class AdamState:
    """First and second moment estimates, shaped like the parameter buffer,
    and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> None:
    """One Adam update of a flat parameter buffer, in place: the moments
    move toward the gradient and its square, and the parameters by
    lr * (m / bc1) / (sqrt(v / bc2) + eps), bc1 and bc2 being the bias
    corrections 1 - beta^t (Kingma & Ba 2015).  Entries with zero gradient
    (and zero moments) are left exactly as they are.  Deterministic.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(f"params {params.shape}, grads {grads.shape} and Adam "
                         f"state {state.m.shape} must have one shape")
    state.t += 1
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * grads * grads
    params -= cfg.learning_rate * (m / (1.0 - BETA1 ** state.t)) / (
        np.sqrt(v / (1.0 - BETA2 ** state.t)) + EPSILON)
