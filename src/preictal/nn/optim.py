"""Adam with bias correction, plus the shared training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    and the step count.  `scratch` holds two more arrays of that shape,
    made with the state, that `adam_step` computes its update in, so a
    step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, cfg: TrainConfig
) -> None:
    """One Adam update of a flat parameter buffer, in place.

    Elementwise passes into the state's scratch arrays, each the same
    operation on the same operands as the textbook expression
    lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bits are those of
    evaluating it on fresh arrays.  Entries with zero gradient (and zero
    moments) are left exactly as they are.  Deterministic.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(f"params {params.shape}, grads {grads.shape} and Adam "
                         f"state {state.m.shape} must have one shape")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    m, v = state.m, state.v
    step, denom = state.scratch
    m *= BETA1
    np.multiply(grads, 1.0 - BETA1, out=step)
    m += step
    v *= BETA2
    np.multiply(grads, 1.0 - BETA2, out=step)
    step *= grads
    v += step
    np.divide(m, bc1, out=step)
    step *= cfg.learning_rate
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPSILON
    step /= denom
    params -= step
