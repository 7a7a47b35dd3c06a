"""Fusion head: multinomial logistic regression over both sensors' probabilities.

The two five-class probability vectors are quantized to four decimal digits
(that is what fits on the body-area-network wire), concatenated EEG-first into
a ten-element input, and mapped to the final class by softmax(W x + b) with an
argmax readout.  Training sees the same quantized precision as operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import N_CLASSES, LabelClass
from .errors import ShapeError
from .nn.ops import softmax

QUANT_STEP = 1e-4
N_INPUTS = 2 * N_CLASSES
GRAD_TOL = 1e-8


@dataclass
class CombinerConfig:
    """Full-batch gradient descent settings for `lr_train`."""

    learning_rate: float = 1.0
    max_epochs: int = 500

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs <= 0:
            raise ValueError("combiner learning_rate and max_epochs must be positive")


@dataclass
class CombinerParams:
    W: np.ndarray  # [5 x 10]
    b: np.ndarray  # [5]

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.W.shape != (N_CLASSES, N_INPUTS):
            raise ShapeError(f"W must be {N_CLASSES}x{N_INPUTS}, got {self.W.shape}")
        if self.b.shape != (N_CLASSES,):
            raise ShapeError(f"b must have length {N_CLASSES}, got {self.b.shape}")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("combiner parameters must be finite")


def quantize4(p: np.ndarray) -> np.ndarray:
    """Round each component half-away-from-zero to 4 decimals, no renormalization."""
    p = np.asarray(p, dtype=float)
    return np.floor(np.abs(p) / QUANT_STEP + 0.5) * np.sign(p) * QUANT_STEP


def is_quantized(p: np.ndarray) -> bool:
    scaled = np.asarray(p, dtype=float) / QUANT_STEP
    return bool(np.all(np.abs(scaled - np.round(scaled)) < 1e-6))


def build_input(p_eeg: np.ndarray, p_ecg: np.ndarray) -> np.ndarray:
    """Concatenate quantized EEG then ECG probabilities, class order 0..4."""
    p_eeg = np.asarray(p_eeg, dtype=float)
    p_ecg = np.asarray(p_ecg, dtype=float)
    if p_eeg.shape != (N_CLASSES,) or p_ecg.shape != (N_CLASSES,):
        raise ShapeError(f"expected two length-{N_CLASSES} probability vectors")
    if not (is_quantized(p_eeg) and is_quantized(p_ecg)):
        raise ValueError("combiner inputs must be quantized to 4 decimal digits")
    return np.concatenate([p_eeg, p_ecg])


def lr_forward(x: np.ndarray, params: CombinerParams) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != N_INPUTS:
        raise ShapeError(f"combiner input must have {N_INPUTS} elements, got {x.shape}")
    return softmax(x @ params.W.T + params.b)


def predict(p: np.ndarray) -> LabelClass:
    """Argmax; ties break toward the lowest class index (nearest to onset)."""
    return LabelClass(int(np.argmax(p)))


def lr_train(
    dataset: Sequence[tuple[np.ndarray, LabelClass | int]],
    cfg: Optional[CombinerConfig] = None,
) -> CombinerParams:
    """Fit by full-batch gradient descent on mean cross-entropy from zero init.

    Stops when the gradient max-norm falls below 1e-8 or after `max_epochs`
    steps.  The problem is convex; the analytic gradient is
    (softmax - onehot)^T x averaged over the dataset.
    """
    if len(dataset) == 0:
        raise ValueError("combiner training set must be non-empty")
    cfg = cfg or CombinerConfig()
    xs = np.stack([np.asarray(x, dtype=float) for x, _ in dataset])
    if xs.shape[1] != N_INPUTS:
        raise ShapeError(f"combiner inputs must have {N_INPUTS} elements")
    if not is_quantized(xs):
        raise ValueError("combiner training inputs must be quantized")
    ys = np.array([int(lbl) for _, lbl in dataset])
    n = len(ys)
    onehot = np.zeros((n, N_CLASSES))
    onehot[np.arange(n), ys] = 1.0

    w = np.zeros((N_CLASSES, N_INPUTS))
    b = np.zeros(N_CLASSES)
    for _ in range(cfg.max_epochs):
        probs = softmax(xs @ w.T + b)
        err = (probs - onehot) / n
        g_w = err.T @ xs
        g_b = err.sum(axis=0)
        if max(np.abs(g_w).max(), np.abs(g_b).max()) < GRAD_TOL:
            break
        w -= cfg.learning_rate * g_w
        b -= cfg.learning_rate * g_b
    return CombinerParams(w, b)


def save_combiner(params: CombinerParams, path: Path | str) -> None:
    payload = {"W": params.W.tolist(), "b": params.b.tolist()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_combiner(path: Path | str) -> CombinerParams:
    payload = json.loads(Path(path).read_text())
    return CombinerParams(np.array(payload["W"]), np.array(payload["b"]))
