"""Fusion head: multinomial logistic regression over both sensors' probabilities.

The two five-class probability vectors are quantized to four decimal digits
(that is what fits on the body-area-network wire), concatenated EEG-first into
a ten-element input by `build_input` (for one window or a batch alike), and
mapped to the final class by softmax(W x + b) with an argmax readout, whose
ties go to the lowest class.  Training sees the same quantized precision as
operation.  `quant_steps` is the one check of that grid: `build_input`,
`lr_train` and `bansim`'s frame encoders each refuse an off-grid value
through it, with one message.  `lr_train` fits class-major, with the inputs
as columns, while `lr_forward` applies the fit one input row at a time;
`lr_train` says what that layout changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .dataset import N_CLASSES
from .errors import ShapeError, fits, read_json
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


def quant_steps(p: np.ndarray) -> np.ndarray:
    """Each component of `p`, of any shape, as a whole number of QUANT_STEPs
    (a float, rounded half to even).  This is the one check that values are
    quantized: ValueError when any lies 1e-6 of a step or more from a whole
    number."""
    scaled = np.asarray(p, dtype=float) / QUANT_STEP
    steps = np.rint(scaled)
    if not (np.abs(scaled - steps) < 1e-6).all():
        raise ValueError("probabilities must be quantized to 4 decimal digits")
    return steps


def build_input(p_eeg: np.ndarray, p_ecg: np.ndarray) -> np.ndarray:
    """The fusion input, quantized EEG then ECG probabilities in class order,
    for one window ([5] each gives [10]) or a batch ([N x 5] each gives
    [N x 10]).  Every fusion input is built here, so the combiner is fit and
    applied on one layout."""
    p_eeg = np.asarray(p_eeg, dtype=float)
    p_ecg = np.asarray(p_ecg, dtype=float)
    if p_eeg.shape != p_ecg.shape or p_eeg.shape[-1:] != (N_CLASSES,) or p_eeg.ndim > 2:
        raise ShapeError(f"expected two [{N_CLASSES}] or [N x {N_CLASSES}] probability "
                         f"arrays of one shape, got {p_eeg.shape} and {p_ecg.shape}")
    x = np.concatenate([p_eeg, p_ecg], axis=-1)
    quant_steps(x)
    return x


def lr_forward(x: np.ndarray, params: CombinerParams) -> np.ndarray:
    """softmax(W x + b) for one input [10] or each row of a batch [N x 10].
    A row gets the same bits alone or in a batch: einsum sums every row the
    same way, where a matmul uses gemv for one row and gemm for many."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != N_INPUTS:
        raise ShapeError(f"combiner input must have {N_INPUTS} elements, got {x.shape}")
    return softmax(np.einsum("...i,ki->...k", x, params.W) + params.b)


def lr_train(xs: np.ndarray, ys: np.ndarray, cfg: CombinerConfig) -> CombinerParams:
    """Fit by full-batch gradient descent on mean cross-entropy from zero init.

    `xs` holds one fusion input per row ([N x 10], from `build_input`) and
    `ys` its class.  Stops when the gradient max-norm falls below GRAD_TOL or
    after `max_epochs` steps.  The problem is convex; the analytic gradient
    is (softmax - onehot)^T x averaged over the dataset.

    The fit runs class-major: the inputs are held once as [11 x N], one row
    per input element and a row of ones that carries the bias, so W and b
    are one [5 x 11] matrix, the logits are [5 x N] and the softmax reduces
    over five contiguous rows.  Each epoch's logits are one fresh array that
    the softmax and the gradient's error term are computed in, in place: as
    one expression of fresh temporaries the fit was 3% slower (2-core Xeon,
    one BLAS thread).  The arithmetic is that of the row-major form,
    softmax(x W^T + b) with separate W and b gradients, summed in another
    order, so W and b can differ from it in the last bits.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=int)
    if len(ys) == 0 or len(xs) != len(ys):
        raise ValueError(f"combiner training set must be non-empty, one label per "
                         f"input; got {len(xs)} inputs for {len(ys)} labels")
    if xs.shape[1:] != (N_INPUTS,):
        raise ShapeError(f"combiner inputs must have {N_INPUTS} elements")
    quant_steps(xs)
    n = len(ys)
    x1 = np.ones((N_INPUTS + 1, n))
    x1[:N_INPUTS] = xs.T
    onehot = np.zeros((N_CLASSES, n))
    onehot[ys, np.arange(n)] = 1.0

    wb = np.zeros((N_CLASSES, N_INPUTS + 1))  # [W | b]
    for _ in range(cfg.max_epochs):
        z = wb @ x1
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        z -= onehot
        z /= n
        grad = z @ x1.T
        if np.abs(grad).max() < GRAD_TOL:
            break
        wb -= cfg.learning_rate * grad
    return CombinerParams(wb[:, :N_INPUTS].copy(), wb[:, N_INPUTS].copy())


def save_combiner(params: CombinerParams, path: Path | str) -> None:
    payload = {"W": params.W.tolist(), "b": params.b.tolist()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_combiner(path: Path | str) -> CombinerParams:
    """The fit a combiner file holds; every weight must be a JSON number."""
    def params(payload):
        W, b = payload["W"], payload["b"]
        if not (fits(W, ((0.0,) * N_INPUTS,) * N_CLASSES) and fits(b, (0.0,) * N_CLASSES)):
            raise ValueError("W and b must be 5x10 and 5 finite numbers")
        return CombinerParams(np.array(W), np.array(b))

    return read_json(Path(path), "a combiner file", params)
