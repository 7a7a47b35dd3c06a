"""Mini-batch training with seeded shuffling and early stopping on validation loss.

Training is mixed precision in the master-weight form (Micikevicius et al.,
"Mixed Precision Training", arXiv:1710.03740): each step's forward and
backward passes compute in float32, on the training windows cast once per
call, while the parameters, Adam's moments and the best-epoch snapshot stay
float64, and Adam applies the float32-computed gradient to them in float64.
Validation, and all inference after training, run in float64.

The float32 training windows are held channel-major, [C x N x T], so a
step's batch, gathered as np.take(xs, idx, axis=1), is already the
[C x B x T] layout the conv blocks run in, and batchnorm reads each
channel's batch as one contiguous row instead of copying a transposed batch
at every step.  (xs[:, idx] would not do: numpy lays out the result of an
index array after a slice window-major, as a transposed view.)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .losses import FOCAL_GAMMA, FocalLossConfig, focal_loss_batch, inverse_frequency_alpha
from .model import Buffers, SensorModel, _check_input, backward_batch, model_forward
from .optim import AdamState, TrainConfig, adam_step


@dataclass
class TrainReport:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0


def evaluate(
    model: SensorModel, xs: np.ndarray, ys: np.ndarray, loss_cfg: FocalLossConfig
) -> tuple[float, float]:
    """(mean focal loss, accuracy) with batchnorm on its running statistics."""
    probs = model_forward(model, xs)
    loss = float(focal_loss_batch(probs, ys, loss_cfg).mean())
    return loss, int((probs.argmax(axis=1) == ys).sum()) / len(xs)


def _check_finite(model: SensorModel, loss: float, what: str, epoch: int) -> None:
    if not math.isfinite(loss):
        raise ValueError(f"{model.sensor.value} model: {what} is {loss} at epoch "
                         f"{epoch}; are there NaN or inf values in the windows?")


def train(
    model: SensorModel,
    xs: np.ndarray,
    ys: np.ndarray,
    xv: np.ndarray,
    yv: np.ndarray,
    train_cfg: TrainConfig,
) -> tuple[SensorModel, TrainReport]:
    """Train in place; returns the model restored to its best-validation state.

    `xs` [N x C x T] and `ys` [N] are the training windows and their classes,
    `xv` and `yv` the validation ones (see `dataset.Windows`).  The
    epoch shuffle is seeded with the model's `seed`.  The focal loss has
    gamma FOCAL_GAMMA and alpha weights at the inverse class frequency
    of the training windows (normalized to max 1).  Early stopping
    keeps the snapshot with the lowest validation focal loss and gives up
    after `patience` epochs without improvement.  A non-finite batch or
    validation loss raises ValueError.  The steps compute in float32 on a
    channel-major float32 copy of `xs`, made once per call (none is made when
    `xs` is the [N x C x T] view of a C-contiguous float32 [C x N x T] block,
    as a fold passes it), each on a [B x C x T] view of its C-contiguous
    [C x B x T] batch; validation runs in float64.
    Each batch size's training `Buffers` (its float32 parameter copy, its
    gradient and its arrays) is made on the first step of that size and
    reused by every later one in the call; none of them outlives it.
    """
    if not (len(xs) == len(ys) > 0 and len(xv) == len(yv) > 0):
        raise ValueError("train and validation window sets must be non-empty, "
                         "with one label per window")
    _check_input(model, xs)
    _check_input(model, xv)
    loss_cfg = FocalLossConfig(gamma=FOCAL_GAMMA, alpha=inverse_frequency_alpha(ys))
    xs = np.ascontiguousarray(xs.transpose(1, 0, 2), dtype=np.float32)

    rng = np.random.default_rng(model.seed)
    state = AdamState.for_params(model.buffer)
    report = TrainReport()
    best_val = np.inf
    bad_epochs = 0
    buffers: dict[int, Buffers] = {}

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(len(ys))
        batch_losses = []
        batch_sizes = []
        for i in range(0, len(order), train_cfg.batch_size):
            idx = order[i:i + train_cfg.batch_size]
            xb = np.take(xs, idx, axis=1).transpose(1, 0, 2)
            b = len(idx)
            if b not in buffers:
                buffers[b] = Buffers(model, b, np.float32)
            loss, grad = backward_batch(model, xb, ys[idx], loss_cfg, buffers[b])
            _check_finite(model, loss, "batch loss", epoch)
            adam_step(model.buffer, grad, state, train_cfg)
            batch_losses.append(loss)
            batch_sizes.append(b)
        train_loss = float(np.average(batch_losses, weights=batch_sizes))
        val_loss, val_acc = evaluate(model, xv, yv, loss_cfg)
        _check_finite(model, val_loss, "validation loss", epoch)
        report.epochs.append(epoch)
        report.train_loss.append(train_loss)
        report.val_loss.append(val_loss)
        report.val_accuracy.append(val_acc)
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = model.buffer.copy()
            report.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_cfg.patience:
                break

    # Epoch 1 always improves on inf, so a snapshot exists.
    model.buffer[...] = best_snapshot
    return model, report


def write_train_report(report: TrainReport, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_accuracy"])
        for row in zip(report.epochs, report.train_loss, report.val_loss,
                       report.val_accuracy):
            writer.writerow(row)
