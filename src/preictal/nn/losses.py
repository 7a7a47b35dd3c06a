"""Focal loss: cross-entropy reweighted by (1 - p_t)^gamma and per-class alpha.

With gamma = 0 and all alpha = 1 this is exactly plain cross-entropy.  The
target probability is clamped at 1e-12 before the log so a confidently wrong
prediction yields a large finite loss instead of an infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import N_CLASSES

P_CLAMP = 1e-12
FOCAL_GAMMA = 2.0  # training's gamma; 2 worked best in Lin et al. (2017)


@dataclass
class FocalLossConfig:
    gamma: float
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.alpha.shape != (N_CLASSES,):
            raise ValueError(f"alpha must have shape ({N_CLASSES},)")
        if np.any(self.alpha <= 0) or np.any(self.alpha > 1):
            raise ValueError("alpha components must lie in (0, 1]")


def inverse_frequency_alpha(labels: np.ndarray) -> np.ndarray:
    """Per-class weights proportional to inverse frequency, scaled to max 1.

    Classes absent from `labels` get weight 1.
    """
    counts = np.bincount(np.asarray(labels, dtype=int), minlength=N_CLASSES)
    counts = counts[:N_CLASSES].astype(float)
    alpha = np.ones(N_CLASSES)
    present = counts > 0
    if present.any():
        alpha[present] = counts[present].min() / counts[present]
    return alpha


def focal_loss_batch(
    probs: np.ndarray, targets: np.ndarray, cfg: FocalLossConfig
) -> np.ndarray:
    """Per-example focal loss for probs [B x 5] and integer targets [B]."""
    targets = np.asarray(targets, dtype=int)
    p_t = np.maximum(probs[np.arange(len(targets)), targets], P_CLAMP)
    return -cfg.alpha[targets] * (1.0 - p_t) ** cfg.gamma * np.log(p_t)


def focal_grad_wrt_logits(
    probs: np.ndarray, targets: np.ndarray, cfg: FocalLossConfig
) -> np.ndarray:
    """Gradient of the MEAN focal loss with respect to the softmax logits, in
    the dtype of `probs`.

    d loss / d p_t = alpha_t [gamma (1-p)^{gamma-1} ln p - (1-p)^gamma / p],
    then through the softmax Jacobian.  The term is computed for every row,
    with floating-point warnings off (at p_t = 1 and gamma < 1 it is inf
    times 0); then the rows the clamp below P_CLAMP or p_t = 1 flattens are
    set to zero.
    """
    b = probs.shape[0]
    targets = np.asarray(targets, dtype=int)
    rows = np.arange(b)
    p_raw = probs[rows, targets]
    p = np.maximum(p_raw, P_CLAMP)
    one_m = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        term = -(one_m ** cfg.gamma) / p
        if cfg.gamma > 0:
            term = term + cfg.gamma * one_m ** (cfg.gamma - 1.0) * np.log(p)
    dl_dp = np.where((p_raw > P_CLAMP) & (one_m > 0), cfg.alpha[targets] * term,
                     0.0).astype(probs.dtype)
    onehot = np.zeros_like(probs)
    onehot[rows, targets] = 1.0
    d_logits = dl_dp[:, None] * p[:, None] * (onehot - probs)
    return d_logits / b
