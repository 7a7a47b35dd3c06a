"""Array primitives for the sensor CNNs: conv, pooling, batchnorm, dense, softmax.

All operations are plain float64 numpy, written so forward passes accept
either a single window (channels x time) or a batch (batch x channels x time).
Backward counterparts compute exact gradients and are checked against central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.momentum < 1:
            raise ValueError("momentum must lie in (0, 1)")
        if np.any(self.running_var < 0):
            raise ValueError("running_var components must be >= 0")
        n = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != (n,):
                raise ShapeError(f"{name} must have shape ({n},)")


@dataclass
class ConvBlockParams:
    """One conv + max-pool block; output channels always equal input channels."""

    kernels: np.ndarray  # [out_channels x in_channels x kernel_len]
    bias: np.ndarray     # [out_channels]
    pool_size: int

    def __post_init__(self):
        if self.kernels.ndim != 3:
            raise ShapeError("kernels must be [out x in x kernel_len]")
        out_c, in_c, _ = self.kernels.shape
        if out_c != in_c:
            raise ValueError("conv blocks preserve the channel count (out == in)")
        if self.bias.shape != (out_c,):
            raise ShapeError(f"bias must have shape ({out_c},)")
        if self.pool_size <= 0:
            raise ValueError("pool_size must be positive")


@dataclass
class DenseParams:
    weights: np.ndarray  # [out x in]
    bias: np.ndarray     # [out]

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ShapeError("weights must be [out x in]")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError("bias length must match the output width")


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    if x.ndim == 2:
        return x[None, :, :], True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"expected [C x T] or [B x C x T], got shape {x.shape}")


def _same_padding(kernel_len: int) -> tuple[int, int]:
    return (kernel_len - 1) // 2, kernel_len // 2


def pad_same(x: np.ndarray, kernel_len: int) -> np.ndarray:
    left, right = _same_padding(kernel_len)
    return np.pad(x, ((0, 0), (0, 0), (left, right)))


def conv1d_forward(x: np.ndarray, params: ConvBlockParams) -> np.ndarray:
    """Cross-correlation, stride 1, zero 'same' padding, plus per-channel bias."""
    xb, squeeze = _as_batch(x)
    out_c, in_c, klen = params.kernels.shape
    if xb.shape[1] != in_c:
        raise ShapeError(f"input has {xb.shape[1]} channels, kernels expect {in_c}")
    t = xb.shape[2]
    if t < 1:
        raise ShapeError("input must have at least one time step")
    xp = pad_same(xb, klen)
    y = np.broadcast_to(params.bias[None, :, None], (xb.shape[0], out_c, t)).copy()
    for k in range(klen):
        y += params.kernels[:, :, k] @ xp[:, :, k:k + t]
    return y[0] if squeeze else y


def conv1d_backward(
    delta: np.ndarray, x: np.ndarray, params: ConvBlockParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_bias, d_input) for conv1d_forward.

    `delta` and `x` are batched; `delta` must already carry any loss-mean
    scaling.
    """
    out_c, in_c, klen = params.kernels.shape
    t = x.shape[2]
    left, _ = _same_padding(klen)
    xp = pad_same(x, klen)
    d_kernels = np.empty_like(params.kernels)
    for k in range(klen):
        d_kernels[:, :, k] = np.einsum("bot,bct->oc", delta, xp[:, :, k:k + t])
    d_bias = delta.sum(axis=(0, 2))
    d_xp = np.zeros_like(xp)
    for k in range(klen):
        d_xp[:, :, k:k + t] += params.kernels[:, :, k].T @ delta
    return d_kernels, d_bias, d_xp[:, :, left:left + t]


def maxpool1d_with_argmax(
    x: np.ndarray, pool_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling; a trailing partial window is pooled as-is.

    Also returns the within-window argmax (first maximum on ties) used to
    route gradients back.
    """
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    xb, squeeze = _as_batch(x)
    b, c, t = xb.shape
    if t < 1:
        raise ShapeError("input must have at least one time step")
    n_out = -(-t // pool_size)
    padded = np.full((b, c, n_out * pool_size), -np.inf)
    padded[:, :, :t] = xb
    view = padded.reshape(b, c, n_out, pool_size)
    arg = view.argmax(axis=3)
    out = np.take_along_axis(view, arg[..., None], axis=3)[..., 0]
    return (out[0] if squeeze else out), arg


def maxpool1d_backward(
    delta: np.ndarray, arg: np.ndarray, pool_size: int, input_len: int
) -> np.ndarray:
    b, c, n_out = delta.shape
    d_pad = np.zeros((b, c, n_out, pool_size))
    np.put_along_axis(d_pad, arg[..., None], delta[..., None], axis=3)
    return d_pad.reshape(b, c, n_out * pool_size)[:, :, :input_len]


def batchnorm_forward_with_cache(
    x: np.ndarray, params: BatchNormParams, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel normalization.

    Train mode normalizes by the batch statistics (biased variance over the
    batch and time axes) and folds them into the running averages in place:
    running <- (1 - momentum) * running + momentum * batch.  Inference uses
    the running statistics and is pure.  Returns the output and the
    normalized pre-scale values (needed for gamma's gradient).
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    xb, squeeze = _as_batch(x)
    c = params.gamma.shape[0]
    if xb.shape[1] != c:
        raise ShapeError(f"input has {xb.shape[1]} channels, batchnorm expects {c}")
    if mode == "train":
        mean = xb.mean(axis=(0, 2))
        var = xb.var(axis=(0, 2))
        m = params.momentum
        # Written in place: a model's running statistics are views into its
        # parameter buffer, and rebinding would detach them from it.
        params.running_mean[...] = (1 - m) * params.running_mean + m * mean
        params.running_var[...] = (1 - m) * params.running_var + m * var
    else:
        mean = params.running_mean
        var = params.running_var
    xhat = (xb - mean[None, :, None]) / np.sqrt(var + params.epsilon)[None, :, None]
    out = params.gamma[None, :, None] * xhat + params.beta[None, :, None]
    if squeeze:
        return out[0], xhat[0]
    return out, xhat


def batchnorm_param_grads(
    delta: np.ndarray, xhat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_gamma, d_beta) given the gradient at the batchnorm output."""
    return (delta * xhat).sum(axis=(0, 2)), delta.sum(axis=(0, 2))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(delta: np.ndarray, pre_activation: np.ndarray) -> np.ndarray:
    return delta * (pre_activation > 0)


def dense_forward(x: np.ndarray, params: DenseParams) -> np.ndarray:
    if x.shape[-1] != params.weights.shape[1]:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match dense layer "
            f"input {params.weights.shape[1]}"
        )
    return x @ params.weights.T + params.bias


def dense_backward(
    delta: np.ndarray, x: np.ndarray, params: DenseParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return delta.T @ x, delta.sum(axis=0), delta @ params.weights


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
