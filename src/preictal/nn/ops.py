"""Array primitives for the sensor CNNs: conv, pooling, batchnorm, dense, softmax.

All operations are plain float64 numpy over batched input (batch x channels
x time) and take the parameter arrays they read.  Backward counterparts
compute exact gradients and are checked against central finite differences
in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def _same_padding(kernel_len: int) -> tuple[int, int]:
    return (kernel_len - 1) // 2, kernel_len // 2


def pad_same(x: np.ndarray, kernel_len: int) -> np.ndarray:
    left, right = _same_padding(kernel_len)
    return np.pad(x, ((0, 0), (0, 0), (left, right)))


def conv1d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlation, stride 1, zero 'same' padding, plus per-channel bias.

    `kernels` is [out_channels x in_channels x kernel_len].
    """
    out_c, in_c, klen = kernels.shape
    if x.shape[1] != in_c:
        raise ShapeError(f"input has {x.shape[1]} channels, kernels expect {in_c}")
    t = x.shape[2]
    if t < 1:
        raise ShapeError("input must have at least one time step")
    xp = pad_same(x, klen)
    y = np.broadcast_to(bias[None, :, None], (x.shape[0], out_c, t)).copy()
    for k in range(klen):
        y += kernels[:, :, k] @ xp[:, :, k:k + t]
    return y


def conv1d_backward(
    delta: np.ndarray, x: np.ndarray, kernels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_bias, d_input) for conv1d_forward.

    `delta` must already carry any loss-mean scaling.
    """
    klen = kernels.shape[2]
    t = x.shape[2]
    left, _ = _same_padding(klen)
    xp = pad_same(x, klen)
    d_kernels = np.empty_like(kernels)
    for k in range(klen):
        d_kernels[:, :, k] = np.einsum("bot,bct->oc", delta, xp[:, :, k:k + t])
    d_bias = delta.sum(axis=(0, 2))
    d_xp = np.zeros_like(xp)
    for k in range(klen):
        d_xp[:, :, k:k + t] += kernels[:, :, k].T @ delta
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
    b, c, t = x.shape
    if t < 1:
        raise ShapeError("input must have at least one time step")
    n_out = -(-t // pool_size)
    padded = np.full((b, c, n_out * pool_size), -np.inf)
    padded[:, :, :t] = x
    view = padded.reshape(b, c, n_out, pool_size)
    arg = view.argmax(axis=3)
    return np.take_along_axis(view, arg[..., None], axis=3)[..., 0], arg


def maxpool1d_backward(
    delta: np.ndarray, arg: np.ndarray, pool_size: int, input_len: int
) -> np.ndarray:
    b, c, n_out = delta.shape
    d_pad = np.zeros((b, c, n_out, pool_size))
    np.put_along_axis(d_pad, arg[..., None], delta[..., None], axis=3)
    return d_pad.reshape(b, c, n_out * pool_size)[:, :, :input_len]


def batchnorm_forward_with_cache(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    epsilon: float,
    momentum: float,
    mode: str,
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
    c = gamma.shape[0]
    if x.shape[1] != c:
        raise ShapeError(f"input has {x.shape[1]} channels, batchnorm expects {c}")
    if mode == "train":
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        # Written in place: a model's running statistics are views into its
        # parameter buffer, and rebinding would detach them from it.
        running_mean[...] = (1 - momentum) * running_mean + momentum * mean
        running_var[...] = (1 - momentum) * running_var + momentum * var
    else:
        mean = running_mean
        var = running_var
    xhat = (x - mean[None, :, None]) / np.sqrt(var + epsilon)[None, :, None]
    return gamma[None, :, None] * xhat + beta[None, :, None], xhat


def batchnorm_param_grads(
    delta: np.ndarray, xhat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_gamma, d_beta) given the gradient at the batchnorm output."""
    return (delta * xhat).sum(axis=(0, 2)), delta.sum(axis=(0, 2))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(delta: np.ndarray, pre_activation: np.ndarray) -> np.ndarray:
    return delta * (pre_activation > 0)


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weights.T + bias, with `weights` [out x in]."""
    if x.shape[-1] != weights.shape[1]:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match dense layer "
            f"input {weights.shape[1]}"
        )
    return x @ weights.T + bias


def dense_backward(
    delta: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return delta.T @ x, delta.sum(axis=0), delta @ weights


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
