"""Array primitives for the sensor CNNs: conv, pooling, batchnorm, dense, softmax.

The conv-block ops (conv, max-pool, batchnorm) take channel-major input
[C x B x T]: channel, then window, then time, so one channel's samples over
the whole batch are one contiguous [B*T] row.  A conv stacks its K taps into
one [K*C_in x B*T] array, `cols`, whose tap k is the zero-padded input
shifted by k, and is then a single GEMM with the kernels taken in (out, tap,
in) order.  Its backward pass takes the kernel gradient as one GEMM against
the same `cols`, and the input gradient as one more tap-stacked GEMM over
the output gradient.  Dense, ReLU and softmax act on [B x features].

All operations are plain numpy and take the parameter arrays they read.
They compute in the dtype of their input, and every scratch array they make
follows it: training runs them in float32 (see `train`), inference and the
finite-difference checks in float64.  The ops take their scratch arrays
as optional arguments, like numpy's `out=`: training passes conv buffers
that it reuses from step to step, and one-window inference the buffers its
model keeps, where each op writes the next one's input; without them fresh
arrays are allocated.  A conv copies its whole tap stack at once, from a
strided view of the padded input (`tap_view`).
Backward counterparts compute exact gradients and are checked in float64
against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def tap_view(xpad: np.ndarray, t: int) -> np.ndarray:
    """The taps of `xpad` [C x B x T+K-1], which must be C-contiguous, as one
    strided [K x C x B x T] view: tap k is xpad[:, :, k:k+T]."""
    c, b, n = xpad.shape
    sc, sb, st = xpad.strides
    return np.ndarray((n - t + 1, c, b, t), xpad.dtype, xpad,
                      strides=(st, sc, sb, st))


def _tap_gemm(
    x: np.ndarray,
    weights: np.ndarray,
    klen: int,
    before: int,
    xpad: np.ndarray | None,
    cols: np.ndarray | None,
    out: np.ndarray | None,
    taps: np.ndarray | None = None,
) -> np.ndarray:
    """`weights` [R x K*C] times the tap stack of `x` [C x B x T] zero-padded
    by `before` samples in front and K-1-before behind: [R x B*T].  Given
    `taps`, the tap view of a padded input whose interior already holds `x`,
    nothing is padded."""
    c, b, t = x.shape
    if taps is None:
        if xpad is None:
            xpad = np.empty((c, b, t + klen - 1), dtype=x.dtype)
        xpad[:, :, :before] = 0.0
        xpad[:, :, before:before + t] = x
        xpad[:, :, before + t:] = 0.0
        taps = tap_view(xpad, t)
    if cols is None:
        cols = np.empty((klen * c, b * t), dtype=x.dtype)
    cols.reshape(klen, c, b, t)[...] = taps
    return np.matmul(weights, cols, out=out)


def conv1d_forward(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    xpad: np.ndarray | None = None,
    cols: np.ndarray | None = None,
    out: np.ndarray | None = None,
    taps: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation, stride 1, zero 'same' padding, plus per-channel bias.

    `x` is [C_in x B x T] and `kernels` [C_out x C_in x K]; the result is
    [C_out x B x T].  Each window gets (K-1)//2 zeros before it and K//2
    after.  Optional scratch: `xpad` [C_in x B x T+K-1] for the padded
    input, `cols` [K*C_in x B*T], which afterwards holds the tap stack
    `conv1d_backward` reads, and `out` [C_out x B*T], which the result views.
    A caller that keeps a zeroed `xpad` may instead keep its `tap_view` and
    pass that as `taps`, with `x` written straight into the interior,
    xpad[:, :, (K-1)//2:][:, :, :T]: then the input is not copied and the
    padding, zero from the start, is never written.
    """
    out_c, in_c, klen = kernels.shape
    if x.ndim != 3 or x.shape[0] != in_c:
        raise ShapeError(f"input {x.shape} is not [{in_c} channels x batch x time]")
    _, b, t = x.shape
    if t < 1:
        raise ShapeError("input must have at least one time step")
    weights = kernels.transpose(0, 2, 1).reshape(out_c, klen * in_c)
    y = _tap_gemm(x, weights, klen, (klen - 1) // 2, xpad, cols, out, taps)
    y += bias[:, None]
    return y.reshape(out_c, b, t)


def conv1d_backward(
    delta: np.ndarray,
    cols: np.ndarray,
    kernels: np.ndarray,
    d_pad: np.ndarray | None = None,
    d_cols: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_bias, d_input) for conv1d_forward.

    `delta` [C_out x B x T] is the gradient at the output and must already
    carry any loss-mean scaling; `cols` is the tap stack the forward pass
    left.  The input gradient is itself a tap-stacked correlation: of
    `delta`, padded the other way round, with the kernels mirrored in time
    and with in and out channels swapped.  Optional scratch, as for
    conv1d_forward: `d_pad` [C_out x B x T+K-1], `d_cols` [K*C_out x B*T]
    and `out` [C_in x B*T], which the input gradient views.  `d_cols` may be
    `cols` itself: the kernel gradient reads `cols` before it is overwritten.
    """
    out_c, in_c, klen = kernels.shape
    _, b, t = delta.shape
    d = delta.reshape(out_c, b * t)
    d_kernels = (d @ cols.T).reshape(out_c, klen, in_c).transpose(0, 2, 1)
    mirrored = kernels[:, :, ::-1].transpose(1, 2, 0).reshape(in_c, klen * out_c)
    d_input = _tap_gemm(delta, mirrored, klen, klen // 2, d_pad, d_cols, out)
    return d_kernels, d.sum(axis=1), d_input.reshape(in_c, b, t)


def maxpool1d_with_argmax(
    x: np.ndarray, pool_size: int, offsets: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling along the last (time) axis; a trailing
    partial window is pooled as-is.

    Also returns the within-window argmax (first maximum on ties) used to
    route gradients back.  `offsets`, each window's first index into the
    flattened padded input (`window_offsets`), depends only on the shape, so
    a caller pooling one shape again and again may keep it.
    """
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    *lead, t = x.shape
    if t < 1:
        raise ShapeError("input must have at least one time step")
    n_out = -(-t // pool_size)
    if t % pool_size:
        padded = np.full((*lead, n_out * pool_size), -np.inf, dtype=x.dtype)
        padded[..., :t] = x
        x = padded
    arg = x.reshape(*lead, n_out, pool_size).argmax(axis=-1)
    flat = _flat_argmax(arg, pool_size, offsets)
    return x.reshape(-1)[flat].reshape(arg.shape), arg


def window_offsets(n_windows: int, pool_size: int) -> np.ndarray:
    """The first index of each of `n_windows` pool windows in the flattened
    padded input."""
    return np.arange(0, n_windows * pool_size, pool_size)


def _flat_argmax(
    arg: np.ndarray, pool_size: int, offsets: np.ndarray | None = None
) -> np.ndarray:
    """Each window's argmax as an index into the flattened padded input."""
    if offsets is None:
        offsets = window_offsets(arg.size, pool_size)
    return offsets + arg.reshape(-1)


def maxpool1d_backward(
    delta: np.ndarray, arg: np.ndarray, pool_size: int, input_len: int
) -> np.ndarray:
    """Route each window's gradient to its argmax; zeros elsewhere."""
    d = np.zeros(arg.size * pool_size, dtype=delta.dtype)
    d[_flat_argmax(arg, pool_size)] = delta.reshape(-1)
    return d.reshape(*arg.shape[:-1], -1)[..., :input_len]


def batchnorm_forward_with_cache(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    epsilon: float,
    momentum: float,
    mode: str,
    xhat: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel normalization of [C x B x T] input.

    Train mode normalizes by the batch statistics (biased variance over the
    batch and time axes, one contiguous [B*T] row per channel) and folds
    them into the running averages in place:
    running <- (1 - momentum) * running + momentum * batch.  Inference uses
    the running statistics and is pure.  Returns the output and the
    normalized pre-scale values (needed for gamma's gradient).  Optional
    scratch for inference, [C x B x T] each: `xhat` for the normalized
    values and `out` for the output.  They may be one array, which then
    ends up holding the output.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be 'train' or 'inference', got {mode!r}")
    c = gamma.shape[0]
    if x.shape[0] != c:
        raise ShapeError(f"input has {x.shape[0]} channels, batchnorm expects {c}")
    if mode == "train":
        rows = x.reshape(c, -1)
        mean = rows.mean(axis=1)
        centered = rows - mean[:, None]
        var = np.square(centered).mean(axis=1)
        # Written in place: a model's running statistics are views into its
        # parameter buffer, and rebinding would detach them from it.
        running_mean[...] = (1 - momentum) * running_mean + momentum * mean
        running_var[...] = (1 - momentum) * running_var + momentum * var
        centered = centered.reshape(x.shape)
    else:
        centered = np.subtract(x, running_mean[:, None, None], out=xhat)
        var = running_var
    xhat = np.divide(centered, np.sqrt(var + epsilon)[:, None, None], out=centered)
    y = np.multiply(gamma[:, None, None], xhat, out=out)
    y += beta[:, None, None]
    return y, xhat


def batchnorm_param_grads(
    delta: np.ndarray, xhat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d_gamma, d_beta) given the gradient at the [C x B x T] batchnorm output."""
    return (delta * xhat).sum(axis=(1, 2)), delta.sum(axis=(1, 2))


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(delta: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """Gradient through ReLU given its input or, equally, its output."""
    return delta * (activation > 0)


def dense_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """x @ weights.T + bias, with `weights` [out x in], into `out` if given."""
    if x.shape[-1] != weights.shape[1]:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match dense layer "
            f"input {weights.shape[1]}"
        )
    y = np.matmul(x, weights.T, out=out)
    y += bias
    return y


def dense_backward(
    delta: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return delta.T @ x, delta.sum(axis=0), delta @ weights


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
