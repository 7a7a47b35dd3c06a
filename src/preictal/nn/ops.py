"""Array primitives for the sensor CNNs: conv, pooling, batchnorm, dense, softmax.

The conv-block ops (conv, max-pool, batchnorm) take channel-major input
[C x B x T]: channel, then window, then time, so one channel's samples over
the whole batch are one contiguous [B*T] row.  A conv stacks its K taps into
one [K*C_in x B*T] array, `cols`, whose tap k is the zero-padded input
shifted by k, and is then a single GEMM with the kernels taken in (out, tap,
in) order.  Its backward pass takes the kernel gradient as one GEMM against
the same `cols`, and the input gradient as one more tap-stacked GEMM over
the output gradient.  Max-pooling reads sample j of every window as one
strided slice and takes the max as elementwise maxima of those slices, with
no per-window reduction; the argmax that routes its gradient is folded into
the same pass with integer arithmetic, and only when the caller asks for
it, as training does.  Dense, ReLU and softmax act on [B x features].

All operations are plain numpy, take the parameter arrays they read and
keep nothing between calls: a backward op takes what its forward
counterpart left, a conv's tap stack, a pool's argmax, batchnorm's
normalized input, and the caller keeps those (see `model.Buffers`).
Batchnorm's `training` flag picks the batch statistics over the running
ones.  The ops compute in the dtype of their input, and every float
scratch array they make follows it: training runs them in float32 (see
`train`), inference and the finite-difference checks in float64.

An op takes its inputs and parameters, and one more argument, `bound`, for
everything else: the arrays it writes, its output and scratch, and its
slices and layout views of them and of its inputs.  Its `bind_*` helper
makes that binding, and it alone takes the arrays to write into: each is
optional there and fresh if not given.  Batchnorm writes only its output,
so its binding is that array.  A caller that runs an op again and again on
the same arrays binds once and passes the binding to every call (see
`model.Buffers`), so an inference call only calls numpy; without `bound`
the op binds for itself, on fresh arrays, through the same helper, and
then runs the same code.  Training's batch statistics and argmax steps,
inference batchnorm's scale and shift and the pool scatter's index stay
fresh at each call: kept, none bought time the benchmark host could
resolve, and training's moved a benchmark's peak RSS by 13% through where
glibc placed them.  A binding holds views of the parameter arrays it was
made from, and a conv's binding refills its two weight-derived scratch
arrays, the kernels in (out, tap, in) order and the mirrored kernels, at
every call, so it is never stale: made fresh at each call, they slowed
the one-window forward and the training step.  A binding with a kept
zero-padded conv input reads whatever its interior holds at each call; a
binding without one pads a fresh copy of the input it was made for and
serves that input only.  Into a kept tap stack a conv copies all its taps
at once, from a strided view of the padded input.  A fresh tap stack, which
only batched inference builds, is built and multiplied one tile of windows
at a time, each tile about TAP_TILE_BYTES: half the 2 MiB per-core L2 of
the benchmark host, so the GEMM reads a tile the copy has just left in
cache.  Each output column of the GEMM is one window's samples, so the tile
size does not change a bit.  A GEMM operand is never a negatively strided
view: numpy hands such an operand to its own loop, not to BLAS.  The
one-channel ECG model's mirrored kernels, [1 x K] with stride -1 along the
taps, made its float32 [1 x 5] by [5 x 10240] input-gradient product take
68 us, against 7 us for a contiguous copy (2-core Xeon, one BLAS thread).

Inference batchnorm is one per-channel affine map, x * s + (beta - mean * s)
with s = gamma / sqrt(var + eps), computed from the running statistics at
each call.  Backward counterparts compute exact gradients and are
checked in float64 against central finite differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError

TAP_TILE_BYTES = 1 << 20  # a fresh tap stack's tile: half a 2 MiB per-core L2


def tap_view(xpad: np.ndarray, t: int) -> np.ndarray:
    """The taps of `xpad` [C x B x T+K-1], which must be C-contiguous, as one
    strided [K x C x B x T] view: tap k is xpad[:, :, k:k+T]."""
    c, b, n = xpad.shape
    sc, sb, st = xpad.strides
    return np.ndarray((n - t + 1, c, b, t), xpad.dtype, xpad,
                      strides=(st, sc, sb, st))


def _bind_tap_gemm(x, weights, klen, before, cols, out, taps):
    """The tiles and output of `weights` [R x K*C] times the tap stack of
    `x` [C x B x T] zero-padded by `before` samples in front and K-1-before
    behind: ([(cols tile as [K x C x n x T], its taps, cols tile, out
    columns)], out [R x B*T]).  Without `taps`, `x` is copied into a fresh
    padded array; without `cols` the stack is built one tile of windows of
    about TAP_TILE_BYTES at a time."""
    c, b, t = x.shape
    if taps is None:
        xpad = np.empty((c, b, t + klen - 1), dtype=x.dtype)
        xpad[:, :, :before] = 0.0
        xpad[:, :, before:before + t] = x
        xpad[:, :, before + t:] = 0.0
        taps = tap_view(xpad, t)
    if out is None:
        out = np.empty((weights.shape[0], b * t), np.result_type(weights, x))
    tile = b
    if cols is None:
        tile = min(b, max(1, TAP_TILE_BYTES // (klen * c * t * x.itemsize)))
        cols = np.empty((klen * c, tile * t), dtype=x.dtype)
    tiles = []
    for w in range(0, b, tile):
        n = min(tile, b - w)
        part = cols[:, :n * t]
        tiles.append((part.reshape(klen, c, n, t), taps[:, :, w:w + n], part,
                      out[:, w * t:(w + n) * t]))
    return tiles, out


def _tap_gemm(weights: np.ndarray, tiles: list) -> None:
    for stack, taps, part, out in tiles:
        np.copyto(stack, taps)
        np.matmul(weights, part, out=out)


def bind_conv1d_forward(x, kernels, bias, cols=None, out=None, taps=None) -> tuple:
    """What `conv1d_forward` of these arguments reads and writes: the
    kernels in (out, tap, in) order as the GEMM reads them, [C_out x K*C_in],
    the (scratch view, kernels view) pair that refills them at each call, or
    None where they are a view of the kernels (one input channel or one
    tap), the bias as a column, the tap GEMM's tiles, `out` [C_out x B*T]
    and the result, its [C_out x B x T] view.

    Optional arrays, fresh if not given: `cols` [K*C_in x B*T], which after
    each call holds the tap stack `conv1d_backward` reads, and `out`.
    Without `taps` the input is copied into a fresh zero-padded array, and
    the binding serves that input only.  A caller that keeps a zero-padded
    input [C_in x B x T+K-1] passes its `tap_view` as `taps`, with `x`
    written straight into the interior, xpad[:, :, (K-1)//2:][:, :, :T]:
    then the input is not copied and the padding is never written."""
    out_c, in_c, klen = kernels.shape
    if x.ndim != 3 or x.shape[0] != in_c:
        raise ShapeError(f"input {x.shape} is not [{in_c} channels x batch x time]")
    _, b, t = x.shape
    if t < 1:
        raise ShapeError("input must have at least one time step")
    by_tap = kernels.transpose(0, 2, 1)
    weights = by_tap.reshape(out_c, klen * in_c)
    refill = None
    if not np.shares_memory(weights, kernels):  # a copy, stale after a step
        refill = (weights.reshape(by_tap.shape), by_tap)
    tiles, out = _bind_tap_gemm(x, weights, klen, (klen - 1) // 2, cols, out, taps)
    return (weights, refill, bias[:, None], tiles, out, out.reshape(out_c, b, t))


def conv1d_forward(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, bound: tuple | None = None,
) -> np.ndarray:
    """Cross-correlation, stride 1, zero 'same' padding, plus per-channel bias.

    `x` is [C_in x B x T] and `kernels` [C_out x C_in x K]; the result is
    [C_out x B x T].  Each window gets (K-1)//2 zeros before it and K//2
    after.  `bound` is `bind_conv1d_forward` of these arguments; given it,
    the rest but for the kernels' and the padded interior's values is not
    read, and the result is a view of its `out`.
    """
    if bound is None:
        bound = bind_conv1d_forward(x, kernels, bias)
    weights, refill, bias_column, tiles, out, y = bound
    if refill is not None:
        np.copyto(*refill)
    _tap_gemm(weights, tiles)
    out += bias_column
    return y


def bind_conv1d_backward(delta, cols, kernels, d_cols=None, out=None,
                         d_taps=None) -> tuple:
    """What `conv1d_backward` of these arguments reads and writes: `delta`
    as [C_out x B*T], `cols`' transpose, the kernel gradient [C_out x K*C_in]
    and its [C_out x C_in x K] view, the bias gradient, the mirrored
    kernels' scratch [C_in x K*C_out], as the GEMM reads it and as
    [C_in x K x C_out], the kernels mirrored in that order, the tap GEMM's
    tiles and the input gradient, a [C_in x B x T] view of `out`.

    Optional arrays, as for `bind_conv1d_forward`: `d_cols` [K*C_out x B*T]
    and `out` [C_in x B*T], and `d_taps`, the `tap_view` of a zero-padded
    [C_out x B x T+K-1] array whose interior, xpad[:, :, K//2:][:, :, :T],
    holds `delta` at each call; without it `delta` is copied into a fresh
    padded array.  `d_cols` may be `cols` itself: the kernel gradient reads
    `cols` before it is overwritten."""
    out_c, in_c, klen = kernels.shape
    _, b, t = delta.shape
    d = delta.reshape(out_c, b * t)
    d_kernels = np.empty((out_c, klen * in_c), np.result_type(d, cols))
    mirrored = np.empty((in_c, klen * out_c), kernels.dtype)
    tiles, out = _bind_tap_gemm(delta, mirrored, klen, klen // 2, d_cols, out,
                                d_taps)
    return (d, cols.T, d_kernels,
            d_kernels.reshape(out_c, klen, in_c).transpose(0, 2, 1),
            np.empty(out_c, d.dtype), mirrored,
            mirrored.reshape(in_c, klen, out_c), kernels[:, :, ::-1].transpose(1, 2, 0),
            tiles, out.reshape(in_c, b, t))


def conv1d_backward(
    delta: np.ndarray, cols: np.ndarray, kernels: np.ndarray,
    bound: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_bias, d_input) for conv1d_forward.

    `delta` [C_out x B x T] is the gradient at the output and must already
    carry any loss-mean scaling; `cols` is the tap stack the forward pass
    left.  The input gradient is itself a tap-stacked correlation: of
    `delta`, padded the other way round, with the kernels mirrored in time
    and with in and out channels swapped.  The mirrored kernels are copied
    C-contiguous, so that BLAS, not numpy's own loop, multiplies them.
    `bound` is `bind_conv1d_backward` of these arguments; the gradients are
    then its arrays, which the next call through it overwrites.
    """
    if bound is None:
        bound = bind_conv1d_backward(delta, cols, kernels)
    (d, cols_t, d_kernels, d_kernels_out, d_bias, mirrored, by_tap,
     kernels_by_tap, tiles, d_input) = bound
    np.matmul(d, cols_t, out=d_kernels)
    np.sum(d, axis=1, out=d_bias)
    np.copyto(by_tap, kernels_by_tap)
    _tap_gemm(mirrored, tiles)
    return d_kernels_out, d_bias, d_input


def bind_maxpool1d(x, pool_size, out=None, arg=None) -> tuple:
    """What `maxpool1d_with_argmax` of these arguments reads and writes:
    (`out`, `arg`, (out, x, arg) over the windows of one sample or None, and
    per sample j >= 1 of a window (j, x's sample j, the running max, out,
    arg), each cut to the windows that sample reaches).  `out` is fresh if
    not given; `arg`, an unsigned integer array shaped like `out`, asks the
    pool for its argmax, and without it no argmax slice is made."""
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    t = x.shape[-1]
    if t < 1:
        raise ShapeError("input must have at least one time step")
    best = x[..., ::pool_size]  # the running max: first, each window's sample 0
    n = best.shape[-1]
    if out is None:
        out = np.empty(best.shape, x.dtype)
    paired = -(-(t - 1) // pool_size) if pool_size > 1 else 0
    singles = None
    if paired < n:
        singles = (out[..., paired:], best[..., paired:],
                   None if arg is None else arg[..., paired:])
    steps = []
    for j in range(1, min(pool_size, t)):
        xj = x[..., j::pool_size]
        m, a = out, arg
        if xj.shape[-1] < n:  # the partial window ends before sample j
            k = xj.shape[-1]
            best, m = best[..., :k], out[..., :k]
            a = None if arg is None else arg[..., :k]
        steps.append((j, xj, best, m, a))
        best = out
    return out, arg, singles, steps


def maxpool1d_with_argmax(
    x: np.ndarray, pool_size: int, bound: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Non-overlapping max pooling along the last (time) axis; a trailing
    partial window is pooled as-is.  Returns (`out`, `arg`).

    Sample j of every window is the strided slice x[..., j::pool_size], so
    the pool is pool_size-1 elementwise maxima of those slices into `out`.
    A slice the partial window does not reach is one window shorter; a
    window of one sample is copied.  Given an `arg`, the same pass writes
    each window's within-window argmax there, the first maximum on ties,
    for `maxpool1d_backward`: a sample that beats the running max strictly
    moves the index to its j, as arg = max(arg, (x_j > max) * j), with no
    masked select.  `bound` is `bind_maxpool1d` of these arguments and the
    `out` and `arg` it names; without it `out` is fresh and no index is
    computed.
    """
    if bound is None:
        bound = bind_maxpool1d(x, pool_size)
    out, arg, singles, steps = bound
    if singles is not None:  # windows of one sample
        np.copyto(singles[0], singles[1])
        if arg is not None:
            singles[2].fill(0)
    for j, xj, best, m, a in steps:
        if arg is not None:
            if j == 1:
                np.greater(xj, best, out=a)
            else:
                step = np.greater(xj, best, out=np.empty(a.shape, a.dtype))
                step *= j
                np.maximum(a, step, out=a)
        np.maximum(best, xj, out=m)
    return out, arg


def pool_offsets(shape: tuple[int, ...], pool_size: int) -> np.ndarray:
    """Where each pool window of a C-contiguous [... x T] array `shape`
    starts, as flat element offsets: [... x ceil(T / pool_size)]."""
    *lead, t = shape
    rows = np.arange(math.prod(lead), dtype=np.intp)[:, None] * t
    return (rows + np.arange(0, t, pool_size)).reshape(*lead, -1)


def bind_maxpool1d_backward(arg, pool_size, input_len, dtype) -> tuple:
    """What `maxpool1d_backward` of `arg` and a gradient of `dtype` writes:
    the result [... x input_len], C-contiguous, its flat view and the
    `pool_offsets` of its shape."""
    out = np.empty((*arg.shape[:-1], input_len), dtype)
    return out, out.reshape(-1), pool_offsets(out.shape, pool_size)


def maxpool1d_backward(
    delta: np.ndarray, arg: np.ndarray, pool_size: int, input_len: int,
    bound: tuple | None = None,
) -> np.ndarray:
    """Route each window's gradient to its argmax; zeros elsewhere.

    The result, [... x input_len], is zeroed and each window's gradient
    scattered to flat offset base + arg, base being where the window
    starts.  `bound` is `bind_maxpool1d_backward` of these arguments; the
    result is then its array, which the next call through it overwrites.
    """
    if bound is None:
        bound = bind_maxpool1d_backward(arg, pool_size, input_len, delta.dtype)
    out, flat, base = bound
    out.fill(0.0)
    flat[base + arg] = delta
    return out


def batchnorm_forward_with_cache(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    epsilon: float,
    momentum: float,
    training: bool,
    bound: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel normalization of [C x B x T] input.

    Training normalizes by the batch statistics (biased variance over the
    batch and time axes, one contiguous [B*T] row per channel) and folds
    them into the running averages in place:
    running <- (1 - momentum) * running + momentum * batch.  Inference uses
    the running statistics and is pure: one per-channel affine map,
    x * s + (beta - running_mean * s) with s = gamma / sqrt(running_var +
    epsilon).  Training returns the output and the normalized pre-scale
    values (needed for gamma's gradient); inference computes no normalized
    values and returns its output twice.  Batchnorm's binding is its
    output array [C x B x T], or None for a fresh one; its scale, shift and
    statistics are computed fresh at each call.
    """
    c = gamma.shape[0]
    if x.shape[0] != c:
        raise ShapeError(f"input has {x.shape[0]} channels, batchnorm expects {c}")
    if not training:
        scale = gamma / np.sqrt(running_var + epsilon)
        y = np.multiply(x, scale[:, None, None], out=bound)
        y += (beta - running_mean * scale)[:, None, None]
        return y, y
    rows = x.reshape(c, -1)
    mean = rows.mean(axis=1)
    centered = rows - mean[:, None]
    var = np.square(centered).mean(axis=1)
    # Written in place: a model's running statistics are views into its
    # parameter buffer, and rebinding would detach them from it.
    running_mean[...] = (1 - momentum) * running_mean + momentum * mean
    running_var[...] = (1 - momentum) * running_var + momentum * var
    centered = centered.reshape(x.shape)
    xhat = np.divide(centered, np.sqrt(var + epsilon)[:, None, None], out=centered)
    y = np.multiply(gamma[:, None, None], xhat, out=bound)
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


def bind_dense(x, weights, out=None) -> tuple:
    """What `dense_forward` reads and writes: (`weights.T`, `out` [B x out]
    or None for a fresh one), once `x` is checked to fit."""
    if x.shape[-1] != weights.shape[1]:
        raise ShapeError(
            f"input width {x.shape[-1]} does not match dense layer "
            f"input {weights.shape[1]}"
        )
    return weights.T, out


def dense_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray, bound: tuple | None = None,
) -> np.ndarray:
    """x @ weights.T + bias, with `weights` [out x in].  `bound` is
    `bind_dense` of `x` and `weights`."""
    weights_t, out = bind_dense(x, weights) if bound is None else bound
    y = np.matmul(x, weights_t, out=out)
    y += bias
    return y


def dense_backward(
    delta: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return delta.T @ x, delta.sum(axis=0), delta @ weights


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed with max subtraction, in place
    in the one array it returns."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e
