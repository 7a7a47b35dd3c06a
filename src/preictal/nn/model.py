"""Per-sensor CNN: batchnorm, four conv/max-pool blocks, three dense layers.

The forward pass is batchnorm -> 4 x (conv -> maxpool -> ReLU) -> flatten ->
dense -> ReLU -> dense -> ReLU -> dense -> softmax over the five classes.
ReLU commutes with max, so it runs in place on each conv output, before the
pool: the values are the same, and so are the gradients, since a window
whose max is not positive passes none.  On the contiguous conv output it
is one cheap call even for one window.  Windows arrive as [B x C x T];
from the batchnorm to the flatten the activations are channel-major,
[C x B x T], so each conv is one tap-stacked GEMM over the whole batch (see
`ops`).  `backward_batch` runs reverse-mode differentiation through the
whole stack and returns exact gradients of the mean focal loss for every
trainable parameter.  It computes in the dtype of its windows, which
`train` makes float32, against a copy of the float64 parameters cast to
that dtype (see `train`).  Inference is the same forward pass in float64,
normalizing by the running statistics and asking the pool for no argmax.

Every array of a pass is written into a `Buffers` or, in batched
inference, is fresh.  In a `Buffers` each op writes where the next one
reads and the padding, zero from the start, is never written, so a conv is
one tap copy and one GEMM.  A `Buffers` is its pass's whole state: the
parameter views it reads, the kind of pass, and its arrays as one binding
per op (see `ops`), made once, so an inference pass through it only calls
numpy; on fresh arrays each op gets no binding, binds for itself at each
call and runs the same code.  A training `Buffers` also owns the step's
parameter copy and gradient, and its backward pass reads what the forward
pass left there; `train` keeps one per batch size for the call.  One
window, as a sensor node classifies each window as it arrives, runs in the
batch-1 inference `Buffers` its model keeps from its first one-window call
on (113 KB for the desk EEG model, 43 KB for the ECG one, with the
bindings).  Batched inference runs in chunks of FORWARD_CHUNK
windows on fresh arrays, each conv building its tap stack one L2-sized
tile of windows at a time (see `ops`): kept 64-window buffers raised the
peak RSS of a benchmark `simulate` run from 158 to 180 MB, and buffers
made per call or per chunk ran slower.  The chunk stays at 64 windows: the
dense layers' GEMMs, unlike the conv's, give bits that depend on their row
count.

A `SensorModel` is an immutable architecture spec plus one flat float64
buffer.  The spec's fields are the weight-file header's (sensor, channels,
window length, kernel length, pool sizes, hidden widths, batchnorm epsilon
and momentum, seed); from them alone follow the buffer layout, the conv
stack's output width and the header.  Every array is a named view into the
buffer, in the order of the weight files: batchnorm (gamma, beta,
running_mean, running_var), blocks 1-4 (kernels, bias), dense 1-3 (weights,
bias).  Gradients use the same layout, so Adam, best-epoch snapshots and
weight files each handle one array.  Weight files are version 1 and hold
the buffer as little-endian float64 (`<f8`), whatever precision trained it;
`load_model` refuses a file whose buffer holds a non-finite value.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..dataset import N_CLASSES, Sensor
from ..errors import ShapeError, fits
from .losses import FocalLossConfig, focal_grad_wrt_logits, focal_loss_batch
from .ops import (
    batchnorm_forward_with_cache,
    batchnorm_param_grads,
    bind_batchnorm,
    bind_conv1d_backward,
    bind_conv1d_forward,
    bind_dense,
    bind_maxpool1d,
    bind_maxpool1d_backward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_with_argmax,
    relu,
    relu_backward,
    softmax,
    tap_view,
)

MODEL_MAGIC = b"PSM1"
N_BLOCKS = 4
N_DENSE = 3
FORWARD_CHUNK = 64  # windows per batched inference pass; bounds memory.  The
# dense layers' bits depend on it, so it stays 64 (see the module docstring).
BN_EPSILON, BN_MOMENTUM = 1e-5, 0.1  # of every built model; headers carry them

# View names, in buffer order.
BN_KEYS = tuple(f"batchnorm.{a}"
                for a in ("gamma", "beta", "running_mean", "running_var"))
BLOCK_KEYS = tuple((f"blocks.{i}.kernels", f"blocks.{i}.bias") for i in range(N_BLOCKS))
DENSE_KEYS = tuple((f"dense.{i}.weights", f"dense.{i}.bias") for i in range(N_DENSE))


def _shapes(spec: dict) -> dict[str, tuple[int, ...]]:
    """Each parameter view's shape, in buffer order, for the spec
    {field: value}; ValueError naming the first field whose value is not
    allowed.  A value must fit its type as `errors.fits` has it, so bools,
    NaN and infinities are refused."""
    eps, momentum = spec["bn_epsilon"], spec["bn_momentum"]
    checks = (
        ("sensor", spec["sensor"] in list(Sensor), "EEG or ECG"),
        *((name, fits(spec[name], 1) and spec[name] >= 1, "a positive integer")
          for name in ("in_channels", "window_samples", "kernel_len")),
        *((name, fits(spec[name], (1,) * n) and min(spec[name]) >= 1,
           f"{n} positive integers")
          for name, n in (("pool_sizes", N_BLOCKS), ("hidden", N_DENSE - 1))),
        ("bn_epsilon", fits(eps, 0.0) and eps > 0, "a positive number"),
        ("bn_momentum", fits(momentum, 0.0) and 0 < momentum < 1,
         "a number in (0, 1)"),
        ("seed", fits(spec["seed"], 0), "an integer"),
    )
    for name, ok, want in checks:
        if not ok:
            raise ValueError(f"{name} must be {want}, got {spec[name]!r}")
    c, t = spec["in_channels"], spec["window_samples"]
    for pool in spec["pool_sizes"]:
        t = -(-t // pool)
    widths = [c * t, *spec["hidden"], N_CLASSES]
    shapes = dict.fromkeys(BN_KEYS, (c,))
    for kernels, bias in BLOCK_KEYS:
        shapes[kernels], shapes[bias] = (c, c, spec["kernel_len"]), (c,)
    for (weights, bias), n_in, n_out in zip(DENSE_KEYS, widths, widths[1:]):
        shapes[weights], shapes[bias] = (n_out, n_in), (n_out,)
    return shapes


@dataclass(frozen=True, eq=False)
class SensorModel:
    """Architecture spec plus its parameter buffer.

    The spec is fixed; training and loading change only the buffer's
    contents.  `params` holds the named views into `buffer`.
    """

    sensor: Sensor
    in_channels: int
    window_samples: int
    kernel_len: int
    pool_sizes: tuple[int, ...]
    hidden: tuple[int, ...]
    bn_epsilon: float
    bn_momentum: float
    seed: int
    shapes: dict[str, tuple[int, ...]] = field(init=False, repr=False)
    buffer: np.ndarray = field(init=False, repr=False)
    params: dict[str, np.ndarray] = field(init=False, repr=False)
    window_buffers: "Buffers | None" = field(init=False, repr=False)

    def __post_init__(self):
        shapes = _shapes({name: getattr(self, name) for name in SPEC_FIELDS})
        set_field = object.__setattr__
        set_field(self, "sensor", Sensor(self.sensor))
        set_field(self, "pool_sizes", tuple(self.pool_sizes))
        set_field(self, "hidden", tuple(self.hidden))
        set_field(self, "shapes", shapes)
        set_field(self, "buffer",
                  np.zeros(sum(math.prod(s) for s in shapes.values())))
        set_field(self, "params", self.views(self.buffer))
        set_field(self, "window_buffers", None)  # see `model_forward`

    def __deepcopy__(self, memo) -> "SensorModel":
        """A model of this spec holding a copy of the buffer.  Copying the
        fields one by one would leave `params` and the one-window buffers
        viewing copies of arrays the copy's own buffer is not."""
        twin = SensorModel(**{name: getattr(self, name) for name in SPEC_FIELDS})
        twin.buffer[...] = self.buffer
        return twin

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into `buffer`, laid out like the parameter buffer."""
        out = {}
        offset = 0
        for name, shape in self.shapes.items():
            size = math.prod(shape)
            out[name] = buffer[offset:offset + size].reshape(shape)
            offset += size
        return out

    def header(self) -> dict:
        """The weight-file header: format, version and every spec field."""
        spec = {name: getattr(self, name) for name in SPEC_FIELDS}
        spec["sensor"] = self.sensor.value
        return {"format": "preictal-sensor-model", "version": 1, **spec}


SPEC_FIELDS = tuple(f.name for f in fields(SensorModel) if f.init)

CONV_INIT_NOISE = 0.3


def build_model(
    sensor: Sensor,
    in_channels: int,
    window_samples: int,
    kernel_len: int,
    pool_size: int,
    hidden: tuple[int, int],
    seed: int,
) -> SensorModel:
    """Fresh model, deterministically initialized from `seed`, with the same
    `pool_size` in every block and batchnorm at BN_EPSILON and BN_MOMENTUM.

    Conv kernels start at the identity (center tap passes the input through)
    plus fan-in-scaled uniform noise.  With batchnorm only at the input, a
    plain random init can leave a whole block's ReLU dead at the start — with
    a single channel there is no second path and no gradient ever flows — so
    every block begins as a near-pass-through filter instead.  Dense layers
    use ReLU-gain fan-in-scaled uniform weights; biases start at zero.
    """
    model = SensorModel(sensor, in_channels, window_samples, kernel_len,
                        (pool_size,) * N_BLOCKS, hidden, BN_EPSILON, BN_MOMENTUM,
                        seed)
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape)

    p = model.params
    p["batchnorm.gamma"][...] = 1.0
    p["batchnorm.running_var"][...] = 1.0
    center = (kernel_len - 1) // 2
    for kernels, _ in BLOCK_KEYS:
        p[kernels][...] = CONV_INIT_NOISE * uniform(p[kernels].shape,
                                                    in_channels * kernel_len)
        p[kernels][:, :, center] += np.eye(in_channels)
    for weights, _ in DENSE_KEYS:
        p[weights][...] = uniform(p[weights].shape, p[weights].shape[1])
    return model


def _check_input(model: SensorModel, xb: np.ndarray) -> None:
    expected = (model.in_channels, model.window_samples)
    if xb.shape[1:] != expected:
        raise ShapeError(
            f"window shape {xb.shape[1:]} does not match the {model.sensor.value} "
            f"model input {expected}; is the data from the right sensor?"
        )


class Buffers:
    """Everything one forward pass over `batch` windows reads and writes,
    for a caller that runs that pass again and again, its arrays held as
    each op's binding of them (see `ops`).

    An inference `Buffers(model, batch)` binds `model.params` and keeps no
    reference to the model, so a model and the one-window `Buffers` it
    keeps are freed together without the cycle collector.  A training
    `Buffers(model, batch, dtype)` owns `params`, a copy of `model.buffer`
    in `dtype` that `backward_batch` refreshes in place at each step, and
    `grad`, the gradient, laid out and typed like `model.buffer` (the
    running statistics' entries stay zero), with their named views `p` and
    `g`, and keeps `model`, whose buffer it copies, for `backward_batch` to
    check.

    `pads` holds each conv block's zero-padded input [C x batch x T+K-1].
    `bn` is batchnorm's binding, which writes into the interior of block
    1's.  Each entry of `blocks` is one conv block's (conv binding, pool
    binding): the conv reads the tap view of its padded input and writes
    its tap stack and its output, where ReLU then runs in place, and the
    pool writes into the next block's padded interior or, after the last
    block, into `flat` [batch x C*T] seen as [C x batch x T], so the
    flatten copies nothing.  Each entry of `head` is one dense layer's
    binding; ReLU runs in place on its output.  Only interiors are ever
    written, so the padding keeps its zeros.  An inference pass through
    the bindings only calls numpy; a training pass still makes its
    batchnorm statistics, argmax steps and ReLU masks fresh.  Each pass
    refills the kernel and batchnorm scratch from `p`, so nothing here
    derives from the weights across passes and a pass reads nothing an
    earlier one left: one `Buffers` serves any number of passes, one at a
    time, with `p` as it is at each.

    In a training `Buffers` the pools write each window's argmax, in the
    smallest unsigned type that holds pool-1, and each entry of `back`
    holds what one conv block's backward pass uses that its forward
    bindings do not give: (cols, pool binding, d_in, conv binding).
    `cols` is the tap stack the forward pass left.  The pool's backward
    binding zeroes and scatters the gradient at the conv output into an
    array of its own; the block copies that gradient into `d_in`, the
    interior of its `d_pads` entry, zero-padded the other way round (K//2
    zeros in front), and the conv's backward binding reads that array's
    tap view.  A block's backward pass writes its input gradient into its
    tap stack and conv output, which it has read, and its own backward
    arrays, and never into a forward padded input: the next step reads its
    padding, and block i's pool output, whose ReLU mask block i's backward
    reads, is block i+1's padded interior.  In an inference `Buffers`
    `d_pads` and `back` are empty.
    """

    def __init__(self, model: SensorModel, batch: int, dtype=None):
        if dtype is None:  # inference, on the model's own parameters
            self.params, self.p, self.grad, self.g = model.buffer, model.params, None, None
        else:
            self.params = np.empty(model.buffer.shape, dtype)
            self.grad = np.zeros_like(model.buffer)
            self.p, self.g = model.views(self.params), model.views(self.grad)
        self.training = dtype is not None
        self.model = model if self.training else None
        dtype, p, training = self.params.dtype, self.p, self.training
        c, k = model.in_channels, model.kernel_len
        before = (k - 1) // 2
        widths = [model.window_samples]
        for pool in model.pool_sizes:
            widths.append(-(-widths[-1] // pool))
        self.pads = [np.zeros((c, batch, t + k - 1), dtype) for t in widths[:-1]]
        inputs = [pad[:, :, before:before + t] for pad, t in zip(self.pads, widths)]
        self.flat = np.empty((batch, c * widths[-1]), dtype)
        acts = [*inputs[1:], self.flat.reshape(batch, c, -1).transpose(1, 0, 2)]
        arrays = [  # each block's (cols, out, arg)
            (np.empty((k * c, batch * t), dtype), np.empty((c, batch * t), dtype),
             np.empty((c, batch, n), np.min_scalar_type(pool - 1)) if training
             else None)
            for t, n, pool in zip(widths, widths[1:], model.pool_sizes)]
        outs = [np.empty((batch, n), dtype) for n in (*model.hidden, N_CLASSES)]

        self.bn = bind_batchnorm(p[BN_KEYS[0]], p[BN_KEYS[1]],
                                 *(model.params[key] for key in BN_KEYS[2:]),
                                 inputs[0])
        self.blocks = []
        for x, pad, t, (kernels, bias), pool, act, (cols, out, arg) in zip(
                inputs, self.pads, widths, BLOCK_KEYS, model.pool_sizes, acts,
                arrays):
            conv = bind_conv1d_forward(x, p[kernels], p[bias], cols, out,
                                       tap_view(pad, t))
            self.blocks.append((conv, bind_maxpool1d(conv[-1], pool, act, arg)))
        self.head = [bind_dense(x, p[weights], out) for (weights, _), x, out in zip(
            DENSE_KEYS, [self.flat, *outs[:-1]], outs)]

        self.d_pads = [np.zeros_like(pad) for pad in self.pads] if training else []
        d_pools = [bind_maxpool1d_backward(arg, pool, t, dtype)
                   for t, pool, (_, _, arg) in zip(widths, model.pool_sizes, arrays)
                   ] if training else []
        self.back = [
            (cols, d_pool, d_pad[:, :, k // 2:k // 2 + t],
             bind_conv1d_backward(d_pool[0], cols, p[kernels], cols, out,
                                  tap_view(d_pad, t)))
            for d_pad, t, d_pool, (cols, out, _), (kernels, _) in zip(
                self.d_pads, widths, d_pools, arrays, BLOCK_KEYS)]


def _forward(model: SensorModel, xb: np.ndarray, bufs: Buffers | None = None):
    """Forward pass over [B x C x T] windows: the logits and, in training,
    batchnorm's normalized input, which gamma's gradient reads (inference
    gives batchnorm's output there).

    The conv blocks run channel-major, [C x B x T], from the batchnorm to the
    flatten; windows that are a [B x C x T] view of a C-contiguous
    [C x B x T] array, as `train` gathers them, reach batchnorm uncopied.
    `bufs`, a `Buffers` of this model and batch size, gives the parameter
    views `p`, the kind of pass and each op's binding, and each op writes
    where its binding says; without it the pass is inference on
    `model.params`, and each op gets None, binds for itself and writes fresh
    arrays.  Training normalizes by the batch statistics, inference by the
    running ones, as one affine map.  The running statistics are always the
    model's own, so training folds the batch statistics into `model.buffer`
    even when `p` views a cast copy of it.  ReLU runs in place on each conv
    output, before its max-pool (see the module docstring).  Only a training
    `Buffers` gives the pool an argmax to write, where `backward_batch` reads
    it with every other array this pass left.
    """
    _check_input(model, xb)
    if bufs is None:
        p, training, bn, flat = model.params, False, None, None
        blocks, head = [(None, None)] * N_BLOCKS, [None] * N_DENSE
    else:
        p, training, bn, flat = bufs.p, bufs.training, bufs.bn, bufs.flat
        blocks, head = bufs.blocks, bufs.head
    gamma, beta, mean, var = BN_KEYS
    h, xhat = batchnorm_forward_with_cache(
        xb.transpose(1, 0, 2), p[gamma], p[beta], model.params[mean],
        model.params[var], model.bn_epsilon, model.bn_momentum, training, bn)
    for (kernels, bias), pool, (conv, pooled) in zip(
            BLOCK_KEYS, model.pool_sizes, blocks):
        z = conv1d_forward(h, p[kernels], p[bias], conv)
        relu(z, z)
        h, _ = maxpool1d_with_argmax(z, pool, pooled)
    h = h.transpose(1, 0, 2).reshape(len(xb), -1) if flat is None else flat
    for i, ((weights, bias), dense) in enumerate(zip(DENSE_KEYS, head)):
        h = dense_forward(h, p[weights], p[bias], dense)
        if i < N_DENSE - 1:
            relu(h, h)
    return h, xhat


def model_forward(model: SensorModel, windows: np.ndarray) -> np.ndarray:
    """Class probabilities for one window [C x T] or a batch [B x C x T],
    as a fresh array.

    Batchnorm uses the running statistics.  One window runs in the model's
    batch-1 inference `Buffers`, made on its first such call.  A batch runs in
    chunks of FORWARD_CHUNK windows on fresh arrays; an empty one gives
    [0 x N_CLASSES].
    """
    if windows.ndim == 2:
        bufs = model.window_buffers
        if bufs is None:
            bufs = Buffers(model, 1)
            object.__setattr__(model, "window_buffers", bufs)
        return softmax(_forward(model, windows[None], bufs)[0])[0]
    if len(windows) == 0:
        _check_input(model, windows)
        return np.empty((0, N_CLASSES))
    return np.concatenate([
        softmax(_forward(model, windows[i:i + FORWARD_CHUNK])[0])
        for i in range(0, len(windows), FORWARD_CHUNK)
    ])


def backward_batch(
    model: SensorModel, xb: np.ndarray, yb: np.ndarray, cfg: FocalLossConfig,
    bufs: Buffers | None = None,
) -> tuple[float, np.ndarray]:
    """Mean focal loss over the batch and its gradient, laid out like
    `model.buffer` and of its dtype (the running statistics get zero
    gradient).

    The passes compute in the dtype of `xb`, against a copy of the
    parameters cast to it.  `bufs` is a training `Buffers` of this model,
    of the windows' dtype and of this batch size, refused otherwise with
    the mismatch named; without it a fresh one is made.  The step refreshes
    its parameter copy in place, its forward pass runs in it and its
    backward pass reads what that left there.  Batchnorm normalizes by the
    batch statistics and updates the running averages in `model.buffer`.
    The gradient returned is `bufs.grad`, which the next step through
    `bufs` overwrites.  Each op returns its parameter gradients in the
    windows' dtype, and they are copied into `bufs.grad`: numpy would sum a
    float32 row longer than its 8192-element buffer into a float64 `out` in
    pieces, and so round otherwise.
    """
    b = len(xb)
    bufs = Buffers(model, b, xb.dtype) if bufs is None else bufs
    mismatch = ("inference" if not bufs.training else
                "another model" if bufs.model is not model else
                f"{bufs.params.dtype} windows" if bufs.params.dtype != xb.dtype else
                f"batches of {len(bufs.flat)}" if len(bufs.flat) != b else None)
    if mismatch:
        raise ValueError(f"the buffers are for {mismatch}, not a training step "
                         f"on {b} {xb.dtype} windows of this model")
    np.copyto(bufs.params, model.buffer)
    p, g = bufs.p, bufs.g
    logits, xhat = _forward(model, xb, bufs)
    probs = softmax(logits)
    loss = float(focal_loss_batch(probs, yb, cfg).mean())
    delta = focal_grad_wrt_logits(probs, yb, cfg)

    # The dense inputs; a hidden one is its in-place ReLU's output and mask.
    acts = [bufs.flat, *(out for _, out in bufs.head[:-1])]
    for i in range(N_DENSE - 1, -1, -1):
        weights, bias = DENSE_KEYS[i]
        g[weights][...], g[bias][...], delta = dense_backward(delta, acts[i], p[weights])
        if i > 0:
            delta = relu_backward(delta, acts[i])

    delta = delta.reshape(b, model.in_channels, -1).transpose(1, 0, 2)
    for i in range(N_BLOCKS - 1, -1, -1):
        _, (act, arg, *_) = bufs.blocks[i]  # the pool's output and argmax
        cols, d_pool, d_in, d_conv = bufs.back[i]
        kernels, bias = BLOCK_KEYS[i]
        delta = maxpool1d_backward(relu_backward(delta, act), arg,
                                   model.pool_sizes[i], d_in.shape[-1], d_pool)
        np.copyto(d_in, delta)
        g[kernels][...], g[bias][...], delta = conv1d_backward(
            delta, cols, p[kernels], d_conv)

    g["batchnorm.gamma"][...], g["batchnorm.beta"][...] = batchnorm_param_grads(
        delta, xhat)
    return loss, bufs.grad


# ---------------------------------------------------------------------------
# Weight files: magic, u32 LE header length, JSON header, then the parameter
# buffer as raw little-endian float64.


def save_model(model: SensorModel, path: Path | str) -> None:
    header_bytes = json.dumps(model.header(), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(model.buffer.astype("<f8").tobytes())


def load_model(path: Path | str) -> SensorModel:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MODEL_MAGIC:
        raise ValueError(f"{path} is not a sensor model file")
    (hlen,) = struct.unpack_from("<I", raw, 4)
    if 8 + hlen > len(raw):
        raise ValueError(f"{path}: {hlen}-byte model header does not fit "
                         f"in the {len(raw)}-byte file")
    try:
        header = json.loads(raw[8:8 + hlen].decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: model header does not decode: {exc}") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != 1:
        raise ValueError(f"{path}: unsupported model file version {version}")
    missing = [name for name in SPEC_FIELDS if name not in header]
    if missing:
        raise ValueError(f"{path}: model header lacks {', '.join(missing)}")
    spec = {name: header[name] for name in SPEC_FIELDS}
    try:
        size = sum(math.prod(s) for s in _shapes(spec).values())
    except ValueError as exc:
        raise ValueError(f"{path}: bad model header: {exc}") from exc

    blob = raw[8 + hlen:]  # checked before the model's buffer is allocated
    if len(blob) != 8 * size:
        raise ValueError(f"{path}: weight blob holds {len(blob)} bytes but the "
                         f"architecture needs {8 * size}")
    model = SensorModel(**spec)
    model.buffer[...] = np.frombuffer(blob, dtype="<f8")
    bad = next((name for name, view in model.params.items()
                if not np.isfinite(view).all()), None)
    if bad is not None:
        raise ValueError(f"{path}: weight blob holds a non-finite value in {bad}")
    return model
