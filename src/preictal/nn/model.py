"""Per-sensor CNN: batchnorm, four conv/max-pool blocks, three dense layers.

The forward pass is batchnorm -> 4 x (conv -> maxpool -> ReLU) -> flatten ->
dense -> ReLU -> dense -> ReLU -> dense -> softmax over the five classes.
ReLU after the pool gives the same values and gradients as before it, since
it commutes with max.  Windows arrive as [B x C x T]; from the batchnorm to
the flatten the activations are channel-major, [C x B x T], so each conv is
one tap-stacked GEMM over the whole batch (see `ops`).  `backward_batch`
runs reverse-mode differentiation through the whole stack and returns exact
gradients of the mean focal loss for every trainable parameter.  It
computes in the dtype of its windows, which `train` makes float32, against
a copy of the float64 parameters cast to that dtype (see `train`).  What
a step would otherwise rebuild lives in a `Workspace` the caller may pass
to every step: the cast parameter copy and its named views, refreshed in
place each step, the gradient buffer and its views, and the conv buffers
of each batch size.  `train` owns one for the length of the call, so all
of it is allocated once per call and no buffer outlives training.
Inference is the same forward pass without the tape, in float64.  One
window, as a sensor node classifies each window as it arrives, runs in
`WindowBuffers` that its model keeps from its first one-window call on
(100 KB for the desk EEG model, 37 KB for the ECG one): each op writes
where the next one reads, so a conv is one tap copy and one GEMM.  A batch
runs in chunks of FORWARD_CHUNK windows on fresh arrays.  Batches keep no
buffers: a prototype that kept those of 64-window chunks too raised the
peak RSS of a benchmark `simulate` run from 158 to 180 MB.

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
from ..errors import ShapeError
from .losses import FocalLossConfig, focal_grad_wrt_logits, focal_loss_batch
from .ops import (
    batchnorm_forward_with_cache,
    batchnorm_param_grads,
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
    window_offsets,
)

MODEL_MAGIC = b"PSM1"
N_BLOCKS = 4
N_DENSE = 3
FORWARD_CHUNK = 64  # windows per batched inference pass; bounds memory
BN_EPSILON, BN_MOMENTUM = 1e-5, 0.1  # of every built model; headers carry them

# View names, in buffer order.
BN_KEYS = tuple(f"batchnorm.{a}"
                for a in ("gamma", "beta", "running_mean", "running_var"))
BLOCK_KEYS = tuple((f"blocks.{i}.kernels", f"blocks.{i}.bias") for i in range(N_BLOCKS))
DENSE_KEYS = tuple((f"dense.{i}.weights", f"dense.{i}.bias") for i in range(N_DENSE))


def _whole(v, low=None) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            and (low is None or v >= low))


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _widths(v, n) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) == n
            and all(_whole(x, 1) for x in v))


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
    window_buffers: "WindowBuffers | None" = field(init=False, repr=False)

    def __post_init__(self):
        checks = (
            ("sensor", self.sensor in list(Sensor), "EEG or ECG"),
            ("in_channels", _whole(self.in_channels, 1), "a positive integer"),
            ("window_samples", _whole(self.window_samples, 1), "a positive integer"),
            ("kernel_len", _whole(self.kernel_len, 1), "a positive integer"),
            ("pool_sizes", _widths(self.pool_sizes, N_BLOCKS),
             f"{N_BLOCKS} positive integers"),
            ("hidden", _widths(self.hidden, N_DENSE - 1),
             f"{N_DENSE - 1} positive integers"),
            ("bn_epsilon", _real(self.bn_epsilon) and self.bn_epsilon > 0,
             "a positive number"),
            ("bn_momentum", _real(self.bn_momentum) and 0 < self.bn_momentum < 1,
             "a number in (0, 1)"),
            ("seed", _whole(self.seed), "an integer"),
        )
        for name, ok, want in checks:
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        set_field = object.__setattr__
        set_field(self, "sensor", Sensor(self.sensor))
        set_field(self, "pool_sizes", tuple(self.pool_sizes))
        set_field(self, "hidden", tuple(self.hidden))

        c, t = self.in_channels, self.window_samples
        for pool in self.pool_sizes:
            t = -(-t // pool)
        widths = [c * t, *self.hidden, N_CLASSES]
        shapes = dict.fromkeys(BN_KEYS, (c,))
        for kernels, bias in BLOCK_KEYS:
            shapes[kernels], shapes[bias] = (c, c, self.kernel_len), (c,)
        for (weights, bias), n_in, n_out in zip(DENSE_KEYS, widths, widths[1:]):
            shapes[weights], shapes[bias] = (n_out, n_in), (n_out,)
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


class Workspace:
    """What every training step of one model at one dtype reuses.

    `params` is the parameter buffer in the step's dtype: `model.buffer`
    itself for float64, otherwise a copy that `backward_batch` refreshes in
    place at each step; `p` holds its named views.  `grad` is the gradient
    buffer, laid out and typed like `model.buffer`, and `g` its views; the
    running statistics' entries stay zero.  `blocks` maps a batch size to
    its conv buffers, one triple per conv block: the padded input, its tap
    stack and the conv output.  A block's backward pass reuses its forward
    pass's triple for the input gradient; by then only the tap stack is
    still needed, and the kernel gradient reads it first.
    """

    def __init__(self, model: SensorModel, dtype):
        self.model = model
        if np.dtype(dtype) == model.buffer.dtype:
            self.params, self.p = model.buffer, model.params
        else:
            self.params = np.empty(model.buffer.shape, dtype)
            self.p = model.views(self.params)
        self.grad = np.zeros_like(model.buffer)
        self.g = model.views(self.grad)
        self.blocks: dict[int, list[tuple[np.ndarray, ...]]] = {}

    def conv_buffers(self, batch: int) -> list[tuple[np.ndarray, ...]]:
        """The conv buffers of `batch` windows, made on first use."""
        if batch not in self.blocks:
            model, dtype = self.model, self.params.dtype
            c, k, t = model.in_channels, model.kernel_len, model.window_samples
            blocks = []
            for pool in model.pool_sizes:
                blocks.append((np.empty((c, batch, t + k - 1), dtype),
                               np.empty((k * c, batch * t), dtype),
                               np.empty((c, batch * t), dtype)))
                t = -(-t // pool)
            self.blocks[batch] = blocks
        return self.blocks[batch]


class WindowBuffers:
    """The float64 arrays a one-window `model_forward` keeps on its model
    (100 KB for the desk EEG model): every padded input, tap stack, conv
    output and layer output of the pass.  What a call still allocates is
    small: the pools' argmax, index and gather, and the softmax.

    Batchnorm writes into `input`, the interior of block 1's zero-padded
    input.  Each entry of `blocks` is one conv block's (xpad, cols, out,
    taps, offsets, act), as `_forward` hands them to the ops: the padded
    input is read only through `taps`, its tap view, so `xpad` is None;
    `act` is where pool and ReLU write, the next block's padded interior or
    the flatten input.  Padding keeps the zeros it starts with.  `dense`
    holds the dense outputs.  Nothing here derives from the weights and the
    probabilities returned are fresh, so a call leaves nothing the next one
    reads; two calls on one model must not overlap.
    """

    def __init__(self, model: SensorModel):
        c, k = model.in_channels, model.kernel_len
        before = (k - 1) // 2
        widths = [model.window_samples]
        for pool in model.pool_sizes:
            widths.append(-(-widths[-1] // pool))
        pads = [np.zeros((c, 1, t + k - 1)) for t in widths[:-1]]
        inputs = [pad[:, :, before:before + t] for pad, t in zip(pads, widths)]
        self.input = inputs[0]
        acts = [*inputs[1:], np.empty((c, 1, widths[-1]))]
        self.blocks = [
            (None, np.empty((k * c, t)), np.empty((c, t)), tap_view(pad, t),
             window_offsets(c * n, pool), act)
            for pad, t, n, pool, act in zip(pads, widths, widths[1:],
                                            model.pool_sizes, acts)]
        self.dense = [np.empty((1, n)) for n in (*model.hidden, N_CLASSES)]


def _forward(model: SensorModel, xb: np.ndarray, p: dict, buffers=None,
             window: WindowBuffers | None = None):
    """Batched forward pass over [B x C x T] windows with the parameter
    views `p`, returning logits and, when training, the tape.

    The conv blocks run channel-major, [C x B x T], from the batchnorm to the
    flatten.  Training (`buffers` given) normalizes by the batch statistics
    and runs the convs in `buffers`, from `Workspace.conv_buffers`;
    otherwise batchnorm uses the running statistics, and every array is
    fresh unless `window`, the `WindowBuffers` of a one-window call, holds
    it.  The running statistics are always the model's own, so training
    folds the batch statistics into `model.buffer` even when `p` views a
    cast copy of it.  ReLU follows each max-pool: it commutes with max and
    passes the same gradients.
    """
    _check_input(model, xb)
    training = buffers is not None
    b = xb.shape[0]
    if window is not None:
        bn_out, blocks, dense_out = (window.input,) * 2, window.blocks, window.dense
    else:
        bn_out, dense_out = (), [None] * N_DENSE
        blocks = [(*conv, None, None, None)
                  for conv in buffers or [(None,) * 3] * N_BLOCKS]
    h, xhat = batchnorm_forward_with_cache(
        xb.transpose(1, 0, 2), *[p[k] for k in BN_KEYS[:2]],
        *[model.params[k] for k in BN_KEYS[2:]], model.bn_epsilon,
        model.bn_momentum, "train" if training else "inference", *bn_out)
    tape = {"xhat": xhat, "blocks": []} if training else None
    for (kernels, bias), pool, (xpad, cols, out, taps, offsets, act) in zip(
            BLOCK_KEYS, model.pool_sizes, blocks):
        z = conv1d_forward(h, p[kernels], p[bias], xpad, cols, out, taps)
        pooled, arg = maxpool1d_with_argmax(z, pool, offsets)
        h = relu(pooled, act)
        if training:
            tape["blocks"].append((cols, arg, h, z.shape[2]))
    h = h.transpose(1, 0, 2).reshape(b, -1)
    dense_x = []
    dense_z = []
    for i, ((weights, bias), out) in enumerate(zip(DENSE_KEYS, dense_out)):
        dense_x.append(h)
        z = dense_forward(h, p[weights], p[bias], out)
        dense_z.append(z)
        h = relu(z, out) if i < N_DENSE - 1 else z
    if training:
        tape["dense_x"] = dense_x
        tape["dense_z"] = dense_z
    return h, tape


def model_forward(model: SensorModel, windows: np.ndarray) -> np.ndarray:
    """Class probabilities for one window [C x T] or a batch [B x C x T].

    Batchnorm uses the running statistics.  One window runs in the model's
    `WindowBuffers`, made on its first such call.  A batch runs in chunks
    of FORWARD_CHUNK windows on fresh arrays.
    """
    if windows.ndim == 2:
        if model.window_buffers is None:
            object.__setattr__(model, "window_buffers", WindowBuffers(model))
        logits, _ = _forward(model, windows[None], model.params,
                             window=model.window_buffers)
        return softmax(logits)[0]
    return np.concatenate([
        softmax(_forward(model, windows[i:i + FORWARD_CHUNK], model.params)[0])
        for i in range(0, len(windows), FORWARD_CHUNK)
    ])


def backward_batch(
    model: SensorModel, xb: np.ndarray, yb: np.ndarray, cfg: FocalLossConfig,
    work: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Mean focal loss over the batch and its gradient, laid out like
    `model.buffer` and of its dtype (the running statistics get zero
    gradient).

    The passes compute in the dtype of `xb`: float32 windows run against a
    float32 copy of the parameters, float64 windows against the buffer
    itself.  Batchnorm normalizes by the batch statistics and updates the
    running averages in `model.buffer`.  `work` is a `Workspace` of this
    model and of the windows' dtype; a caller that passes the same one to
    every step reuses its parameter copy, gradient and conv buffers, and
    the gradient returned is then `work.grad`, which the next step that
    shares `work` overwrites.  Without it every buffer is fresh.
    """
    work = Workspace(model, xb.dtype) if work is None else work
    if work.model is not model or work.params.dtype != xb.dtype:
        raise ValueError(f"the workspace is for another model or dtype than "
                         f"these {xb.dtype} windows")
    b = len(xb)
    buffers = work.conv_buffers(b)
    if work.params is not model.buffer:
        np.copyto(work.params, model.buffer)
    p, g = work.p, work.g
    logits, tape = _forward(model, xb, p, buffers)
    probs = softmax(logits)
    loss = float(focal_loss_batch(probs, yb, cfg).mean())
    delta = focal_grad_wrt_logits(probs, yb, cfg)

    for i in range(N_DENSE - 1, -1, -1):
        weights, bias = DENSE_KEYS[i]
        g[weights][...], g[bias][...], delta = (
            dense_backward(delta, tape["dense_x"][i], p[weights]))
        if i > 0:
            delta = relu_backward(delta, tape["dense_z"][i - 1])

    delta = delta.reshape(b, model.in_channels, -1).transpose(1, 0, 2)
    for i in range(N_BLOCKS - 1, -1, -1):
        cols, arg, a, t_in = tape["blocks"][i]
        kernels, bias = BLOCK_KEYS[i]
        delta = maxpool1d_backward(relu_backward(delta, a), arg,
                                   model.pool_sizes[i], t_in)
        g[kernels][...], g[bias][...], delta = conv1d_backward(
            delta, cols, p[kernels], *buffers[i])

    g["batchnorm.gamma"][...], g["batchnorm.beta"][...] = batchnorm_param_grads(
        delta, tape["xhat"])
    return loss, work.grad


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
    try:
        model = SensorModel(**{name: header[name] for name in SPEC_FIELDS})
    except ValueError as exc:
        raise ValueError(f"{path}: bad model header: {exc}") from exc

    blob = raw[8 + hlen:]
    if len(blob) != 8 * model.buffer.size:
        raise ValueError(f"{path}: weight blob holds {len(blob)} bytes but the "
                         f"architecture needs {8 * model.buffer.size}")
    model.buffer[...] = np.frombuffer(blob, dtype="<f8")
    bad = next((name for name, view in model.params.items()
                if not np.isfinite(view).all()), None)
    if bad is not None:
        raise ValueError(f"{path}: weight blob holds a non-finite value in {bad}")
    return model
