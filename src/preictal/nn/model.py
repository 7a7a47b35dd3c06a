"""Per-sensor CNN: batchnorm, four conv/max-pool blocks, three dense layers.

The forward pass is batchnorm -> 4 x (conv -> ReLU -> maxpool) -> flatten ->
dense -> ReLU -> dense -> ReLU -> dense -> softmax over the five classes.
`backward_batch` runs reverse-mode differentiation through the whole stack
and returns exact gradients of the mean focal loss for every trainable
parameter.

Every array of a model is a named view into one flat float64 buffer, in the
order of the weight files: batchnorm (gamma, beta, running_mean,
running_var), blocks 1-4 (kernels, bias), dense 1-3 (weights, bias).
Gradients use the same layout, so Adam, best-epoch snapshots and weight
files each handle one array.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dataset import N_CLASSES, Sensor
from ..errors import ShapeError
from .losses import FocalLossConfig, focal_grad_wrt_logits, focal_loss_batch
from .ops import (
    BatchNormParams,
    ConvBlockParams,
    DenseParams,
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
)

MODEL_MAGIC = b"PSM1"
N_BLOCKS = 4
N_DENSE = 3
FORWARD_CHUNK = 256  # windows per batched inference pass; bounds memory


@dataclass
class SensorModel:
    sensor: Sensor
    batchnorm: BatchNormParams
    blocks: list[ConvBlockParams]
    dense: list[DenseParams]
    window_samples: int
    seed: int = 0
    buffer: np.ndarray = field(init=False, repr=False)
    shapes: dict[str, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.blocks) != N_BLOCKS:
            raise ValueError(f"expected {N_BLOCKS} conv blocks")
        if len(self.dense) != N_DENSE:
            raise ValueError(f"expected {N_DENSE} dense layers")
        c = self.in_channels
        t = self.window_samples
        for blk in self.blocks:
            if blk.kernels.shape[0] != c:
                raise ShapeError("conv blocks must preserve the input channel count")
            t = -(-t // blk.pool_size)
        flat = c * t
        if self.dense[0].weights.shape[1] != flat:
            raise ShapeError(
                f"first dense layer expects {self.dense[0].weights.shape[1]} inputs "
                f"but the conv stack flattens to {flat}"
            )
        for prev, nxt in zip(self.dense, self.dense[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ShapeError("dense layer widths do not chain")
        if self.dense[-1].weights.shape[0] != N_CLASSES:
            raise ShapeError(f"final dense layer must output {N_CLASSES} classes")

        # Copy every array into one buffer and rebind each to its view.
        slots = [(f"batchnorm.{a}", self.batchnorm, a)
                 for a in ("gamma", "beta", "running_mean", "running_var")]
        for i, blk in enumerate(self.blocks):
            slots += [(f"blocks.{i}.{a}", blk, a) for a in ("kernels", "bias")]
        for i, layer in enumerate(self.dense):
            slots += [(f"dense.{i}.{a}", layer, a) for a in ("weights", "bias")]
        self.shapes = {name: getattr(obj, a).shape for name, obj, a in slots}
        self.buffer = np.concatenate(
            [np.ravel(getattr(obj, a)) for _, obj, a in slots], dtype=np.float64)
        for (_, obj, a), view in zip(slots, self.views(self.buffer).values()):
            setattr(obj, a, view)

    @property
    def in_channels(self) -> int:
        return self.batchnorm.gamma.shape[0]

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into `buffer`, laid out like the parameter buffer."""
        out = {}
        offset = 0
        for name, shape in self.shapes.items():
            size = math.prod(shape)
            out[name] = buffer[offset:offset + size].reshape(shape)
            offset += size
        return out


CONV_INIT_NOISE = 0.3


def build_model(
    sensor: Sensor,
    in_channels: int,
    window_samples: int,
    kernel_len: int = 5,
    pool_size: int = 4,
    hidden: tuple[int, int] = (64, 32),
    seed: int = 0,
    bn_epsilon: float = 1e-5,
    bn_momentum: float = 0.1,
) -> SensorModel:
    """Fresh model, deterministically initialized from `seed`.

    Conv kernels start at the identity (center tap passes the input through)
    plus fan-in-scaled uniform noise.  With batchnorm only at the input, a
    plain random init can leave a whole block's ReLU dead at the start — with
    a single channel there is no second path and no gradient ever flows — so
    every block begins as a near-pass-through filter instead.  Dense layers
    use ReLU-gain fan-in-scaled uniform weights; biases start at zero.
    """
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape)

    bn = BatchNormParams(
        gamma=np.ones(in_channels),
        beta=np.zeros(in_channels),
        running_mean=np.zeros(in_channels),
        running_var=np.ones(in_channels),
        epsilon=bn_epsilon,
        momentum=bn_momentum,
    )
    center = (kernel_len - 1) // 2
    blocks = []
    for _ in range(N_BLOCKS):
        kernels = CONV_INIT_NOISE * uniform(
            (in_channels, in_channels, kernel_len), in_channels * kernel_len)
        kernels[:, :, center] += np.eye(in_channels)
        blocks.append(ConvBlockParams(kernels=kernels,
                                      bias=np.zeros(in_channels),
                                      pool_size=pool_size))
    t = window_samples
    for _ in range(N_BLOCKS):
        t = -(-t // pool_size)
    widths = [in_channels * t, *hidden, N_CLASSES]
    dense = [
        DenseParams(weights=uniform((widths[i + 1], widths[i]), widths[i]),
                    bias=np.zeros(widths[i + 1]))
        for i in range(N_DENSE)
    ]
    return SensorModel(sensor, bn, blocks, dense, window_samples, seed=seed)


def _check_input(model: SensorModel, xb: np.ndarray) -> None:
    if xb.shape[1:] != (model.in_channels, model.window_samples):
        raise ShapeError(
            f"window shape {xb.shape[1:]} does not match the model's "
            f"({model.in_channels}, {model.window_samples})"
        )


def _forward(model: SensorModel, xb: np.ndarray, training: bool):
    """Batched forward pass returning logits and, when training, the tape.

    Training normalizes by the batch statistics (and folds them into the
    running averages); otherwise batchnorm uses the running statistics.
    """
    _check_input(model, xb)
    h, xhat = batchnorm_forward_with_cache(
        xb, model.batchnorm, "train" if training else "inference")
    cache = {"xhat": xhat, "blocks": []} if training else None
    for blk in model.blocks:
        z = conv1d_forward(h, blk)
        a = relu(z)
        pooled, arg = maxpool1d_with_argmax(a, blk.pool_size)
        if training:
            cache["blocks"].append({"x": h, "z": z, "arg": arg, "t_in": a.shape[2]})
        h = pooled
    b = h.shape[0]
    flat_shape = h.shape
    h = h.reshape(b, -1)
    dense_x = []
    dense_z = []
    for i, layer in enumerate(model.dense):
        dense_x.append(h)
        z = dense_forward(h, layer)
        dense_z.append(z)
        h = relu(z) if i < N_DENSE - 1 else z
    if training:
        cache["flat_shape"] = flat_shape
        cache["dense_x"] = dense_x
        cache["dense_z"] = dense_z
    return h, cache


def model_forward(model: SensorModel, windows: np.ndarray) -> np.ndarray:
    """Class probabilities for one window [C x T] or a batch [B x C x T].

    Batchnorm uses the running statistics.  A batch runs in chunks of
    FORWARD_CHUNK windows.
    """
    if windows.ndim == 2:
        logits, _ = _forward(model, windows[None], training=False)
        return softmax(logits)[0]
    return np.concatenate([
        softmax(_forward(model, windows[i:i + FORWARD_CHUNK], training=False)[0])
        for i in range(0, len(windows), FORWARD_CHUNK)
    ])


def parameters(model: SensorModel) -> list[tuple[str, np.ndarray]]:
    """Trainable parameters (views into the buffer), in buffer order."""
    return [(name, view) for name, view in model.views(model.buffer).items()
            if not name.startswith("batchnorm.running")]


def backward_batch(
    model: SensorModel, xb: np.ndarray, yb: np.ndarray, cfg: FocalLossConfig
) -> tuple[float, np.ndarray]:
    """Mean focal loss over the batch and its gradient, laid out like
    `model.buffer` (the running statistics get zero gradient).

    Batchnorm normalizes by the batch statistics and updates the running
    averages.
    """
    logits, cache = _forward(model, xb, training=True)
    probs = softmax(logits)
    loss = float(focal_loss_batch(probs, yb, cfg).mean())
    delta = focal_grad_wrt_logits(probs, yb, cfg)

    grad = np.zeros_like(model.buffer)
    g = model.views(grad)
    for i in range(N_DENSE - 1, -1, -1):
        g[f"dense.{i}.weights"][...], g[f"dense.{i}.bias"][...], delta = (
            dense_backward(delta, cache["dense_x"][i], model.dense[i]))
        if i > 0:
            delta = relu_backward(delta, cache["dense_z"][i - 1])

    delta = delta.reshape(cache["flat_shape"])
    for i in range(N_BLOCKS - 1, -1, -1):
        blk_cache = cache["blocks"][i]
        blk = model.blocks[i]
        delta = maxpool1d_backward(delta, blk_cache["arg"], blk.pool_size,
                                   blk_cache["t_in"])
        delta = relu_backward(delta, blk_cache["z"])
        g[f"blocks.{i}.kernels"][...], g[f"blocks.{i}.bias"][...], delta = (
            conv1d_backward(delta, blk_cache["x"], blk))

    g["batchnorm.gamma"][...], g["batchnorm.beta"][...] = batchnorm_param_grads(
        delta, cache["xhat"])
    return loss, grad


# ---------------------------------------------------------------------------
# Weight files: magic, u32 LE header length, JSON header, then the parameter
# buffer as raw little-endian float64.


def save_model(model: SensorModel, path: Path | str) -> None:
    header = {
        "format": "preictal-sensor-model",
        "version": 1,
        "sensor": model.sensor.value,
        "in_channels": model.in_channels,
        "window_samples": model.window_samples,
        "kernel_len": model.blocks[0].kernels.shape[2],
        "pool_sizes": [blk.pool_size for blk in model.blocks],
        "hidden": [layer.weights.shape[0] for layer in model.dense[:-1]],
        "bn_epsilon": model.batchnorm.epsilon,
        "bn_momentum": model.batchnorm.momentum,
        "seed": model.seed,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
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
    if header.get("version") != 1:
        raise ValueError(f"{path}: unsupported model file version "
                         f"{header.get('version')}")

    c = header["in_channels"]
    klen = header["kernel_len"]
    bn = BatchNormParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c),
                         epsilon=header["bn_epsilon"],
                         momentum=header["bn_momentum"])
    blocks = [
        ConvBlockParams(np.zeros((c, c, klen)), np.zeros(c), pool)
        for pool in header["pool_sizes"]
    ]
    t = header["window_samples"]
    for pool in header["pool_sizes"]:
        t = -(-t // pool)
    widths = [c * t, *header["hidden"], N_CLASSES]
    dense = [DenseParams(np.zeros((widths[i + 1], widths[i])), np.zeros(widths[i + 1]))
             for i in range(N_DENSE)]
    model = SensorModel(Sensor(header["sensor"]), bn, blocks, dense,
                        header["window_samples"], seed=header["seed"])

    blob = raw[8 + hlen:]
    if len(blob) != 8 * model.buffer.size:
        raise ValueError(f"{path}: weight blob holds {len(blob)} bytes but the "
                         f"architecture needs {8 * model.buffer.size}")
    model.buffer[...] = np.frombuffer(blob, dtype="<f8")
    return model
