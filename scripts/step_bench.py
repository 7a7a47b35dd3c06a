#!/usr/bin/env python3
"""Time a fold's two inner loops at the desk shapes, the training step and the
combiner fit, and a sensor node's one-window inference.

    python3 scripts/step_bench.py

Five timings, each printed as its median and quartiles in ms:

    eeg-step    one batch-32 float32 training step of the EEG model (4 x 320,
                pool 4): `backward_batch` then `adam_step`, every step sharing
                one `Workspace` and one `AdamState` as `train` does
    ecg-step    the same for the ECG model (1 x 320, pool 2)
    lr-train    one `lr_train` on a [1395 x 10] quantized fit set, the size
                of a desk fold's; its labels are noisy enough that the fit
                runs all `max_epochs`, as the desk folds do
    eeg-window  one `model_forward` of the EEG model on one [4 x 320] window,
                as a sensor node classifies each window as it arrives
    ecg-window  the same for the ECG model on one [1 x 320] window

The models have the default config's kernel length and hidden widths.  The
windows are 16 seeded batches of standard-normal noise, cycled, with
uniform labels; the focal loss has the default gamma and the alpha of those
labels.  Each sensor times 400 steps after 30 untimed warm-up steps, and
2000 one-window forwards, on the first window of each batch, after 30
untimed ones; the fit is timed 30 times on one set from `tests/oracles.py`.
BLAS is pinned to one thread before numpy loads, and the checkout's own
src/ is imported.  The last line is the result as JSON.
"""

import json
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from oracles import noisy_quantized_set  # noqa: E402
from preictal.combiner import CombinerConfig, lr_train  # noqa: E402
from preictal.config import ModelConfig  # noqa: E402
from preictal.dataset import Sensor  # noqa: E402
from preictal.nn.losses import FocalLossConfig, inverse_frequency_alpha  # noqa: E402
from preictal.nn.model import (  # noqa: E402
    Workspace,
    backward_batch,
    build_model,
    model_forward,
)
from preictal.nn.optim import AdamState, TrainConfig, adam_step  # noqa: E402

BATCH = 32
WARMUP = 30
REPEATS = 400  # timed steps per sensor
FITS = 30  # timed lr_train fits
WINDOWS = 2000  # timed one-window forwards per sensor
BATCHES = 16  # distinct batches, cycled
FIT_ROWS = 1395
# (sensor, channels, pool) at 64 Hz and 5 s windows.
SHAPES = (("eeg", Sensor.EEG, 4, 4), ("ecg", Sensor.ECG, 1, 2))
SAMPLES = 320


def quartiles(seconds: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(seconds) * 1e3, [25, 50, 75])
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "n": len(seconds)}


def desk_model_and_batches(sensor: Sensor, channels: int, pool: int):
    model_cfg = ModelConfig()
    model = build_model(sensor, channels, SAMPLES, model_cfg.kernel_len, pool,
                        model_cfg.hidden, seed=0)
    rng = np.random.default_rng(0)
    return model, rng, rng.standard_normal((BATCHES, BATCH, channels, SAMPLES))


def time_steps(sensor: Sensor, channels: int, pool: int) -> list[float]:
    train_cfg = TrainConfig()
    model, rng, xs = desk_model_and_batches(sensor, channels, pool)
    xs = xs.astype(np.float32)
    ys = rng.integers(0, 5, size=(BATCHES, BATCH))
    loss_cfg = FocalLossConfig(gamma=train_cfg.focal_gamma,
                               alpha=inverse_frequency_alpha(ys.ravel()))
    work = Workspace(model, np.float32)
    state = AdamState.for_params(model.buffer)
    times = []
    for i in range(WARMUP + REPEATS):
        xb, yb = xs[i % BATCHES], ys[i % BATCHES]
        start = time.perf_counter()
        _, grad = backward_batch(model, xb, yb, loss_cfg, work)
        adam_step(model.buffer, grad, state, train_cfg)
        times.append(time.perf_counter() - start)
    return times[WARMUP:]


def time_windows(sensor: Sensor, channels: int, pool: int) -> list[float]:
    model, _, xs = desk_model_and_batches(sensor, channels, pool)
    times = []
    for i in range(WARMUP + WINDOWS):
        window = xs[i % BATCHES, 0]
        start = time.perf_counter()
        model_forward(model, window)
        times.append(time.perf_counter() - start)
    return times[WARMUP:]


def time_fits() -> list[float]:
    xs, ys = noisy_quantized_set(FIT_ROWS, seed=0)
    times = []
    for _ in range(FITS):
        start = time.perf_counter()
        lr_train(xs, ys, CombinerConfig())
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    result = {f"{name}-step": quartiles(time_steps(sensor, channels, pool))
              for name, sensor, channels, pool in SHAPES}
    result["lr-train"] = quartiles(time_fits())
    result.update({f"{name}-window": quartiles(time_windows(sensor, channels, pool))
                   for name, sensor, channels, pool in SHAPES})
    for name, q in result.items():
        print(f"{name:10s} median {q['median_ms']:8.3f} ms  "
              f"q1 {q['q1_ms']:8.3f}  q3 {q['q3_ms']:8.3f}  n {q['n']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
