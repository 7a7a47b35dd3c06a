#!/usr/bin/env python3
"""Time a fold's two inner loops at the desk shapes, the training step and the
combiner fit, a sensor node's one-window inference, the whole per-window
decision of the closed loop, a fold's batched inference, a simulated hour of
the network and the writing of its trace, and the cutting of the windows
that hour replays.

    python3 scripts/step_bench.py

Eleven timings, each printed as its median and quartiles, in ms, or for the
batched readouts in us per window:

    eeg-step    one batch-32 float32 training step of the EEG model (4 x 320,
                pool 4) as `train` runs it: gather 32 shuffled windows from a
                channel-major float32 set, then `backward_batch` on that
                [C x B x T] batch seen as [B x C x T], then `adam_step`, every
                step sharing one `AdamState` and the one training `Buffers`
                of batch 32, as `train` keeps one per batch size
    ecg-step    the same for the ECG model (1 x 320, pool 2)
    lr-train    one `lr_train` on a [1395 x 10] quantized fit set, the size
                of a desk fold's; its labels are noisy enough that the fit
                runs all `max_epochs`, as the desk folds do
    eeg-window  one `model_forward` of the EEG model on one [4 x 320] window,
                as a sensor node classifies each window as it arrives
    ecg-window  the same for the ECG model on one [1 x 320] window
    node-window one window's decision as perfbench's stream-infer makes it:
                the EEG and the ECG one-window `model_forward`, `quantize4`
                of each, `encode_message` and `decode_message` of each, their
                `dequantized` rows into `build_input`, then `lr_forward` and
                the argmax, on a standard-normal combiner
    eeg-batch   one batched `model_forward` of the EEG model over [1395 x 4 x
                320] float64 windows, the size of a desk fold's combiner fit
                readout, per window
    ecg-batch   the same for the ECG model over [1395 x 1 x 320]
    sim-run     one `run_simulation` of 720 windows (the default simulated
                hour at a 5 s period) of quantized EEG and ECG rows over
                closed-loop-sim's link: loss 0.2, 3 retries; it records one
                `TraceRow` tuple per event
    sim-trace   one `write_trace_jsonl` of that simulation's trace (about 7,900
                rows) into a temporary file
    sim-cut     `cut_windows` of the first 720 kept windows of one
                default-config (desk) patient from its EEG and its ECG
                manifest, as `simulate --all-windows` cuts the windows it
                replays: every block of both files is read and checked, and
                only those windows are gathered

The models have the pipeline's kernel length (`evaluation.KERNEL_LEN`) and
the default config's hidden widths.  The windows are 16 seeded batches of
standard-normal noise with uniform labels; the steps draw their batches from
all 512 of them, held [C x 512 x T] in float32, by a seeded shuffle
renewed every 16 steps, as `train` draws an epoch's.  The focal loss has
training's gamma (`nn.losses.FOCAL_GAMMA`) and the alpha of those labels.
Each sensor times 400 steps after 30 untimed warm-up steps, and 2000
one-window forwards, on the first window of each batch, after 30 untimed
ones; node-window times 2000 decisions on the same windows after 30
untimed ones; the fit is timed 30 times on one set from `tests/oracles.py`,
and each batched readout 20 times after one untimed one, on standard-normal
noise; the simulation is timed 30 times after one untimed run, on
softmax rows of seeded standard-normal logits, uniform labels and a
standard-normal combiner, and its trace is written 30 times after one
untimed write; the cut is timed 20 times after one untimed cut, on files
`save_synth` wrote.
BLAS is pinned to one thread before numpy loads, and the checkout's own
src/ is imported.  The last line is the result as JSON: each timing's
quartiles under its name, `src_lines`, the lines of every *.py under
src/, counted as perfbench's provenance counts them, `config_leaves`,
the values a config file can set: the leaves of `ExperimentConfig()`'s
dataclass tree, a tuple such as `model.hidden` counting as one, and
`windows_peak_mb`, the tracemalloc peak in MB (2^20 bytes) of `cut_windows`
reading one default-config (desk) patient's EEG and ECG windows from their
files, as `train`, `cross-validate` and `simulate` read them, and
`gen_peak_mb`, that of `save_synth` writing one default-config patient's
files, as `gen-data` writes each patient's.
"""

import dataclasses
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from oracles import noisy_quantized_set  # noqa: E402
from preictal.bansim import (  # noqa: E402
    LinkModel,
    NodeId,
    SimConfig,
    decode_message,
    encode_message,
    run_simulation,
    write_trace_jsonl,
)
from preictal.combiner import (  # noqa: E402
    CombinerConfig,
    CombinerParams,
    build_input,
    lr_forward,
    lr_train,
    quantize4,
)
from preictal.config import ExperimentConfig, ModelConfig  # noqa: E402
from preictal.dataset import (  # noqa: E402
    Sensor,
    cut_windows,
    read_manifest,
    save_recording,
    save_synth,
    synth_generate,
    window_timeline,
)
from preictal.evaluation import KERNEL_LEN  # noqa: E402
from preictal.nn.losses import (  # noqa: E402
    FOCAL_GAMMA,
    FocalLossConfig,
    inverse_frequency_alpha,
)
from preictal.nn.model import (  # noqa: E402
    Buffers,
    backward_batch,
    build_model,
    model_forward,
)
from preictal.nn.ops import softmax  # noqa: E402
from preictal.nn.optim import AdamState, TrainConfig, adam_step  # noqa: E402

BATCH = 32
WARMUP = 30
REPEATS = 400  # timed steps per sensor
FITS = 30  # timed lr_train fits
WINDOWS = 2000  # timed one-window forwards per sensor
READOUTS = 20  # timed batched readouts per sensor
SIM_RUNS = 30  # timed simulations, and timed writes of one trace
CUTS = 20  # timed cuts of the replayed windows
SIM_WINDOWS = 720  # an hour of 5 s windows
# closed-loop-sim's link
SIM_CONFIG = SimConfig(link=LinkModel(loss_probability=0.2), retry_limit=3)
BATCHES = 16  # distinct batches, cycled
FIT_ROWS = 1395  # a desk fold's training windows: the fit set's rows, the readout's windows
# (sensor, channels, pool) at 64 Hz and 5 s windows.
SHAPES = (("eeg", Sensor.EEG, 4, 4), ("ecg", Sensor.ECG, 1, 2))
SAMPLES = 320


def quartiles(seconds: list[float], unit: str = "ms") -> dict:
    scale = {"ms": 1e3, "us": 1e6}[unit]
    q1, median, q3 = np.percentile(np.asarray(seconds) * scale, [25, 50, 75])
    return {f"median_{unit}": median, f"q1_{unit}": q1, f"q3_{unit}": q3,
            "n": len(seconds)}


def desk_model_and_batches(sensor: Sensor, channels: int, pool: int):
    model = build_model(sensor, channels, SAMPLES, KERNEL_LEN, pool,
                        ModelConfig().hidden, seed=0)
    rng = np.random.default_rng(0)
    return model, rng, rng.standard_normal((BATCHES, BATCH, channels, SAMPLES))


def time_steps(sensor: Sensor, channels: int, pool: int) -> list[float]:
    train_cfg = TrainConfig()
    model, rng, xs = desk_model_and_batches(sensor, channels, pool)
    xs = np.ascontiguousarray(
        xs.reshape(-1, channels, SAMPLES).transpose(1, 0, 2), dtype=np.float32)
    ys = rng.integers(0, 5, size=BATCHES * BATCH)
    loss_cfg = FocalLossConfig(gamma=FOCAL_GAMMA, alpha=inverse_frequency_alpha(ys))
    state = AdamState.for_params(model.buffer)
    bufs = Buffers(model, BATCH, np.float32)
    times = []
    for i in range(WARMUP + REPEATS):
        if i % BATCHES == 0:
            order = rng.permutation(len(ys))
        idx = order[i % BATCHES * BATCH:][:BATCH]
        start = time.perf_counter()
        xb = np.take(xs, idx, axis=1).transpose(1, 0, 2)
        _, grad = backward_batch(model, xb, ys[idx], loss_cfg, bufs)
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


def time_node_windows() -> list[float]:
    """Seconds of each window's decision, from both windows to the class."""
    (eeg, _, eeg_xs), (ecg, _, ecg_xs) = (desk_model_and_batches(sensor, channels, pool)
                                          for _, sensor, channels, pool in SHAPES)
    rng = np.random.default_rng(0)
    params = CombinerParams(rng.standard_normal((5, 10)), rng.standard_normal(5))
    times = []
    for i in range(WARMUP + WINDOWS):
        eeg_w, ecg_w = eeg_xs[i % BATCHES, 0], ecg_xs[i % BATCHES, 0]
        start = time.perf_counter()
        p_eeg = quantize4(model_forward(eeg, eeg_w))
        p_ecg = quantize4(model_forward(ecg, ecg_w))
        m_eeg = decode_message(encode_message(p_eeg, i, NodeId.EEG_NODE))
        m_ecg = decode_message(encode_message(p_ecg, i, NodeId.ECG_NODE))
        x = build_input(m_eeg.dequantized(), m_ecg.dequantized())
        int(np.argmax(lr_forward(x, params)))
        times.append(time.perf_counter() - start)
    return times[WARMUP:]


def time_readouts(sensor: Sensor, channels: int, pool: int) -> list[float]:
    """Seconds per window of each batched readout."""
    model, rng, _ = desk_model_and_batches(sensor, channels, pool)
    xs = rng.standard_normal((FIT_ROWS, channels, SAMPLES))
    model_forward(model, xs)
    times = []
    for _ in range(READOUTS):
        start = time.perf_counter()
        model_forward(model, xs)
        times.append((time.perf_counter() - start) / FIT_ROWS)
    return times


def time_fits() -> list[float]:
    xs, ys = noisy_quantized_set(FIT_ROWS, seed=0)
    times = []
    for _ in range(FITS):
        start = time.perf_counter()
        lr_train(xs, ys, CombinerConfig())
        times.append(time.perf_counter() - start)
    return times


def time_simulations() -> tuple[list[float], list[float]]:
    """Seconds of each simulation run, and of each write of its trace."""
    rng = np.random.default_rng(0)
    eeg_rows, ecg_rows = (quantize4(softmax(rng.standard_normal((SIM_WINDOWS, 5))))
                          for _ in range(2))
    labels = rng.integers(0, 5, size=SIM_WINDOWS)
    params = CombinerParams(rng.standard_normal((5, 10)), rng.standard_normal(5))
    args = (SIM_CONFIG, params, labels, np.arange(SIM_WINDOWS), eeg_rows, ecg_rows)
    trace = run_simulation(*args)
    runs = []
    for _ in range(SIM_RUNS):
        start = time.perf_counter()
        run_simulation(*args)
        runs.append(time.perf_counter() - start)
    writes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace_jsonl(trace, path)
        for _ in range(SIM_RUNS):
            start = time.perf_counter()
            write_trace_jsonl(trace, path)
            writes.append(time.perf_counter() - start)
    return runs, writes


def time_sim_cuts() -> list[float]:
    """Seconds of each cut of one patient's first SIM_WINDOWS kept windows."""
    cfg = ExperimentConfig()
    step = (cfg.windowing.window_seconds, cfg.windowing.stride_seconds)
    with tempfile.TemporaryDirectory() as tmp:
        manifests = save_synth(cfg.data, cfg.seed, tmp, "p00")
        ids = window_timeline(manifests[0], *step)[0][:SIM_WINDOWS]
        times = []
        for i in range(1 + CUTS):
            start = time.perf_counter()
            for m in manifests:
                cut_windows(m, *step, ids)
            times.append(time.perf_counter() - start)
    return times[1:]


def config_leaves(node) -> int:
    """The values settable under `node`, a config dataclass."""
    return sum(config_leaves(value) if dataclasses.is_dataclass(value) else 1
               for value in (getattr(node, f.name) for f in dataclasses.fields(node)))


def windows_peak_mb() -> float:
    cfg = ExperimentConfig()
    step = (cfg.windowing.window_seconds, cfg.windowing.stride_seconds)
    with tempfile.TemporaryDirectory() as tmp:
        manifests = [save_recording(rec, tmp, rec.sensor.value)
                     for rec in synth_generate(cfg.data, seed=cfg.seed)]
        tracemalloc.start()
        windows = [cut_windows(read_manifest(m), *step) for m in manifests]  # noqa: F841
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 2**20


def gen_peak_mb() -> float:
    cfg = ExperimentConfig()
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        save_synth(cfg.data, cfg.seed, tmp, "p00")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 2**20


def main() -> int:
    result = {f"{name}-step": quartiles(time_steps(sensor, channels, pool))
              for name, sensor, channels, pool in SHAPES}
    result["lr-train"] = quartiles(time_fits())
    result.update({f"{name}-window": quartiles(time_windows(sensor, channels, pool))
                   for name, sensor, channels, pool in SHAPES})
    result["node-window"] = quartiles(time_node_windows())
    result.update({f"{name}-batch": quartiles(time_readouts(sensor, channels, pool),
                                              "us")
                   for name, sensor, channels, pool in SHAPES})
    runs, writes = time_simulations()
    result["sim-run"] = quartiles(runs)
    result["sim-trace"] = quartiles(writes)
    result["sim-cut"] = quartiles(time_sim_cuts())
    for name, q in result.items():
        unit = "us" if "median_us" in q else "ms"
        print(f"{name:11s} median {q[f'median_{unit}']:8.3f} {unit}  "
              f"q1 {q[f'q1_{unit}']:8.3f}  q3 {q[f'q3_{unit}']:8.3f}  n {q['n']}")
    result["src_lines"] = sum(len(p.read_text().splitlines())
                              for p in sorted((ROOT / "src").rglob("*.py")))
    print(f"src_lines  {result['src_lines']}")
    result["config_leaves"] = config_leaves(ExperimentConfig())
    print(f"config_leaves  {result['config_leaves']}")
    result["windows_peak_mb"] = windows_peak_mb()
    print(f"windows_peak_mb  {result['windows_peak_mb']:.1f}")
    result["gen_peak_mb"] = gen_peak_mb()
    print(f"gen_peak_mb  {result['gen_peak_mb']:.1f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
