"""The three benchmark workloads, driven through preictal's CLI and public API.

Every workload runs in its own process on data that ``preictal gen-data``
makes from the benchmark seed; the commands after it keep the config's fixed
seed, so the program sees the benchmark seed only through its data.

- ``cv-train``: ``preictal cross-validate``, one batch job.  Training-heavy:
  nn forward/backward at batch 32, eval forward at batch 256, combiner fit
  and scoring.  No simulator work.
- ``stream-infer``: one caller in a closed loop over the windows of one
  patient.  Per window: batch-1 EEG then ECG forward, quantize4, wire
  encode/decode, build_input, lr_forward and argmax; the next window starts
  when the previous decision is made.  No backward pass and no Adam.
- ``closed-loop-sim``: ``preictal simulate --all-windows`` over a lossy link
  (loss 0.2, 3 retries) for the default simulated hour.  Event heap, wire
  framing, trace JSONL and the offline equivalence pass; batched forward
  passes only, no training.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
from preictal import bansim, cli, combiner, evaluation
from preictal.cli import DATASET_INDEX, MODEL_FILES
from preictal.config import load_config
from preictal.dataset import load_recording, segment
from preictal.nn import model as nn_model

# Bound at import, before any tracing, so the output checks stay untraced.
collapse_binary = evaluation.collapse_binary

LOSS = 0.2
RETRIES = 3
# A window is dropped when either sensor's frame fails all RETRIES + 1 attempts.
ANALYTIC_DROP = 1.0 - (1.0 - LOSS ** (RETRIES + 1)) ** 2
DROP_TOLERANCE = 0.02   # acceptance criterion 10
QUALITY_FLOOR = 0.95    # acceptance criterion 6
SIM = {"link": {"loss_probability": LOSS}, "retry_limit": RETRIES}

# Desk-shape data (64 Hz, 4 EEG channels + 1 ECG channel, 5 s windows, so
# EEG 4x320 with pool 4 and ECG 1x320 with pool 2) for one patient over half
# the desk duration, with two training epochs, so a cross-validation run
# takes seconds and a run repeats it several times.
DESK = {
    "patients": 1,
    "data": {"duration_s": 20_620.0, "n_seizures": 2, "sample_rate_hz": 64,
             "eeg_channels": 4, "seizure_duration_s": 60.0, "noise_sigma": 0.3},
    "training": {"max_epochs": 2},
    "sim": SIM,
}
# The configuration of acceptance criterion 11, for the harness smoke test.
TINY = {
    "patients": 1,
    "folds": 5,
    "data": {"duration_s": 9260.0, "n_seizures": 1, "sample_rate_hz": 64,
             "eeg_channels": 2, "noise_sigma": 0.2},
    "windowing": {"window_seconds": 5.0, "stride_seconds": 40.0},
    "model": {"hidden": [8, 6]},
    "training": {"max_epochs": 2, "patience": 1, "batch_size": 32},
    "combiner": {"learning_rate": 1.0, "max_epochs": 20},
    "sim": SIM,
}


class Reference:
    """Times a fixed kernel, the host-speed reference.

    The kernel (a 64x64 matmul, an exp and a 200-term Python sum, ten
    times) fits in cache and mixes interpreter and small-numpy work, as the
    workloads do.  It is sampled before the first round, after every round
    and, in ``cv-train``, before every ``train()`` call inside a round; each
    round's times are divided by the mean of the samples over it, which
    cancels the host's speed drift.
    """

    def __init__(self):
        self._a = np.random.default_rng(0).random((64, 64))
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, to take out of timings

    def _once(self) -> float:
        t0 = perf_counter()
        for _ in range(10):
            np.exp(self._a @ self._a)
            sum(range(200))
        return perf_counter() - t0

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(statistics.median(self._once() for _ in range(5)))
        self.spent += perf_counter() - t0


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _binary_accuracy(decisions, labels) -> float:
    return collapse_binary(decisions, labels).accuracy


class Workload:
    """Set-up, then timed rounds; each round returns the seconds it timed.

    Subclasses count ``attempted`` and ``failed`` operations; a failed output
    check counts as a failed operation.  ``end_to_end`` takes, per round, the
    mean reference time over it.
    """

    name = ""
    min_rounds = 1

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        self.config = work / "config.json"
        self.config.write_text(json.dumps(TINY if tiny else DESK))
        self.data = work / "data"
        self.models = work / "models"
        self.attempted = 0
        self.failed = 0
        self.reference = Reference()

    def _run(self, *argv) -> None:
        if _cli(*argv) != 0:
            raise RuntimeError(f"set-up command preictal {argv[0]} failed")

    def _gen_data(self) -> None:
        self._run("gen-data", "--config", self.config, "--seed", self.seed,
                  "--out", self.data)

    def _train(self) -> None:
        self._run("train", "--config", self.config, "--data", self.data,
                  "--out", self.models)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the first round."""
        # One list per round of (wall seconds, work units, seconds the work
        # rate is taken over).
        self.ops: list[list[tuple[float, float, float]]] = []

    def round(self, op) -> float:
        raise NotImplementedError

    def completed(self) -> int:
        """Operations that ran to the end, whatever their checks said."""
        return sum(len(r) for r in self.ops)

    def walls(self) -> list[float]:
        return [w for r in self.ops for w, _, _ in r]

    def end_to_end(self, scale: list[float]) -> dict:
        """{name: (value, unit)}: operation time and work rate in units of
        the reference time, medians over rounds, and the binary accuracy of
        the decisions made."""
        rounds = [(r, k) for r, k in zip(self.ops, scale) if r]
        return {
            "op_time_ref": (statistics.median(
                statistics.median(w for w, _, _ in r) / k for r, k in rounds), "ref"),
            "work_per_ref": (statistics.median(
                sum(u for _, u, _ in r) * k / sum(b for _, _, b in r)
                for r, k in rounds), "1/ref"),
            "binary_accuracy": (self.accuracy, "fraction"),
        }

    def named(self) -> list[tuple[str, float, str]]:
        """This workload's own metrics, by the names its issue gave them."""
        raise NotImplementedError

    def _timed_cli(self, *argv) -> tuple[int, float]:
        """Run one command; its wall time leaves out reference sampling."""
        spent = self.reference.spent
        t0 = perf_counter()
        rc = _cli(*argv)
        return rc, perf_counter() - t0 - (self.reference.spent - spent)

    def close(self) -> None:
        pass


class _TrainClock:
    """Wraps ``preictal.evaluation.train``: seconds inside it, samples seen.

    It also samples the reference before each call, so that a
    cross-validation round, seconds long, is sampled throughout.
    """

    def __init__(self, fn, reference: Reference):
        self.fn = fn
        self.reference = reference
        self.seconds = 0.0
        self.samples = 0

    def __call__(self, model, train_windows, *args, **kwargs):
        self.reference.sample()
        t0 = perf_counter()
        out = self.fn(model, train_windows, *args, **kwargs)
        self.seconds += perf_counter() - t0
        self.samples += len(train_windows) * len(out[1].epochs)
        return out


class CvTrain(Workload):
    name = "cv-train"
    min_rounds = 2  # the report digest is compared across rounds

    def setup(self):
        self._gen_data()

    def prepare(self):
        super().prepare()
        self.clock = _TrainClock(evaluation.train, self.reference)
        evaluation.train = self.clock
        self.digests: set[str] = set()

    def close(self):
        evaluation.train = self.clock.fn

    def round(self, op):
        out = self.work / "cv"
        self.clock.seconds, self.clock.samples = 0.0, 0
        with op("bench.cross_validate"):
            rc, wall = self._timed_cli("cross-validate", "--config", self.config,
                                       "--data", self.data, "--out", out)
        self.attempted += 1
        self.failed += rc != 0 or not self._check(out / "report.json")
        # Work rate here is training samples per second inside train().
        self.ops.append([(wall, self.clock.samples, self.clock.seconds)]
                        if rc == 0 else [])
        return wall

    def _check(self, path: Path) -> bool:
        raw = path.read_bytes()
        self.digests.add(hashlib.sha256(raw).hexdigest())
        agg = json.loads(raw)["aggregate"]
        b = agg["combined"]["binary"]
        diag = np.diag(np.array(agg["ecg"]["confusion_normalized"], dtype=float))
        self.accuracy = b["accuracy"]
        self.ecg_recall = float(np.nanmean(diag))
        return len(self.digests) == 1 and all(
            b[k] is not None and b[k] >= QUALITY_FLOOR
            for k in ("sensitivity", "specificity", "accuracy"))

    def named(self):
        return [
            ("cv_wall_s", statistics.median(self.walls()), "s"),
            ("train_samples_per_s", statistics.median(
                u / b for r in self.ops for _, u, b in r), "samples/s"),
            ("combined_binary_accuracy", self.accuracy, "fraction"),
            ("ecg_5class_recall", self.ecg_recall, "fraction"),
            ("report_sha256_distinct", len(self.digests), "count"),
        ]


class StreamInfer(Workload):
    name = "stream-infer"
    BLOCK = 32    # windows per round
    WARMUP = 64   # untimed windows first: lazy set-up a node pays once

    def setup(self):
        self._gen_data()
        self._train()

    def prepare(self):
        super().prepare()
        cfg = load_config(self.config)
        entry = json.loads((self.data / DATASET_INDEX).read_text())["patients"][0]
        step = (cfg.windowing.window_seconds, cfg.windowing.stride_seconds)
        eeg_w = segment(load_recording(self.data / entry["eeg"]), *step)
        ecg_w = {w.window_index: w for w in
                 segment(load_recording(self.data / entry["ecg"]), *step)}
        self.pairs = [(w, ecg_w[w.window_index]) for w in eeg_w]
        self.eeg = nn_model.load_model(self.models / MODEL_FILES["eeg"])
        self.ecg = nn_model.load_model(self.models / MODEL_FILES["ecg"])
        self.params = combiner.load_combiner(self.models / MODEL_FILES["combiner"])
        self.expected = [int(c) for c in evaluation._predictions(
            self.eeg, self.ecg, self.params,
            [p[0] for p in self.pairs], [p[1] for p in self.pairs])["combined"]]
        # At least one full pass, so the accuracy covers every window.
        self.min_rounds = math.ceil(len(self.pairs) / self.BLOCK)
        self.first_pass: dict[int, int] = {}
        self.pos = 0
        for i in range(self.WARMUP):
            self._decide(i % len(self.pairs))

    def _decide(self, i: int) -> int:
        # Every call goes through the module attribute, where tracing hooks in.
        eeg_w, ecg_w = self.pairs[i]
        p_eeg = combiner.quantize4(nn_model.model_forward(self.eeg, eeg_w.data))
        p_ecg = combiner.quantize4(nn_model.model_forward(self.ecg, ecg_w.data))
        m_eeg = bansim.decode_message(
            bansim.encode_message(p_eeg, i, bansim.NodeId.EEG_NODE))
        m_ecg = bansim.decode_message(
            bansim.encode_message(p_ecg, i, bansim.NodeId.ECG_NODE))
        x = combiner.build_input(m_eeg.dequantized(), m_ecg.dequantized())
        return int(np.argmax(combiner.lr_forward(x, self.params)))

    def round(self, op):
        timed = 0.0
        n = len(self.pairs)
        ops = []
        for _ in range(self.BLOCK):
            i = self.pos % n
            self.pos += 1
            with op("bench.window"):
                t0 = perf_counter()
                decision = self._decide(i)
                dt = perf_counter() - t0
            timed += dt
            ops.append((dt, 1, dt))
            self.first_pass.setdefault(i, decision)
            self.attempted += 1
            self.failed += decision != self.expected[i]
        self.ops.append(ops)
        return timed

    def end_to_end(self, scale):
        seen = sorted(self.first_pass)
        self.accuracy = _binary_accuracy([self.first_pass[i] for i in seen],
                                         [self.pairs[i][0].label for i in seen])
        return super().end_to_end(scale)

    def named(self):
        lat_ms = 1e3 * np.array(self.walls())
        return [
            ("window_latency_p50_ms", float(np.percentile(lat_ms, 50)), "ms"),
            ("window_latency_p99_ms", float(np.percentile(lat_ms, 99)), "ms"),
            ("window_latency_samples", len(lat_ms), "count"),
            ("windows_per_s", float(len(lat_ms) / (lat_ms.sum() / 1e3)), "1/s"),
            ("decisions_matching_batched", self.attempted - self.failed, "count"),
        ]


class ClosedLoopSim(Workload):
    name = "closed-loop-sim"

    def setup(self):
        self._gen_data()
        self._train()

    def round(self, op):
        out = self.work / "sim"
        with op("bench.simulate"):
            rc, wall = self._timed_cli(
                "simulate", "--all-windows", "--config", self.config,
                "--data", self.data, "--models", self.models, "--out", out)
        self.attempted += 1
        self.failed += rc != 0 or not self._check(out)
        # Work rate here is trace events per second of simulate.
        self.ops.append([(wall, self.events, wall)] if rc == 0 else [])
        return wall

    def _check(self, out: Path) -> bool:
        summary = json.loads((out / "latency.json").read_text())
        self.events = 0
        decisions, labels = [], []
        with open(out / "trace.jsonl") as fh:
            for line in fh:
                self.events += 1
                if '"fusion_decision"' in line:
                    detail = json.loads(line)["detail"]
                    decisions.append(detail["decision"])
                    labels.append(detail["label"])
        self.accuracy = _binary_accuracy(decisions, labels)
        self.drop_rate = summary["drop_rate"]
        return (summary["equivalence"] is True and self.events > 0
                and abs(self.drop_rate - ANALYTIC_DROP) <= DROP_TOLERANCE)

    def named(self):
        return [
            ("sim_events_per_s", statistics.median(
                e / w for r in self.ops for w, e, _ in r), "events/s"),
            ("sim_events", self.events, "count"),
            ("simulate_wall_s", statistics.median(self.walls()), "s"),
            ("drop_rate", self.drop_rate, "fraction"),
            ("analytic_drop_rate", ANALYTIC_DROP, "fraction"),
        ]


WORKLOADS = {w.name: w for w in (CvTrain, StreamInfer, ClosedLoopSim)}
