"""In-memory span tracer that times calls into preictal from outside it.

While a tracer is active, each function in TRACED is replaced by a timing
wrapper bound under the name its caller looks up.  The model's forward pass
calls ``conv1d_forward`` through ``preictal.nn.model``, so that is where the
wrapper goes; nothing under ``src/`` is edited.  A span is the list
``[key, start, end, parent, op, sensor, info]``: ``parent`` indexes the
enclosing span (-1 for a root), ``op`` is the benchmark operation the span
belongs to, ``sensor`` comes from a ``SensorModel`` or ``Recording`` first
argument or else from the parent span, and ``info`` is a small value read
from the call (batch size, window count, epochs run, ...).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NN_OPS = ("conv1d_forward", "conv1d_backward", "maxpool1d_with_argmax",
          "maxpool1d_backward", "batchnorm_forward_with_cache",
          "dense_forward", "dense_backward")
SENSORS = ("EEG", "ECG")  # Sensor values; metric names use lower case
LAYERS = ("dataset", "nn", "combiner", "evaluation", "bansim", "cli", "bench")


def _batch(args, kwargs, out):
    return 1 if args[1].ndim == 2 else args[1].shape[0]


def _train_info(args, kwargs, out):
    report = out[1]
    return (len(args[1]), len(report.epochs), report.best_epoch)


def _sim_info(args, kwargs, out):
    sent = delivered = 0
    for e in out.events:
        if e.event_type == "message_sent":
            sent += 1
        elif e.event_type == "message_delivered":
            delivered += 1
    return (len(out.events), sent, delivered)


def _file_size(args, kwargs, out):
    return os.path.getsize(args[1])


# (module the caller looks the name up in, attribute, span key, info reader).
# The span key's first component names the layer the function belongs to.
TRACED = [
    ("preictal.cli", "synth_generate", "dataset.synth_generate", None),
    ("preictal.cli", "save_recording", "dataset.save_recording", None),
    ("preictal.cli", "load_recording", "dataset.load_recording", None),
    ("preictal.cli", "segment", "dataset.segment", lambda a, k, o: len(o)),
    ("preictal.evaluation", "segment", "dataset.segment", lambda a, k, o: len(o)),
    ("preictal.cli", "kfold_split", "dataset.kfold_split", None),
    ("preictal.evaluation", "kfold_split", "dataset.kfold_split", None),
    *[("preictal.nn.model", op, f"nn.ops.{op}", None) for op in NN_OPS],
    ("preictal.nn.model", "focal_loss_batch", "nn.losses.focal_loss_batch", None),
    ("preictal.nn.train", "focal_loss_batch", "nn.losses.focal_loss_batch", None),
    ("preictal.nn.model", "focal_grad_wrt_logits",
     "nn.losses.focal_grad_wrt_logits", None),
    ("preictal.nn.train", "adam_step", "nn.optim.adam_step", None),
    ("preictal.nn.train", "backward_batch", "nn.model.backward_batch", None),
    ("preictal.nn.model", "model_forward", "nn.model.model_forward", _batch),
    ("preictal.evaluation", "model_forward", "nn.model.model_forward", _batch),
    ("preictal.bansim", "model_forward", "nn.model.model_forward", _batch),
    ("preictal.cli", "save_model", "nn.model.save_model", None),
    ("preictal.cli", "load_model", "nn.model.load_model", None),
    ("preictal.evaluation", "train", "nn.train.train", _train_info),
    ("preictal.nn.train", "evaluate", "nn.train.evaluate", None),
    ("preictal.cli", "write_train_report", "nn.train.write_train_report", None),
    ("preictal.evaluation", "lr_train", "combiner.lr_train", None),
    ("preictal.combiner", "lr_forward", "combiner.lr_forward", None),
    ("preictal.evaluation", "lr_forward", "combiner.lr_forward", None),
    ("preictal.bansim", "lr_forward", "combiner.lr_forward", None),
    ("preictal.combiner", "quantize4", "combiner.quantize4", None),
    ("preictal.evaluation", "quantize4", "combiner.quantize4", None),
    ("preictal.bansim", "quantize4", "combiner.quantize4", None),
    ("preictal.combiner", "build_input", "combiner.build_input", None),
    ("preictal.evaluation", "build_input", "combiner.build_input", None),
    ("preictal.cli", "save_combiner", "combiner.save_combiner", None),
    ("preictal.cli", "run_cross_validation", "evaluation.run_cross_validation", None),
    ("preictal.evaluation", "run_patient_fold", "evaluation.run_patient_fold", None),
    ("preictal.cli", "run_patient_fold", "evaluation.run_patient_fold", None),
    ("preictal.evaluation", "confusion", "evaluation.confusion", None),
    ("preictal.evaluation", "collapse_binary", "evaluation.collapse_binary", None),
    ("preictal.evaluation", "accuracy_trend", "evaluation.accuracy_trend", None),
    ("preictal.evaluation", "_predictions", "evaluation.predictions", None),
    ("preictal.cli", "_predictions", "evaluation.predictions", None),
    ("preictal.cli", "run_simulation", "bansim.run_simulation", _sim_info),
    ("preictal.bansim", "encode_message", "bansim.encode_message", None),
    ("preictal.bansim", "decode_message", "bansim.decode_message", None),
    ("preictal.cli", "latency_report", "bansim.latency_report", None),
    ("preictal.cli", "write_trace_jsonl", "bansim.write_trace_jsonl", _file_size),
    ("preictal.cli", "_write_report_files", "cli.write_report_files", None),
    *[("preictal.cli", f"cmd_{c}", f"cli.cmd_{c}", None)
      for c in ("gen_data", "train", "cross_validate", "simulate")],
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def _wrap(self, fn, key, info):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sensor = getattr(getattr(args[0] if args else None, "sensor", None),
                             "value", None)
            if sensor is None and parent >= 0:
                sensor = spans[parent][5]
            rec = [key, 0.0, 0.0, parent, self._op, sensor, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[6] = info(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def active(self):
        """Install every wrapper for the length of the block."""
        import importlib

        for mod_name, attr, key, info in TRACED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, key, info))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._saved):
                setattr(mod, attr, fn)
            self._saved.clear()

    @contextmanager
    def op(self, key: str):
        """Root span for one benchmark operation (``bench.setup`` or another)."""
        self._op += 1
        rec = [key, 0.0, 0.0, -1, self._op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["key", "start", "end", "parent", "op",
                                  "sensor", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def per_layer_metrics(spans: list[list], overhead_pct: float) -> dict:
    """Per-layer metrics from a finished trace: {name: (value, unit)}.

    Times are means per call over every span (set-up included); ``.calls``
    counts calls per measured operation, so they repeat exactly for one code
    version and one seed.
    """
    n = len(spans)
    child_time = [0.0] * n
    root = [0] * n
    for i, (_, t0, t1, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            root[i] = root[parent]
        else:
            root[i] = i
    # Only spans under a benchmark root count; the benchmark's own checks
    # between operations are left out.
    kept = [spans[root[i]][0].startswith("bench.") for i in range(n)]
    measured = [k and spans[root[i]][0] != "bench.setup" for i, k in enumerate(kept)]
    ops = [s for s, m in zip(spans, measured) if m and s[3] < 0]
    n_ops = len(ops)
    root_total = sum(s[2] - s[1] for s in ops)

    by_key = defaultdict(list)  # key -> [(sensor, dur, self, info, measured)]
    layer_self = defaultdict(float)
    for i, (key, t0, t1, _, _, sensor, info) in enumerate(spans):
        if not kept[i]:
            continue
        dur = t1 - t0
        by_key[key].append((sensor, dur, dur - child_time[i], info, measured[i]))
        if measured[i]:
            layer_self[key.split(".")[0]] += dur - child_time[i]

    def rows(key, sensor=None):
        return [r for r in by_key.get(key, ()) if sensor is None or r[0] == sensor]

    def mean(key, sensor=None, scale=1.0):
        r = rows(key, sensor)
        return scale * sum(x[1] for x in r) / len(r) if r else 0.0

    def calls(key, sensor=None):
        return sum(1 for x in rows(key, sensor) if x[4]) / n_ops if n_ops else 0.0

    def total(*keys):
        return sum(x[1] for k in keys for x in rows(k))

    m: dict[str, tuple[float, str]] = {}
    for name in ("synth_generate", "save_recording", "load_recording",
                 "segment", "kfold_split"):
        m[f"dataset.{name}_s"] = (mean(f"dataset.{name}"), "s")
    seg = rows("dataset.segment")
    m["dataset.windows"] = (sum(x[3] for x in seg) / len(seg) if seg else 0.0,
                            "count")

    for op in NN_OPS:
        for s in SENSORS:
            name = f"nn.ops.{op}.{s.lower()}"
            m[f"{name}.us_per_call"] = (mean(f"nn.ops.{op}", s, 1e6), "us")
            m[f"{name}.calls"] = (calls(f"nn.ops.{op}", s), "count")
    for name in ("focal_loss_batch", "focal_grad_wrt_logits"):
        m[f"nn.losses.{name}.us_per_call"] = (mean(f"nn.losses.{name}", scale=1e6),
                                              "us")
    for s in SENSORS:
        m[f"nn.optim.adam_step.{s.lower()}.us_per_call"] = (
            mean("nn.optim.adam_step", s, 1e6), "us")
        m[f"nn.optim.adam_step.{s.lower()}.calls"] = (
            calls("nn.optim.adam_step", s), "count")

    for s in SENSORS:
        m[f"nn.model.backward_batch.{s.lower()}.ms_per_call"] = (
            mean("nn.model.backward_batch", s, 1e3), "ms")
        fwd = rows("nn.model.model_forward", s)
        single = [x[1] for x in fwd if x[3] == 1]
        batched = [x for x in fwd if x[3] > 1]
        m[f"nn.model.model_forward.{s.lower()}.batch1_us"] = (
            1e6 * sum(single) / len(single) if single else 0.0, "us")
        windows = sum(x[3] for x in batched)
        m[f"nn.model.model_forward.{s.lower()}.us_per_window_batched"] = (
            1e6 * sum(x[1] for x in batched) / windows if windows else 0.0, "us")
    m["nn.model.save_model_s"] = (mean("nn.model.save_model"), "s")
    m["nn.model.load_model_s"] = (mean("nn.model.load_model"), "s")

    trains = rows("nn.train.train")
    for s in SENSORS:
        m[f"nn.train.train.{s.lower()}.s"] = (mean("nn.train.train", s), "s")
    m["nn.train.evaluate_s"] = (mean("nn.train.evaluate"), "s")
    epochs = sum(x[3][1] for x in trains)
    wasted = sum(x[3][1] - x[3][2] for x in trains)
    m["nn.train.epochs_run"] = (epochs / len(trains) if trains else 0.0, "count")
    m["nn.train.steps"] = (len(rows("nn.model.backward_batch")) / len(trains)
                           if trains else 0.0, "count")
    m["nn.train.wasted_epoch_ratio"] = (wasted / epochs if epochs else 0.0, "ratio")

    m["combiner.lr_train_s"] = (mean("combiner.lr_train"), "s")
    m["combiner.lr_forward.us_per_call"] = (mean("combiner.lr_forward", scale=1e6),
                                            "us")
    m["combiner.quantize4.us_per_call"] = (mean("combiner.quantize4", scale=1e6),
                                           "us")

    folds = rows("evaluation.run_patient_fold")
    m["evaluation.run_patient_fold.self_s"] = (
        sum(x[2] for x in folds) / len(folds) if folds else 0.0, "s")
    m["evaluation.scoring_s"] = (
        total("evaluation.confusion", "evaluation.collapse_binary",
              "evaluation.accuracy_trend") / len(folds) if folds else 0.0, "s")
    m["evaluation.predictions_s"] = (mean("evaluation.predictions"), "s")

    sims = rows("bansim.run_simulation")
    m["bansim.run_simulation_s"] = (mean("bansim.run_simulation"), "s")
    m["bansim.events"] = (sum(x[3][0] for x in sims) / len(sims) if sims else 0.0,
                          "count")
    m["bansim.encode_message.calls"] = (calls("bansim.encode_message"), "count")
    m["bansim.decode_message.calls"] = (calls("bansim.decode_message"), "count")
    sent = sum(x[3][1] for x in sims)
    m["bansim.delivery_ratio"] = (sum(x[3][2] for x in sims) / sent if sent else 0.0,
                                  "ratio")
    m["bansim.write_trace_jsonl_s"] = (mean("bansim.write_trace_jsonl"), "s")
    writes = rows("bansim.write_trace_jsonl")
    m["bansim.trace_bytes"] = (sum(x[3] for x in writes) / len(writes)
                               if writes else 0.0, "bytes")

    m["cli.write_report_files_s"] = (mean("cli.write_report_files"), "s")
    commands = len(rows("cli.cmd_train")) + len(rows("cli.cmd_cross_validate"))
    m["cli.model_files_s"] = (
        total("nn.model.save_model", "combiner.save_combiner",
              "nn.train.write_train_report") / commands if commands else 0.0, "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = (
            100.0 * layer_self[layer] / root_total if root_total else 0.0, "%")
    return m
