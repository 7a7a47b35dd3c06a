"""Discrete-event simulation of the closed-loop body-area network.

Four nodes: an EEG node and an ECG node stream quantized five-class
probability vectors, computed offline before the run, to a gateway, which
fuses them with the logistic-regression combiner and, on every pre-seizure
decision (any class but interictal), sends a stimulation command frame to
the DBS node.

Everything rides on one abstract link: a frame takes FRAME_TIME_S, its
airtime at a fixed BITRATE_BPS of 1 Mb/s, with no propagation delay (on a
body-area network it is nanoseconds); each attempt is lost independently
with the configured probability, and a lost frame is retransmitted up to
the configured retry limit.  There is no channel physics.  All frames are
16 bytes::

    offset 0  source kind   u8
    offset 1  version (=1)  u8
    offset 2  window index  u32 LE
    offset 6  probs * 1e4   5 x u16 LE

Stimulation commands reuse the same frame, carrying the fused probability
vector with the gateway as source.  A window is pending from production
until its second sensor frame arrives, and is then fused; a window still
pending at its deadline is dropped, so each window ends exactly one way.
The event loop is a priority queue keyed by (timestamp, sequence number), so
a trace is a pure function of the configuration — including the link seed.
The event list is the simulation's only record: `latency_report` counts
every outcome from it.
"""

from __future__ import annotations

import itertools
import json
import operator
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .combiner import (
    QUANT_STEP,
    CombinerParams,
    build_input,
    lr_forward,
    predict,
    quant_steps,
    quantize4,
)
from .dataset import N_CLASSES, LabelClass
from .nn.model import model_forward  # noqa: F401  (perfbench/spans.py traces it here)

FRAME_STRUCT = struct.Struct("<BBI5H")
FRAME_BYTES = FRAME_STRUCT.size  # 16
FRAME_BITS = 8 * FRAME_BYTES
BITRATE_BPS = 1e6
FRAME_TIME_S = FRAME_BITS / BITRATE_BPS
WIRE_VERSION = 1
PROBS_Q_MAX = round(1 / QUANT_STEP)  # the level of probability 1
WINDOW_INDEX_MAX = 2**32 - 1  # the frame's u32 field


class NodeId(IntEnum):
    """Wire codes for the four network roles."""

    EEG_NODE = 0
    ECG_NODE = 1
    GATEWAY = 2
    DBS_NODE = 3

    @property
    def label(self) -> str:
        return self.name.lower()


NODE_LABELS = tuple(node.label for node in NodeId)  # indexed by wire code


@dataclass(frozen=True)
class ProbabilityMessage:
    source: NodeId
    window_index: int
    probs_q: tuple[int, int, int, int, int]

    def __post_init__(self):
        if self.window_index < 0:
            raise ValueError("window_index must be non-negative")
        if len(self.probs_q) != N_CLASSES:
            raise ValueError(f"probs_q must have {N_CLASSES} entries")
        for q in self.probs_q:
            if not (0 <= q <= PROBS_Q_MAX):
                raise ValueError(f"probs_q entry {q} outside [0, {PROBS_Q_MAX}]")

    def dequantized(self) -> np.ndarray:
        """Float probabilities; identical to the sender's quantized values."""
        return np.array(self.probs_q, dtype=float) * QUANT_STEP


@dataclass
class LinkModel:
    loss_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.loss_probability < 1.0):
            raise ValueError("loss_probability must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("link seed must be non-negative")


@dataclass
class SimConfig:
    window_period_s: float = 5.0
    processing_delay_s: float = 0.020
    link: LinkModel = field(default_factory=LinkModel)
    duration_s: float = 3600.0
    retry_limit: int = 3

    def __post_init__(self):
        if self.window_period_s <= 0 or self.duration_s <= 0:
            raise ValueError("window_period_s and duration_s must be positive")
        if self.processing_delay_s < 0:
            raise ValueError("processing_delay_s must be non-negative")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be non-negative")
        if self.max_windows == 0:
            raise ValueError("duration_s is shorter than one window period")

    @property
    def max_windows(self) -> int:
        """The window periods the duration holds, which cap a replay."""
        return int(np.floor(self.duration_s / self.window_period_s + 1e-9))


@dataclass
class TraceEvent:
    time_s: float
    event_type: str
    node: str
    window_index: Optional[int]
    detail: dict


@dataclass
class SimTrace:
    events: list[TraceEvent] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Wire format


def encode_message(
    probs: np.ndarray, window_index: int, source: NodeId
) -> bytes:
    """Pack quantized probabilities into the fixed 16-byte frame."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (N_CLASSES,):
        raise ValueError(f"expected {N_CLASSES} probabilities, got shape {probs.shape}")
    steps = quant_steps(probs)
    if steps is None:
        raise ValueError("probabilities must be quantized to 4 decimal digits")
    q = [int(v) for v in steps.tolist()]
    for v in q:
        if not (0 <= v <= PROBS_Q_MAX):
            raise ValueError(f"quantized probability {v * QUANT_STEP} outside [0, 1]")
    try:
        index = operator.index(window_index)
    except TypeError:
        index = None
    if index is None or isinstance(window_index, bool):
        raise ValueError(f"window index {window_index!r} is not an integer")
    if not 0 <= index <= WINDOW_INDEX_MAX:
        raise ValueError(f"window index {index} does not fit the frame's u32 "
                         f"field [0, {WINDOW_INDEX_MAX}]")
    return FRAME_STRUCT.pack(int(source), WIRE_VERSION, index, *q)


def decode_message(frame: bytes) -> ProbabilityMessage:
    """Exact inverse of encode_message."""
    if len(frame) != FRAME_BYTES:
        raise ValueError(f"frame must be {FRAME_BYTES} bytes, got {len(frame)}")
    source, version, window_index, *q = FRAME_STRUCT.unpack(frame)
    if version != WIRE_VERSION:
        raise ValueError(f"unsupported frame version {version}")
    return ProbabilityMessage(NodeId(source), window_index, tuple(q))


# ---------------------------------------------------------------------------
# Event loop


def run_simulation(
    cfg: SimConfig,
    combiner_params: CombinerParams,
    labels: Sequence[int],
    dataset_index: Sequence[int],
    eeg_rows: np.ndarray,
    ecg_rows: np.ndarray,
) -> SimTrace:
    """Replay windows through the network and record every event.

    Window w, of class `labels[w]` and stride-grid id `dataset_index[w]`,
    sends row w of `eeg_rows` and `ecg_rows`, from `_predictions`; at most
    `cfg.max_windows` windows are replayed.  Window w becomes available at
    (w+1) * window_period_s (a window must end before it can be classified);
    both sensor nodes then spend one processing delay on inference and
    transmit.  A lost frame is retried back-to-back up to retry_limit times.
    A window is pending until both sensor frames reach the gateway, which
    fuses it one processing delay later; a window still pending one window
    period after production is dropped.  A decision other than interictal
    sends a stimulation command to the DBS node.
    """
    if not 0 < len(labels) == len(dataset_index) == len(eeg_rows) == len(ecg_rows):
        raise ValueError(f"need at least one window and one EEG and ECG row each; got "
                         f"{len(eeg_rows)} and {len(ecg_rows)} rows for {len(labels)} "
                         f"labels and {len(dataset_index)} dataset indices")
    n_sim = min(len(labels), cfg.max_windows)

    rng = np.random.default_rng(cfg.link.seed)
    trace = SimTrace()
    heap: list = []  # (time, seq, kind, window, payload, attempt)
    seq = itertools.count()
    pending: dict[int, dict[NodeId, np.ndarray]] = {}  # window -> probs so far

    def schedule(time_s, kind, w, payload=None, attempt=0):
        heappush(heap, (time_s, next(seq), kind, w, payload, attempt))

    def emit(time_s, event_type, node: NodeId, window_index, **detail):
        trace.events.append(
            TraceEvent(time_s, event_type, NODE_LABELS[node], window_index, detail))

    def send(t, w, frame, attempt):
        """One transmission attempt; schedules the retry on loss."""
        source = NodeId(frame[0])
        emit(t, "message_sent", source, w, attempt=attempt)
        t_arr = t + FRAME_TIME_S
        if rng.random() < cfg.link.loss_probability:
            final = attempt >= cfg.retry_limit
            emit(t_arr, "message_lost", source, w, attempt=attempt, final=final)
            if not final:
                schedule(t_arr, "send", w, frame, attempt + 1)
        else:
            schedule(t_arr, "deliver", w, frame, attempt)

    for w in range(n_sim):
        schedule((w + 1) * cfg.window_period_s, "produce", w)

    while heap:
        t, _, kind, w, payload, attempt = heappop(heap)
        if kind == "produce":
            pending[w] = {}
            emit(t, "window_produced", NodeId.GATEWAY, w,
                 label=int(labels[w]), dataset_index=int(dataset_index[w]))
            for source, row in ((NodeId.EEG_NODE, eeg_rows[w]),
                                (NodeId.ECG_NODE, ecg_rows[w])):
                schedule(t + cfg.processing_delay_s, "send", w,
                         encode_message(row, w, source))
            schedule(t + cfg.window_period_s, "deadline", w)
        elif kind == "send":
            send(t, w, payload, attempt)
        elif kind == "deliver":
            msg = decode_message(payload)
            to_dbs = msg.source is NodeId.GATEWAY
            emit(t, "message_delivered",
                 NodeId.DBS_NODE if to_dbs else NodeId.GATEWAY, w,
                 source=NODE_LABELS[msg.source], attempt=attempt)
            if not to_dbs and w in pending:
                probs = pending[w]
                probs[msg.source] = msg.dequantized()
                if len(probs) == 2:
                    del pending[w]
                    schedule(t + cfg.processing_delay_s, "fuse", w,
                             build_input(probs[NodeId.EEG_NODE],
                                         probs[NodeId.ECG_NODE]))
        elif kind == "fuse":
            fused = lr_forward(payload, combiner_params)
            decision = predict(fused)
            emit(t, "fusion_decision", NodeId.GATEWAY, w,
                 decision=int(decision), label=int(labels[w]))
            if decision != LabelClass.INTERICTAL:
                emit(t, "alert", NodeId.GATEWAY, w, decision=int(decision))
                emit(t, "stimulation_command", NodeId.GATEWAY, w,
                     decision=int(decision))
                send(t, w, encode_message(quantize4(fused), w, NodeId.GATEWAY), 0)
        elif kind == "deadline" and w in pending:
            probs = pending.pop(w)
            emit(t, "window_dropped", NodeId.GATEWAY, w,
                 eeg_arrived=NodeId.EEG_NODE in probs,
                 ecg_arrived=NodeId.ECG_NODE in probs)

    return trace


# ---------------------------------------------------------------------------
# Reporting


@dataclass
class LatencyReport:
    n_windows: int
    n_fused: int
    n_dropped: int
    drop_rate: Optional[float]
    mean_latency_s: Optional[float]
    max_latency_s: Optional[float]
    stimulation_count: int


def latency_report(trace: SimTrace) -> LatencyReport:
    """Arithmetic summary of a finished trace, from one pass over its events.
    A window's latency is its fusion decision's time minus its production
    time; summaries of a trace without windows or fusions are reported
    absent."""
    produced: dict[int, float] = {}
    lat: list[float] = []
    n_dropped = n_stim = 0
    for e in trace.events:
        if e.event_type == "window_produced":
            produced[e.window_index] = e.time_s
        elif e.event_type == "fusion_decision":
            lat.append(e.time_s - produced[e.window_index])
        elif e.event_type == "window_dropped":
            n_dropped += 1
        elif e.event_type == "stimulation_command":
            n_stim += 1
    n = len(produced)
    return LatencyReport(
        n_windows=n,
        n_fused=len(lat),
        n_dropped=n_dropped,
        drop_rate=n_dropped / n if n else None,
        mean_latency_s=float(np.mean(lat)) if lat else None,
        max_latency_s=float(np.max(lat)) if lat else None,
        stimulation_count=n_stim,
    )


def write_trace_jsonl(trace: SimTrace, path: Path | str) -> None:
    """One event per line: time_s, event_type, node, window_index, detail,
    keys sorted, as `json.dumps(..., sort_keys=True)` writes them, from one
    encoder per file."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        for e in trace.events:
            fh.write(encode(vars(e)) + "\n")
