"""Discrete-event simulation of the closed-loop body-area network.

Four nodes: an EEG classifier node and an ECG classifier node stream
quantized five-class probability vectors to a gateway, which fuses them with
the logistic-regression combiner and, when the fused class calls for it,
sends a stimulation command frame to the DBS node.

Everything rides on one abstract link model (bitrate, propagation delay,
independent per-attempt loss with bounded retransmission); there is no
channel physics.  All frames are 16 bytes::

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
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from heapq import heappop, heappush
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .combiner import (
    QUANT_STEP,
    CombinerParams,
    build_input,
    is_quantized,
    lr_forward,
    predict,
    quantize4,
)
from .dataset import N_CLASSES, LabelClass, LabeledWindow
from .nn.model import SensorModel, model_forward

FRAME_STRUCT = struct.Struct("<BBI5H")
FRAME_BYTES = FRAME_STRUCT.size  # 16
FRAME_BITS = 8 * FRAME_BYTES
WIRE_VERSION = 1
PROBS_Q_MAX = 10_000


class NodeId(IntEnum):
    """Wire codes for the four network roles."""

    EEG_NODE = 0
    ECG_NODE = 1
    GATEWAY = 2
    DBS_NODE = 3

    @property
    def label(self) -> str:
        return self.name.lower()


class StimulationPolicy(str, Enum):
    ANY_PREICTAL = "any_preictal"      # fused class 0-3 triggers a command
    PRE_0_15_ONLY = "pre0to15_only"    # only the nearest-to-onset class does


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
    bitrate_bps: float = 1e6
    propagation_delay_s: float = 0.0
    loss_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate_bps must be positive")
        if self.propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be non-negative")
        if not (0.0 <= self.loss_probability < 1.0):
            raise ValueError("loss_probability must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("link seed must be non-negative")

    def frame_time_s(self) -> float:
        return FRAME_BITS / self.bitrate_bps + self.propagation_delay_s


@dataclass
class SimConfig:
    window_period_s: float = 5.0
    processing_delay_s: float = 0.020
    link: LinkModel = field(default_factory=LinkModel)
    stimulation_policy: StimulationPolicy = StimulationPolicy.ANY_PREICTAL
    duration_s: float = 3600.0
    retry_limit: int = 3

    def __post_init__(self):
        if isinstance(self.stimulation_policy, str):
            self.stimulation_policy = StimulationPolicy(self.stimulation_policy)
        if self.window_period_s <= 0 or self.duration_s <= 0:
            raise ValueError("window_period_s and duration_s must be positive")
        if self.processing_delay_s < 0:
            raise ValueError("processing_delay_s must be non-negative")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be non-negative")


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
    latencies: dict[int, float] = field(default_factory=dict)
    decisions: dict[int, LabelClass] = field(default_factory=dict)
    dropped: list[int] = field(default_factory=list)
    n_windows: int = 0

    def count(self, event_type: str) -> int:
        return sum(1 for e in self.events if e.event_type == event_type)


# ---------------------------------------------------------------------------
# Wire format


def encode_message(
    probs: np.ndarray, window_index: int, source: NodeId
) -> bytes:
    """Pack quantized probabilities into the fixed 16-byte frame."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (N_CLASSES,):
        raise ValueError(f"expected {N_CLASSES} probabilities, got shape {probs.shape}")
    if not is_quantized(probs):
        raise ValueError("probabilities must be quantized to 4 decimal digits")
    q = [int(round(p / QUANT_STEP)) for p in probs]
    for v in q:
        if not (0 <= v <= PROBS_Q_MAX):
            raise ValueError(f"quantized probability {v * QUANT_STEP} outside [0, 1]")
    return FRAME_STRUCT.pack(int(source), WIRE_VERSION, int(window_index), *q)


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


def _stimulate(policy: StimulationPolicy, decision: LabelClass) -> bool:
    if policy is StimulationPolicy.ANY_PREICTAL:
        return decision != LabelClass.INTERICTAL
    return decision == LabelClass.PRE_0_15


def run_simulation(
    cfg: SimConfig,
    eeg_model: SensorModel,
    ecg_model: SensorModel,
    combiner_params: CombinerParams,
    windows: Sequence[tuple[LabeledWindow, LabeledWindow]],
) -> SimTrace:
    """Replay paired windows through the network and record every event.

    Window w becomes available at (w+1) * window_period_s (a window must end
    before it can be classified); both sensor nodes then spend one processing
    delay on inference and transmit.  A lost frame is retried back-to-back up
    to retry_limit times.  A window is pending until both sensor frames reach
    the gateway, which fuses it one processing delay later; a window still
    pending one window period after production is dropped.  Per-window
    latency is the gateway decision time minus the production time.
    """
    if not windows:
        raise ValueError("need at least one window pair to simulate")
    n_sim = min(len(windows),
                int(np.floor(cfg.duration_s / cfg.window_period_s + 1e-9)))
    if n_sim == 0:
        raise ValueError("duration_s is shorter than one window period")
    pairs = list(windows[:n_sim])
    for we, wc in pairs:
        if we.window_index != wc.window_index:
            raise ValueError("EEG/ECG window pair indices do not match")

    eeg_q = quantize4(model_forward(eeg_model, np.stack([we.data for we, _ in pairs])))
    ecg_q = quantize4(model_forward(ecg_model, np.stack([wc.data for _, wc in pairs])))

    rng = np.random.default_rng(cfg.link.seed)
    ft = cfg.link.frame_time_s()
    trace = SimTrace(n_windows=n_sim)
    heap: list = []  # (time, seq, kind, window, payload, attempt)
    seq = itertools.count()
    pending: dict[int, dict[NodeId, np.ndarray]] = {}  # window -> probs so far

    def schedule(time_s, kind, w, payload=None, attempt=0):
        heappush(heap, (time_s, next(seq), kind, w, payload, attempt))

    def emit(time_s, event_type, node: NodeId, window_index, **detail):
        trace.events.append(
            TraceEvent(time_s, event_type, node.label, window_index, detail))

    def send(t, w, frame, attempt):
        """One transmission attempt; schedules the retry on loss."""
        source = NodeId(frame[0])
        emit(t, "message_sent", source, w, attempt=attempt)
        t_arr = t + ft
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
                 label=int(pairs[w][0].label),
                 dataset_index=pairs[w][0].window_index)
            for source, row in ((NodeId.EEG_NODE, eeg_q[w]),
                                (NodeId.ECG_NODE, ecg_q[w])):
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
                 source=msg.source.label, attempt=attempt)
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
            trace.decisions[w] = decision
            trace.latencies[w] = t - (w + 1) * cfg.window_period_s
            emit(t, "fusion_decision", NodeId.GATEWAY, w,
                 decision=int(decision), label=int(pairs[w][0].label))
            if _stimulate(cfg.stimulation_policy, decision):
                emit(t, "alert", NodeId.GATEWAY, w, decision=int(decision))
                emit(t, "stimulation_command", NodeId.GATEWAY, w,
                     decision=int(decision))
                send(t, w, encode_message(quantize4(fused), w, NodeId.GATEWAY), 0)
        elif kind == "deadline" and w in pending:
            probs = pending.pop(w)
            emit(t, "window_dropped", NodeId.GATEWAY, w,
                 eeg_arrived=NodeId.EEG_NODE in probs,
                 ecg_arrived=NodeId.ECG_NODE in probs)
            trace.dropped.append(w)

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
    """Arithmetic summary of a finished trace; summaries of an empty trace
    are reported absent."""
    lat = list(trace.latencies.values())
    n = trace.n_windows
    return LatencyReport(
        n_windows=n,
        n_fused=len(lat),
        n_dropped=len(trace.dropped),
        drop_rate=len(trace.dropped) / n if n else None,
        mean_latency_s=float(np.mean(lat)) if lat else None,
        max_latency_s=float(np.max(lat)) if lat else None,
        stimulation_count=trace.count("stimulation_command"),
    )


def write_trace_jsonl(trace: SimTrace, path: Path | str) -> None:
    """One event per line: time_s, event_type, node, window_index, detail."""
    with open(path, "w") as fh:
        for e in trace.events:
            fh.write(json.dumps(vars(e), sort_keys=True) + "\n")
