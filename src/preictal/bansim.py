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
vector with the gateway as source.  The event loop is a priority queue keyed
by (timestamp, sequence number), so a trace is a pure function of the
configuration — including the link seed.
"""

from __future__ import annotations

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
PROCESSING_BUDGET_S = 0.020


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

    def frame_time_s(self, n_bits: int = FRAME_BITS) -> float:
        return n_bits / self.bitrate_bps + self.propagation_delay_s


@dataclass
class SimConfig:
    window_period_s: float = 5.0
    processing_delay_s: float = PROCESSING_BUDGET_S
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
    config: SimConfig
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
    to retry_limit times.  The gateway fuses as soon as both messages of a
    window have arrived; if they have not arrived one window period after
    production, the window is dropped.  Per-window latency is the gateway
    decision time minus the window production time.
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
    trace = SimTrace(config=cfg, n_windows=n_sim)
    heap: list = []
    seq = 0

    def schedule(time_s, kind, **payload):
        nonlocal seq
        heappush(heap, (time_s, seq, kind, payload))
        seq += 1

    def emit(time_s, event_type, node: NodeId, window_index, **detail):
        trace.events.append(
            TraceEvent(time_s, event_type, node.label, window_index, detail))

    produced_at: dict[int, float] = {}
    arrived: dict[int, dict[NodeId, np.ndarray]] = {}
    done: set[int] = set()  # fused or dropped

    for w in range(n_sim):
        schedule((w + 1) * cfg.window_period_s, "produce", w=w)

    def send_frame(t, w, frame, attempt, on_delivered):
        """One transmission attempt; schedules the retry chain on loss."""
        source = NodeId(frame[0])
        emit(t, "message_sent", source, w, attempt=attempt)
        t_arr = t + ft
        if rng.random() < cfg.link.loss_probability:
            final = attempt >= cfg.retry_limit
            emit(t_arr, "message_lost", source, w, attempt=attempt, final=final)
            if not final:
                schedule(t_arr, "send", w=w, frame=frame, attempt=attempt + 1,
                         on_delivered=on_delivered)
        else:
            schedule(t_arr, "deliver", w=w, frame=frame, attempt=attempt,
                     on_delivered=on_delivered)

    while heap:
        t, _, kind, ev = heappop(heap)
        w = ev.get("w")
        if kind == "produce":
            produced_at[w] = t
            arrived[w] = {}
            emit(t, "window_produced", NodeId.GATEWAY, w,
                 label=int(pairs[w][0].label),
                 dataset_index=pairs[w][0].window_index)
            for source, row in ((NodeId.EEG_NODE, eeg_q[w]),
                                (NodeId.ECG_NODE, ecg_q[w])):
                schedule(t + cfg.processing_delay_s, "send", w=w,
                         frame=encode_message(row, w, source), attempt=0,
                         on_delivered="pair")
            schedule(t + cfg.window_period_s, "deadline", w=w)
        elif kind == "send":
            send_frame(t, w, ev["frame"], ev["attempt"], ev["on_delivered"])
        elif kind == "deliver":
            msg = decode_message(ev["frame"])
            receiver = (NodeId.DBS_NODE if msg.source is NodeId.GATEWAY
                        else NodeId.GATEWAY)
            emit(t, "message_delivered", receiver, w,
                 source=msg.source.label, attempt=ev["attempt"])
            if ev["on_delivered"] == "pair" and w not in done:
                arrived[w][msg.source] = msg.dequantized()
                if len(arrived[w]) == 2:
                    schedule(t + cfg.processing_delay_s, "fuse", w=w)
        elif kind == "fuse":
            done.add(w)
            x = np.concatenate([arrived[w][NodeId.EEG_NODE],
                                arrived[w][NodeId.ECG_NODE]])
            fused = lr_forward(x, combiner_params)
            decision = predict(fused)
            trace.decisions[w] = decision
            trace.latencies[w] = t - produced_at[w]
            emit(t, "fusion_decision", NodeId.GATEWAY, w,
                 decision=int(decision), label=int(pairs[w][0].label))
            if _stimulate(cfg.stimulation_policy, decision):
                emit(t, "alert", NodeId.GATEWAY, w, decision=int(decision))
                emit(t, "stimulation_command", NodeId.GATEWAY, w,
                     decision=int(decision))
                send_frame(t, w, encode_message(quantize4(fused), w,
                                                NodeId.GATEWAY), 0, "dbs")
        elif kind == "deadline":
            if w not in done:
                done.add(w)
                emit(t, "window_dropped", NodeId.GATEWAY, w,
                     eeg_arrived=NodeId.EEG_NODE in arrived[w],
                     ecg_arrived=NodeId.ECG_NODE in arrived[w])
                trace.dropped.append(w)
        else:  # pragma: no cover - loop is closed over its own event kinds
            raise RuntimeError(f"unknown event kind {kind!r}")

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
    mean_sensor_processing_s: Optional[float]
    processing_within_budget: Optional[bool]


def latency_report(
    trace: SimTrace, budget_s: float = PROCESSING_BUDGET_S
) -> LatencyReport:
    """Arithmetic summary of a finished trace.

    The budget flag compares the (configured, constant) per-window sensor
    processing delay against `budget_s`; summaries of an empty trace are
    reported absent.
    """
    lat = list(trace.latencies.values())
    n = trace.n_windows
    proc = trace.config.processing_delay_s if n else None
    return LatencyReport(
        n_windows=n,
        n_fused=len(lat),
        n_dropped=len(trace.dropped),
        drop_rate=len(trace.dropped) / n if n else None,
        mean_latency_s=float(np.mean(lat)) if lat else None,
        max_latency_s=float(np.max(lat)) if lat else None,
        stimulation_count=trace.count("stimulation_command"),
        mean_sensor_processing_s=proc,
        processing_within_budget=(proc <= budget_s) if proc is not None else None,
    )


def write_trace_jsonl(trace: SimTrace, path: Path | str) -> None:
    """One event per line: time_s, event_type, node, window_index, detail."""
    with open(path, "w") as fh:
        for e in trace.events:
            fh.write(json.dumps({
                "time_s": e.time_s,
                "event_type": e.event_type,
                "node": e.node,
                "window_index": e.window_index,
                "detail": e.detail,
            }, sort_keys=True) + "\n")
