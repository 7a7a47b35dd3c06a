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
vector with the gateway as source.  `encode_message` and `decode_message`
pack and read one frame; `encode_frames` and `decode_frames` a block of
them, as `FRAME_DTYPE` records, under the same checks.

A frame's content does not depend on when it arrives, so before the event
loop the run encodes every replayed window's sensor frames, decodes them,
and fuses the decoded rows in one block; the loop then only moves frames:
it schedules, loses and delivers them, and a fusion reads its window's
decision.  A window is pending from production until its second sensor
frame arrives, and is then fused; a window still pending at its deadline is
dropped, so each window ends exactly one way.  The event loop is a priority
queue keyed by (timestamp, sequence number), so a trace is a pure function
of the configuration — including the link seed.  The event list is the
simulation's only record: `latency_report` counts every outcome from it, and
`write_trace_jsonl` writes each event from its kind's line template, built
once from `EVENT_DETAIL`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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
    quant_steps,
    quantize4,
)
from .dataset import N_CLASSES, LabelClass
from .nn.model import model_forward  # noqa: F401  (perfbench/spans.py traces it here)

FRAME_STRUCT = struct.Struct("<BBI5H")
FRAME_BYTES = FRAME_STRUCT.size  # 16
# The same layout as a 16-byte record, for a block of frames.
FRAME_DTYPE = np.dtype([("source", "u1"), ("version", "u1"), ("window_index", "<u4"),
                        ("probs_q", "<u2", (N_CLASSES,))])
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


NODES = tuple(NodeId)  # indexed by wire code
NODE_LABELS = tuple(node.label for node in NODES)

# Each frame field's bounds, and the refusal of a value outside them.
FIELD_BOUNDS = {
    "source": (0, len(NODES) - 1, lambda v: f"source code {v} names no node"),
    "version": (WIRE_VERSION, WIRE_VERSION, lambda v: f"unsupported frame version {v}"),
    "window index": (0, WINDOW_INDEX_MAX, lambda v: (
        f"window index {v} does not fit the frame's u32 field [0, {WINDOW_INDEX_MAX}]")),
    "level": (0, PROBS_Q_MAX, lambda v: (
        f"quantized probability {v * QUANT_STEP} outside [0, 1]")),
}


def _check_bounds(field: str, lowest, highest) -> None:
    """ValueError unless a frame field's values, from `lowest` to `highest`,
    lie in its bounds.  One frame passes its value twice (or its levels'
    least and greatest), a block of frames its least and greatest, so the
    one-frame and block codecs refuse the same frames."""
    lo, hi, refusal = FIELD_BOUNDS[field]
    if lowest < lo or highest > hi:
        raise ValueError(refusal(lowest if lowest < lo else highest))


def _steps(probs: np.ndarray) -> np.ndarray:
    """`quant_steps` of probabilities of any shape; ValueError if they are not
    quantized."""
    steps = quant_steps(probs)
    if steps is None:
        raise ValueError("probabilities must be quantized to 4 decimal digits")
    return steps


@dataclass(frozen=True)
class ProbabilityMessage:
    source: NodeId
    window_index: int
    probs_q: tuple[int, int, int, int, int]

    def __post_init__(self):
        index = self.window_index
        if type(index) is not int or not 0 <= index <= WINDOW_INDEX_MAX:
            raise ValueError(f"window index {index!r} is not an int in the frame's "
                             f"u32 field [0, {WINDOW_INDEX_MAX}]")
        q = self.probs_q
        if len(q) != N_CLASSES:
            raise ValueError(f"probs_q must have {N_CLASSES} entries")
        if min(q) < 0 or max(q) > PROBS_Q_MAX:  # inline: this runs per decoded frame
            _check_bounds("level", min(q), max(q))

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
        for name in ("window_period_s", "processing_delay_s", "duration_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    q = _steps(probs).tolist()
    _check_bounds("level", min(q), max(q))
    try:
        index = operator.index(window_index)
    except TypeError:
        index = None
    if index is None or isinstance(window_index, bool):
        raise ValueError(f"window index {window_index!r} is not an integer")
    _check_bounds("window index", index, index)
    code = int(source)
    _check_bounds("source", code, code)
    return FRAME_STRUCT.pack(code, WIRE_VERSION, index, *map(int, q))


def decode_message(frame: bytes) -> ProbabilityMessage:
    """Exact inverse of encode_message."""
    try:
        fields = FRAME_STRUCT.unpack(frame)  # source, version, window index, 5 levels
    except struct.error:
        raise ValueError(f"frame must be {FRAME_BYTES} bytes, got {len(frame)}") from None
    _check_bounds("version", fields[1], fields[1])
    _check_bounds("source", fields[0], fields[0])
    return ProbabilityMessage(NODES[fields[0]], fields[2], fields[3:])


def encode_frames(probs: np.ndarray, window_index: np.ndarray, source: NodeId) -> bytes:
    """Pack a block of quantized probability rows ([N x 5]) and their N window
    indices, all from `source`: the bytes of `encode_message` on each row in
    turn, and refused wherever it refuses a row."""
    probs = np.asarray(probs, dtype=float)
    index = np.asarray(window_index)
    if probs.ndim != 2 or probs.shape[1] != N_CLASSES or index.shape != probs.shape[:1]:
        raise ValueError(f"expected [N x {N_CLASSES}] probabilities and N window "
                         f"indices, got shapes {probs.shape} and {index.shape}")
    if index.dtype.kind not in "iu":
        raise ValueError(f"window indices must be integers, got {index.dtype}")
    steps = _steps(probs)
    code = int(source)
    _check_bounds("source", code, code)
    if len(probs):
        _check_bounds("level", steps.min(), steps.max())
        _check_bounds("window index", index.min(), index.max())
    frames = np.empty(len(probs), FRAME_DTYPE)
    frames["source"] = code
    frames["version"] = WIRE_VERSION
    frames["window_index"] = index
    frames["probs_q"] = steps
    return frames.tobytes()


def decode_frames(data: bytes) -> np.ndarray:
    """The `FRAME_DTYPE` records of a run of frames, refused wherever
    `decode_message` refuses a frame; `probs_q * QUANT_STEP` reads a
    record's probabilities as `ProbabilityMessage.dequantized` does."""
    if len(data) % FRAME_BYTES:
        raise ValueError(f"frames must be a whole number of {FRAME_BYTES} bytes, "
                         f"got {len(data)}")
    frames = np.frombuffer(data, FRAME_DTYPE)
    if len(frames):
        for field in ("version", "source"):
            _check_bounds(field, frames[field].min(), frames[field].max())
        _check_bounds("level", 0, frames["probs_q"].max())
    return frames


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
    sends row w of `eeg_rows` and `ecg_rows`, from `predictions`; at most
    `cfg.max_windows` windows are replayed.  Before the event loop, each
    sensor's rows are encoded into frames and decoded as the gateway reads
    them, and the gateway fuses every window's two decoded rows in one
    block (a row-wise argmax, ties toward the lowest class); the command
    frames of the windows whose decision is not interictal are encoded
    from the fused rows.  Window w becomes available at (w+1) *
    window_period_s (a window must end before it can be classified); both
    sensor nodes then spend one processing delay on inference and transmit.
    A lost frame is retried back-to-back up to retry_limit times.  A window
    is pending until both sensor frames reach the gateway, which fuses it
    one processing delay later; a window still pending one window period
    after production is dropped.  A decision other than interictal sends a
    stimulation command to the DBS node.
    """
    if not 0 < len(labels) == len(dataset_index) == len(eeg_rows) == len(ecg_rows):
        raise ValueError(f"need at least one window and one EEG and ECG row each; got "
                         f"{len(eeg_rows)} and {len(ecg_rows)} rows for {len(labels)} "
                         f"labels and {len(dataset_index)} dataset indices")
    n_sim = min(len(labels), cfg.max_windows)
    windows = np.arange(n_sim)
    received = [decode_frames(encode_frames(rows[:n_sim], windows, source))
                for source, rows in ((NodeId.EEG_NODE, eeg_rows),
                                     (NodeId.ECG_NODE, ecg_rows))]
    fused = lr_forward(build_input(*(r["probs_q"] * QUANT_STEP for r in received)),
                       combiner_params)
    decisions = fused.argmax(axis=1)
    # The command frames carry nothing the loop reads, but encoding them
    # refuses a fused row the wire cannot carry.
    stimulated = np.flatnonzero(decisions != LabelClass.INTERICTAL)
    encode_frames(quantize4(fused[stimulated]), stimulated, NodeId.GATEWAY)
    decisions = decisions.tolist()
    labels = np.asarray(labels[:n_sim]).tolist()
    dataset_index = np.asarray(dataset_index[:n_sim]).tolist()

    rng = np.random.default_rng(cfg.link.seed)
    trace = SimTrace()
    heap: list = []  # (time, seq, kind, window, source, attempt)
    seq = itertools.count()
    pending: dict[int, set[NodeId]] = {}  # window -> sensors whose frames arrived

    def schedule(time_s, kind, w, source=None, attempt=0):
        heappush(heap, (time_s, next(seq), kind, w, source, attempt))

    def emit(time_s, event_type, node: NodeId, window_index, **detail):
        trace.events.append(
            TraceEvent(time_s, event_type, NODE_LABELS[node], window_index, detail))

    def send(t, w, source, attempt):
        """One transmission attempt; schedules the retry on loss."""
        emit(t, "message_sent", source, w, attempt=attempt)
        t_arr = t + FRAME_TIME_S
        if rng.random() < cfg.link.loss_probability:
            final = attempt >= cfg.retry_limit
            emit(t_arr, "message_lost", source, w, attempt=attempt, final=final)
            if not final:
                schedule(t_arr, "send", w, source, attempt + 1)
        else:
            schedule(t_arr, "deliver", w, source, attempt)

    for w in range(n_sim):
        schedule((w + 1) * cfg.window_period_s, "produce", w)

    while heap:
        t, _, kind, w, source, attempt = heappop(heap)
        if kind == "produce":
            pending[w] = set()
            emit(t, "window_produced", NodeId.GATEWAY, w,
                 label=labels[w], dataset_index=dataset_index[w])
            for sensor in (NodeId.EEG_NODE, NodeId.ECG_NODE):
                schedule(t + cfg.processing_delay_s, "send", w, sensor)
            schedule(t + cfg.window_period_s, "deadline", w)
        elif kind == "send":
            send(t, w, source, attempt)
        elif kind == "deliver":
            to_dbs = source is NodeId.GATEWAY
            emit(t, "message_delivered",
                 NodeId.DBS_NODE if to_dbs else NodeId.GATEWAY, w,
                 source=NODE_LABELS[source], attempt=attempt)
            if not to_dbs and w in pending:
                arrived = pending[w]
                arrived.add(source)
                if len(arrived) == 2:
                    del pending[w]
                    schedule(t + cfg.processing_delay_s, "fuse", w)
        elif kind == "fuse":
            decision = decisions[w]
            emit(t, "fusion_decision", NodeId.GATEWAY, w,
                 decision=decision, label=labels[w])
            if decision != LabelClass.INTERICTAL:
                emit(t, "alert", NodeId.GATEWAY, w, decision=decision)
                emit(t, "stimulation_command", NodeId.GATEWAY, w, decision=decision)
                send(t, w, NodeId.GATEWAY, 0)
        elif kind == "deadline" and w in pending:
            arrived = pending.pop(w)
            emit(t, "window_dropped", NodeId.GATEWAY, w,
                 eeg_arrived=NodeId.EEG_NODE in arrived,
                 ecg_arrived=NodeId.ECG_NODE in arrived)

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


# Each event kind `run_simulation` emits, and the keys of its detail.
EVENT_DETAIL = {
    "window_produced": ("dataset_index", "label"),
    "message_sent": ("attempt",),
    "message_lost": ("attempt", "final"),
    "message_delivered": ("attempt", "source"),
    "fusion_decision": ("decision", "label"),
    "alert": ("decision",),
    "stimulation_command": ("decision",),
    "window_dropped": ("ecg_arrived", "eeg_arrived"),
}

# Each kind's trace line as `json.dumps(vars(event), sort_keys=True)` writes
# it, with a %s slot for each detail value in sorted key order, then for the
# node, time and window index; and its detail keys in that order.
_TRACE_LINES = {
    kind: ('{"detail": {' + ", ".join(f'"{key}": %s' for key in sorted(keys))
           + f'}}, "event_type": "{kind}", "node": %s, "time_s": %s, '
           + '"window_index": %s}\n', tuple(sorted(keys)))
    for kind, keys in EVENT_DETAIL.items()
}


def _json_float(x: float) -> str:
    """`float.__repr__`, which `json` writes for a finite float; KeyError for
    NaN or infinity, which `json` writes as tokens that are not JSON."""
    if math.isfinite(x):
        return float.__repr__(x)
    raise KeyError(x)


# How `json` writes a value of each type a trace line may hold; KeyError for
# a value it cannot.  A trace's strings are node labels, so their encodings
# are cached.
_JSON_VALUE = {
    int: int.__repr__,
    float: _json_float,
    np.float64: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    str: functools.lru_cache(maxsize=64)(json.dumps),
    type(None): lambda _: "null",
}


def _trace_line(e: TraceEvent) -> str:
    """`json.dumps(vars(e), sort_keys=True)` and a newline, from the line
    template of `e`'s kind."""
    try:
        template, keys = _TRACE_LINES[e.event_type]
        detail = e.detail
        if len(detail) != len(keys):
            raise KeyError
        values = (*map(detail.__getitem__, keys), e.node, e.time_s, e.window_index)
        return template % tuple([_JSON_VALUE[type(v)](v) for v in values])
    except KeyError:
        raise ValueError(_refusal(e)) from None


def _refusal(e: TraceEvent) -> str:
    """Why `_trace_line` cannot write `e`."""
    kind = e.event_type
    if kind not in EVENT_DETAIL:
        return f"trace event kind {kind!r} is not in EVENT_DETAIL"
    keys, expected = sorted(e.detail), sorted(EVENT_DETAIL[kind])
    if keys != expected:
        return f"{kind} event has detail keys {keys}, EVENT_DETAIL has {expected}"
    for name, value in (*e.detail.items(), ("node", e.node), ("time_s", e.time_s),
                        ("window_index", e.window_index)):
        if type(value) not in _JSON_VALUE:
            return f"{kind} event's {name} {value!r} is of a type the trace does not write"
        if _JSON_VALUE[type(value)] is _json_float and not math.isfinite(value):
            return f"{kind} event's {name} {value!r} is not finite"
    raise AssertionError(f"no refusal found for {e}")


def write_trace_jsonl(trace: SimTrace, path: Path | str) -> None:
    """One event per line: time_s, event_type, node, window_index, detail,
    keys sorted, as `json.dumps(..., sort_keys=True)` writes them, each from
    its kind's line template.  ValueError naming the kind, and no file
    written, if an event's kind is not in `EVENT_DETAIL`, its detail keys
    differ from the table's, or a value is not finite or of a type not in
    `_JSON_VALUE`."""
    text = "".join(map(_trace_line, trace.events))
    with open(path, "w") as fh:
        fh.write(text)
