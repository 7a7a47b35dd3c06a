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
them, as `FRAME_DTYPE` records, under the same checks.  Both encoders take
a frame's levels from `combiner.quant_steps`, which refuses probabilities
off the four-digit grid.

A frame's content does not depend on when it arrives, so before the event
loop the run encodes every replayed window's sensor frames, decodes them,
and fuses the decoded rows in one block; the loop then only moves frames:
it schedules, loses and delivers them, and a fusion reads its window's
decision.  A window is pending from production until its second sensor
frame arrives, and is then fused; a window still pending at its deadline is
dropped, so each window ends exactly one way.  The event loop is a priority
queue keyed by (timestamp, sequence number), so a trace is a pure function
of the configuration — including the link seed.  The event list is the
simulation's only record, one `TraceRow` per event: (event_type, time_s,
node label, window_index, then the detail values in `EVENT_DETAIL` order),
a tuple whose fields are also read by name.  `latency_report` counts every
outcome from the rows, and `write_trace_jsonl` checks each kind's rows
once, column by column, and writes each row from its kind's line template.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import struct
from collections import defaultdict
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
        # The last window is produced by duration_s; its deadline comes one
        # period later, and its fusion two processing delays and a few frame
        # times later.
        last = ((self.duration_s / self.window_period_s + 2.0) * self.window_period_s
                + 2 * self.processing_delay_s)
        if not math.isfinite(last):
            raise ValueError(
                f"window_period_s {self.window_period_s}, duration_s {self.duration_s} "
                f"and processing_delay_s {self.processing_delay_s} put the last event "
                f"time past the largest float")
        if self.max_windows == 0:
            raise ValueError("duration_s is shorter than one window period")

    @property
    def max_windows(self) -> int:
        """The window periods the duration holds, which cap a replay."""
        return int(np.floor(self.duration_s / self.window_period_s + 1e-9))


# Each event kind `run_simulation` emits, and the keys of its detail, in the
# order a row holds their values.
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


class TraceRow(tuple):
    """One event: (event_type, time_s, node label, window_index, then its
    detail values in `EVENT_DETAIL` order), its fields also read by name."""

    __slots__ = ()
    event_type = property(operator.itemgetter(0))
    time_s = property(operator.itemgetter(1))
    node = property(operator.itemgetter(2))
    window_index = property(operator.itemgetter(3))

    @property
    def detail(self) -> dict:
        """The detail values by key, built when read."""
        return dict(zip(EVENT_DETAIL[self[0]], self[4:]))


@dataclass
class SimTrace:
    events: list[TraceRow] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Wire format


def encode_message(
    probs: np.ndarray, window_index: int, source: NodeId
) -> bytes:
    """Pack quantized probabilities into the fixed 16-byte frame."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (N_CLASSES,):
        raise ValueError(f"expected {N_CLASSES} probabilities, got shape {probs.shape}")
    q = quant_steps(probs).tolist()
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
    steps = quant_steps(probs)
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

    def emit(time_s, event_type, node: NodeId, window_index, *detail):
        """Record an event, its detail values in `EVENT_DETAIL` order."""
        trace.events.append(
            TraceRow((event_type, time_s, NODE_LABELS[node], window_index, *detail)))

    def send(t, w, source, attempt):
        """One transmission attempt; schedules the retry on loss."""
        emit(t, "message_sent", source, w, attempt)
        t_arr = t + FRAME_TIME_S
        if rng.random() < cfg.link.loss_probability:
            final = attempt >= cfg.retry_limit
            emit(t_arr, "message_lost", source, w, attempt, final)
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
            emit(t, "window_produced", NodeId.GATEWAY, w, dataset_index[w], labels[w])
            for sensor in (NodeId.EEG_NODE, NodeId.ECG_NODE):
                schedule(t + cfg.processing_delay_s, "send", w, sensor)
            schedule(t + cfg.window_period_s, "deadline", w)
        elif kind == "send":
            send(t, w, source, attempt)
        elif kind == "deliver":
            to_dbs = source is NodeId.GATEWAY
            emit(t, "message_delivered", NodeId.DBS_NODE if to_dbs else NodeId.GATEWAY,
                 w, attempt, NODE_LABELS[source])
            if not to_dbs and w in pending:
                arrived = pending[w]
                arrived.add(source)
                if len(arrived) == 2:
                    del pending[w]
                    schedule(t + cfg.processing_delay_s, "fuse", w)
        elif kind == "fuse":
            decision = decisions[w]
            emit(t, "fusion_decision", NodeId.GATEWAY, w, decision, labels[w])
            if decision != LabelClass.INTERICTAL:
                emit(t, "alert", NodeId.GATEWAY, w, decision)
                emit(t, "stimulation_command", NodeId.GATEWAY, w, decision)
                send(t, w, NodeId.GATEWAY, 0)
        elif kind == "deadline" and w in pending:
            arrived = pending.pop(w)
            emit(t, "window_dropped", NodeId.GATEWAY, w,
                 NodeId.ECG_NODE in arrived, NodeId.EEG_NODE in arrived)

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
    """Arithmetic summary of a finished trace, from one pass over its rows.
    A window's latency is its fusion decision's time minus its production
    time; summaries of a trace without windows or fusions are reported
    absent."""
    produced: dict[int, float] = {}
    lat: list[float] = []
    n_dropped = n_stim = 0
    for row in trace.events:  # (event_type, time_s, node, window_index, ...)
        kind = row[0]
        if kind == "window_produced":
            produced[row[3]] = row[1]
        elif kind == "fusion_decision":
            lat.append(row[1] - produced[row[3]])
        elif kind == "window_dropped":
            n_dropped += 1
        elif kind == "stimulation_command":
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


# Each kind's trace line as `json.dumps(..., sort_keys=True)` writes a row's
# fields by name, with a %s slot for each detail value in sorted key order,
# then for the node, time and window index; and the row positions of the
# values those slots take, in that order.
_TRACE_LINES = {
    kind: ('{"detail": {' + ", ".join(f'"{key}": %s' for key in sorted(keys))
           + f'}}, "event_type": "{kind}", "node": %s, "time_s": %s, '
           + '"window_index": %s}\n',
           (*(4 + keys.index(key) for key in sorted(keys)), 2, 1, 3))
    for kind, keys in EVENT_DETAIL.items()
}

# How `json` writes a value of each type a trace line may hold.  A %s slot
# writes an int or a finite float as `json` does, so only the others are
# converted.
_JSON_VALUE = {
    int: int.__repr__,
    float: float.__repr__,
    np.float64: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    str: json.dumps,
    type(None): lambda _: "null",
}
_AS_FORMATTED = {int, float}
_FLOATS = {float, np.float64}


def _kind_lines(kind: str, rows: list) -> list[str]:
    """The trace lines of `kind`'s rows, checked and converted a column at a
    time.  ValueError naming the kind, and the field and first value refused,
    at the first check that fails: a kind not in `EVENT_DETAIL`, a wrong
    arity, a value of a type not in `_JSON_VALUE`, or a non-finite float."""
    keys = EVENT_DETAIL.get(kind)
    if keys is None:
        raise ValueError(f"trace event kind {kind!r} is not in EVENT_DETAIL")
    if set(map(len, rows)) != {4 + len(keys)}:
        row = next(row for row in rows if len(row) != 4 + len(keys))
        raise ValueError(f"{kind} event holds detail values {list(row[4:])}, "
                         f"EVENT_DETAIL has keys {list(keys)}")
    template, order = _TRACE_LINES[kind]
    kinds, *fields = zip(*rows)
    columns = [kinds]
    for name, column in zip(("time_s", "node", "window_index", *keys), fields):
        types = set(map(type, column))
        if not types <= _JSON_VALUE.keys():
            value = next(v for v in column if type(v) not in _JSON_VALUE)
            raise ValueError(f"{kind} event's {name} {value!r} is of a type the "
                             "trace does not write")
        floats = types & _FLOATS
        if floats and not all(map(math.isfinite, column if types <= floats else
                                  (v for v in column if type(v) in floats))):
            value = next(v for v in column if type(v) in floats and not math.isfinite(v))
            raise ValueError(f"{kind} event's {name} {value!r} is not finite")
        if not types <= _AS_FORMATTED:
            # A column of one type (node labels, flags) is converted once per
            # distinct value; a mixed one per value, since equal values of
            # two types (True and 1) would share a key.
            text = ({v: _JSON_VALUE[type(v)](v) for v in set(column)}.__getitem__
                    if len(types) == 1 else lambda v: _JSON_VALUE[type(v)](v))
            column = list(map(text, column))
        columns.append(column)
    return list(map(template.__mod__, zip(*map(columns.__getitem__, order))))


def write_trace_jsonl(trace: SimTrace, path: Path | str) -> None:
    """One event per line: time_s, event_type, node, window_index, detail,
    keys sorted, as `json.dumps(..., sort_keys=True)` writes them, each from
    its kind's line template.  Kinds are checked in order of first appearance:
    the first that `_kind_lines` refuses raises, and no file is written."""
    groups: dict[str, list] = defaultdict(list)
    for row in trace.events:
        groups[row[0]].append(row)
    lines = {kind: iter(_kind_lines(kind, rows)) for kind, rows in groups.items()}
    # Each row's line, in trace order: the next line of the row's kind.
    text = "".join(map(next, map(lines.__getitem__, map(operator.itemgetter(0),
                                                        trace.events))))
    with open(path, "w") as fh:
        fh.write(text)
