import json
import re
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from preictal.bansim import (
    EVENT_DETAIL,
    FRAME_BYTES,
    FRAME_DTYPE,
    FRAME_STRUCT,
    FRAME_TIME_S,
    PROBS_Q_MAX,
    ROW_FIELDS,
    WIRE_VERSION,
    LinkModel,
    NodeId,
    SimConfig,
    SimTrace,
    TraceRow,
    decode_frames,
    decode_message,
    encode_frames,
    encode_message,
    latency_report,
    run_simulation,
    write_trace_jsonl,
)
from preictal.combiner import (
    QUANT_STEP,
    CombinerParams,
    build_input,
    lr_forward,
    quantize4,
)
from preictal.dataset import LabelClass, Sensor
from preictal.nn.model import build_model, model_forward


# ---------------------------------------------------------------------------
# Wire format


class TestWireFormat:
    def test_frame_is_16_bytes(self):
        frame = encode_message(quantize4(np.full(5, 0.2)), 0, NodeId.EEG_NODE)
        assert len(frame) == FRAME_BYTES == 16

    def test_layout_example(self):
        # Certainty on class 0 packs 10000 = 0x2710 little-endian at offset 6.
        frame = encode_message(np.array([1.0, 0, 0, 0, 0]), 7, NodeId.EEG_NODE)
        assert frame[0] == 0                      # source
        assert frame[1] == WIRE_VERSION
        assert frame[2:6] == (7).to_bytes(4, "little")
        assert frame[6:8] == b"\x10\x27"
        assert frame[8:] == bytes(8)
        assert frame == struct.pack("<BBI5H", 0, 1, 7, 10000, 0, 0, 0, 0)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = quantize4(rng.uniform(0, 1, size=5))
            w = int(rng.integers(0, 2**32))
            source = NodeId(int(rng.integers(0, 4)))
            msg = decode_message(encode_message(p, w, source))
            assert msg.source is source
            assert msg.window_index == w
            np.testing.assert_array_equal(msg.dequantized(), p)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, PROBS_Q_MAX), min_size=5, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_roundtrip_from_integer_levels(self, q, w):
        p = np.array(q, dtype=float) * QUANT_STEP
        msg = decode_message(encode_message(p, w, NodeId.ECG_NODE))
        assert msg.probs_q == tuple(q)
        np.testing.assert_array_equal(msg.dequantized(), p)

    def test_encode_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_message(np.array([0.12345, 0, 0, 0, 0]), 0, NodeId.EEG_NODE)
        with pytest.raises(ValueError):
            encode_message(np.array([1.5, 0, 0, 0, 0]), 0, NodeId.EEG_NODE)
        with pytest.raises(ValueError):
            encode_message(np.array([-0.1, 0, 0, 0, 0]), 0, NodeId.EEG_NODE)
        with pytest.raises(ValueError):
            encode_message(np.zeros(4), 0, NodeId.EEG_NODE)

    @settings(max_examples=300)
    @given(st.lists(st.floats(0, 1), min_size=5, max_size=5), st.integers(0, 4),
           st.sampled_from([1.5e-5, 4.9e-5, -3e-5]))
    def test_levels_are_the_rounded_steps_and_every_rejection_holds(self, values, i,
                                                                     off):
        p = quantize4(np.array(values))
        frame = encode_message(p, 0, NodeId.EEG_NODE)
        assert list(struct.unpack_from("<5H", frame, 6)) == \
            [int(round(v / QUANT_STEP)) for v in p]
        off_grid = p.copy()
        off_grid[i] += off
        with pytest.raises(ValueError, match="quantized to 4 decimal digits"):
            encode_message(off_grid, 0, NodeId.EEG_NODE)
        for level in (-1, PROBS_Q_MAX + 1):
            outside = p.copy()
            outside[i] = level * QUANT_STEP
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                encode_message(outside, 0, NodeId.EEG_NODE)
        for shape in (p[:4], np.append(p, 0.0), p[None]):
            with pytest.raises(ValueError, match="expected 5 probabilities"):
                encode_message(shape, 0, NodeId.EEG_NODE)

    @pytest.mark.parametrize("index", [-1, 2**32])
    def test_encode_rejects_a_window_index_outside_the_u32_field(self, index):
        p = quantize4(np.full(5, 0.2))
        with pytest.raises(ValueError, match=f"window index {index} does not fit"):
            encode_message(p, index, NodeId.EEG_NODE)
        edge = 0 if index < 0 else 2**32 - 1
        assert decode_message(encode_message(p, edge, NodeId.EEG_NODE)).window_index \
            == edge

    @pytest.mark.parametrize("index", [3.7, True, np.True_, "3", None])
    def test_encode_rejects_a_window_index_that_is_not_an_integer(self, index):
        # Refused, not truncated: 3.7 is not window 3, nor True window 1.
        p = quantize4(np.full(5, 0.2))
        with pytest.raises(ValueError, match=re.escape(
                f"window index {index!r} is not an integer")):
            encode_message(p, index, NodeId.EEG_NODE)
        assert decode_message(encode_message(p, np.uint32(3), NodeId.EEG_NODE)) \
            .window_index == 3

    def test_decode_rejects_bad_frames(self):
        good = encode_message(quantize4(np.full(5, 0.2)), 3, NodeId.GATEWAY)
        with pytest.raises(ValueError):
            decode_message(good[:-1])
        with pytest.raises(ValueError):
            decode_message(good + b"\x00")
        bad_version = bytes([good[0], 9]) + good[2:]
        with pytest.raises(ValueError):
            decode_message(bad_version)
        overflow = good[:6] + struct.pack("<H", PROBS_Q_MAX + 1) + good[8:]
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            decode_message(overflow)

    def test_node_labels(self):
        assert NodeId.EEG_NODE.label == "eeg_node"
        assert NodeId.GATEWAY.label == "gateway"
        assert [int(n) for n in NodeId] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Block codec


# A block of 1-8 rows of integer levels, their window indices and a sender.
blocks = st.integers(1, 8).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, (n, 5), elements=st.integers(0, PROBS_Q_MAX)),
    st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n),
    st.sampled_from(list(NodeId))))


def _refused(call, *args) -> bool:
    try:
        call(*args)
    except ValueError:
        return True
    return False


class TestBlockCodec:
    def test_frame_dtype_is_the_frame_struct_layout(self):
        assert FRAME_DTYPE.itemsize == FRAME_BYTES == FRAME_STRUCT.size
        codes = FRAME_STRUCT.format.lstrip("<")  # "BBI5H"
        offsets = [struct.calcsize("<" + codes[:k]) for k in (0, 1, 2, 3)]
        assert [FRAME_DTYPE.fields[name][1] for name in FRAME_DTYPE.names] == offsets
        record = np.zeros((), FRAME_DTYPE)
        record["source"], record["version"], record["window_index"] = 2, 1, 2**32 - 1
        record["probs_q"] = [1, 2, 3, 4, PROBS_Q_MAX]
        assert record.tobytes() == FRAME_STRUCT.pack(2, 1, 2**32 - 1, 1, 2, 3, 4,
                                                     PROBS_Q_MAX)

    @settings(max_examples=200)
    @given(blocks)
    def test_block_encode_is_the_frames_of_each_row(self, block):
        levels, index, source = block
        probs = levels * QUANT_STEP
        data = encode_frames(probs, index, source)
        assert data == b"".join(encode_message(p, w, source)
                                for p, w in zip(probs, index))
        assert encode_frames(probs, np.array(index, dtype=np.uint32), source) == data

    @settings(max_examples=200)
    @given(blocks)
    def test_block_decode_agrees_with_each_frame_decoded(self, block):
        levels, index, source = block
        data = encode_frames(levels * QUANT_STEP, index, source)
        records = decode_frames(data)
        assert records.dtype == FRAME_DTYPE and len(records) == len(index)
        for k, record in enumerate(records):
            msg = decode_message(data[k * FRAME_BYTES:(k + 1) * FRAME_BYTES])
            assert NodeId(record["source"]) is msg.source is source
            assert record["window_index"] == msg.window_index == index[k]
            assert tuple(record["probs_q"].tolist()) == msg.probs_q == \
                tuple(levels[k].tolist())
            assert (record["probs_q"] * QUANT_STEP).tobytes() == \
                msg.dequantized().tobytes()

    @settings(max_examples=200)
    @given(blocks, st.data())
    def test_a_row_encode_message_refuses_makes_the_block_refused(self, block, data):
        levels, index, source = block
        probs, index = levels * QUANT_STEP, list(index)
        k = data.draw(st.integers(0, len(index) - 1))
        kind = data.draw(st.sampled_from(["off-grid", "level", "index"]))
        if kind == "off-grid":
            probs[k, data.draw(st.integers(0, 4))] += data.draw(
                st.sampled_from([1.5e-5, 4.9e-5, -3e-5]))
        elif kind == "level":
            probs[k, data.draw(st.integers(0, 4))] = data.draw(
                st.sampled_from([-1, PROBS_Q_MAX + 1, 2**16])) * QUANT_STEP
        else:
            index[k] = data.draw(st.sampled_from([-1, 2**32, 2**40, 2**64, 3.7]))
        assert _refused(encode_message, probs[k], index[k], source)
        assert _refused(encode_frames, probs, index, source)

    @settings(max_examples=200)
    @given(blocks, st.data())
    def test_a_frame_decode_message_refuses_makes_the_block_refused(self, block, data):
        levels, index, source = block
        frames = bytearray(encode_frames(levels * QUANT_STEP, index, source))
        k = data.draw(st.integers(0, len(index) - 1))
        at = k * FRAME_BYTES
        kind = data.draw(st.sampled_from(["version", "source", "level"]))
        if kind == "version":
            frames[at + 1] = data.draw(st.integers(0, 255).filter(
                lambda v: v != WIRE_VERSION))
        elif kind == "source":
            frames[at] = data.draw(st.integers(len(NodeId), 255))
        else:
            slot = at + 6 + 2 * data.draw(st.integers(0, 4))
            struct.pack_into("<H", frames, slot,
                             data.draw(st.integers(PROBS_Q_MAX + 1, 2**16 - 1)))
        assert _refused(decode_message, bytes(frames[at:at + FRAME_BYTES]))
        assert _refused(decode_frames, bytes(frames))

    def test_block_shapes_and_lengths_are_checked(self):
        p = quantize4(np.full((3, 5), 0.2))
        for probs, index in ((p[0], [0]), (p, [0, 1]), (p[:, :4], [0, 1, 2]),
                             (p, np.array([True, False, True]))):
            with pytest.raises(ValueError):
                encode_frames(probs, index, NodeId.EEG_NODE)
        data = encode_frames(p, [0, 1, 2], NodeId.EEG_NODE)
        with pytest.raises(ValueError, match="whole number of 16 bytes"):
            decode_frames(data[:-1])
        assert encode_frames(p[:0], np.arange(0), NodeId.GATEWAY) == b""
        assert len(decode_frames(b"")) == 0


# ---------------------------------------------------------------------------
# Link and config validation


class TestConfigs:
    def test_frame_time(self):
        # 16 bytes at 1 Mb/s, with no propagation delay.
        assert FRAME_TIME_S == 128 / 1e6

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkModel(loss_probability=1.0)
        with pytest.raises(ValueError):
            LinkModel(loss_probability=-0.1)
        with pytest.raises(ValueError):
            LinkModel(seed=-1)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(window_period_s=0)
        with pytest.raises(ValueError):
            SimConfig(processing_delay_s=-0.1)
        with pytest.raises(ValueError):
            SimConfig(retry_limit=-1)

    @pytest.mark.parametrize("name", ["window_period_s", "processing_delay_s",
                                      "duration_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_sim_config_refuses_non_finite_times(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig(**{name: value})


    def test_sim_config_refuses_times_whose_events_overflow(self):
        # Each time is finite, but window 0's deadline, one period after it
        # is produced at 1e308, is not: the run would drop it at inf.
        with pytest.raises(ValueError, match="window_period_s 1e.308, duration_s "
                                             "1.5e.308 .* past the largest float"):
            SimConfig(window_period_s=1e308, duration_s=1.5e308,
                      link=LinkModel(loss_probability=0.9), retry_limit=0)
        with pytest.raises(ValueError, match="past the largest float"):
            SimConfig(window_period_s=1e-10, duration_s=1e308)
        SimConfig(window_period_s=1e300, duration_s=1e301)

    def test_int_times_from_a_config_are_floats(self, sim_setup, tmp_path):
        # A config file may give a time as an int; every event time is
        # still a float, so the trace writer takes the run.
        cfg = SimConfig(window_period_s=5, processing_delay_s=0, duration_s=20,
                        link=LinkModel(loss_probability=0.5, seed=3), retry_limit=0)
        assert [type(cfg.window_period_s), type(cfg.processing_delay_s),
                type(cfg.duration_s)] == [float] * 3
        trace = run_simulation(cfg, *sim_setup)
        assert {type(e.time_s) for e in trace.events} == {float}
        assert _dropped(trace) and _events(trace, "fusion_decision")
        write_trace_jsonl(trace, tmp_path / "trace.jsonl")


# ---------------------------------------------------------------------------
# Simulation fixtures


@pytest.fixture(scope="module")
def sim_setup():
    """A random combiner and, for 40 windows, their classes, their dataset
    indices and the quantized rows that small untrained models give for
    each window's EEG and ECG, in the order `run_simulation` takes them."""
    eeg_model = build_model(Sensor.EEG, 2, 64, kernel_len=3, pool_size=2,
                            hidden=(8, 6), seed=0)
    ecg_model = build_model(Sensor.ECG, 1, 64, kernel_len=3, pool_size=2,
                            hidden=(8, 6), seed=1)
    rng = np.random.default_rng(2)
    combiner = CombinerParams(rng.standard_normal((5, 10)),
                              rng.standard_normal(5))
    t = np.arange(64)
    labels = np.arange(40) % 5
    xe, xc = np.empty((40, 2, 64)), np.empty((40, 1, 64))
    for w, code in enumerate(labels):
        xe[w] = np.sin(2 * np.pi * (code + 1) * t / 64) \
            + 0.2 * rng.standard_normal((2, 64))
        xc[w] = np.sin(2 * np.pi * (code + 1) * t / 64) \
            + 0.2 * rng.standard_normal((1, 64))
    eeg_rows = quantize4(model_forward(eeg_model, xe))
    ecg_rows = quantize4(model_forward(ecg_model, xc))
    return combiner, labels, np.arange(40), eeg_rows, ecg_rows


def _offline_decisions(combiner, labels, dataset_index, eeg_rows, ecg_rows):
    """The gateway's decision per window, fused one row at a time."""
    return [LabelClass(int(np.argmax(lr_forward(build_input(e, c), combiner))))
            for e, c in zip(eeg_rows, ecg_rows)]


def _report(trace, setup):
    """`latency_report` of a run of `setup`, against its offline decisions."""
    return latency_report(trace, _offline_decisions(*setup))


def _first(setup, n):
    """The simulation inputs of `setup` cut to its first n windows."""
    combiner, *per_window = setup
    return combiner, *(part[:n] for part in per_window)


def _events(trace, event_type):
    return [e for e in trace.events if e.event_type == event_type]


def _decisions(trace):
    """{window: fused class} from the trace's fusion decisions."""
    return {e.window_index: LabelClass(e.detail["decision"])
            for e in _events(trace, "fusion_decision")}


def _dropped(trace):
    return [e.window_index for e in _events(trace, "window_dropped")]


def _latencies(trace):
    """{window: decision time minus production time}, counted independently
    of `latency_report`."""
    produced = {e.window_index: e.time_s for e in _events(trace, "window_produced")}
    return {e.window_index: e.time_s - produced[e.window_index]
            for e in _events(trace, "fusion_decision")}


LOSSLESS = SimConfig(
    window_period_s=5.0, processing_delay_s=0.020,
    link=LinkModel(loss_probability=0.0, seed=0),
    duration_s=5.0 * 40, retry_limit=3,
)


# ---------------------------------------------------------------------------
# Lossless behaviour


class TestLosslessSimulation:
    def test_decisions_match_offline_pipeline_exactly(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        offline = _offline_decisions(*sim_setup)
        report = latency_report(trace, offline)
        assert (report["n_windows"], report["equivalence"]) == (40, True)
        assert not _dropped(trace)
        decisions = _decisions(trace)
        assert [decisions[w] for w in range(40)] == offline

    def test_latency_is_two_processing_delays_plus_frame_time(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        expected = 2 * 0.020 + 128 / 1e6
        latencies = _latencies(trace)
        lat = np.array([latencies[w] for w in range(40)])
        np.testing.assert_allclose(lat, expected, atol=1e-9)
        report = _report(trace, sim_setup)
        np.testing.assert_allclose(report["mean_latency_s"], expected, atol=1e-9)
        assert report["n_fused"] == 40
        assert report["drop_rate"] == 0.0

    def test_event_times_are_monotone(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        times = [e.time_s for e in trace.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_window_conservation(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        count = Counter(e.event_type for e in trace.events)
        assert count["window_produced"] == 40
        assert count["fusion_decision"] + count["window_dropped"] == 40
        # Lossless: one send and one delivery per sensor per window, plus one
        # frame per stimulation command.
        stim = count["stimulation_command"]
        assert count["message_sent"] == 2 * 40 + stim
        assert count["message_delivered"] == 2 * 40 + stim
        assert count["message_lost"] == 0

    def test_stimulation_policy_any_preictal(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        preictal = sum(1 for d in _decisions(trace).values()
                       if d is not LabelClass.INTERICTAL)
        assert preictal > 0
        assert len(_events(trace, "stimulation_command")) == preictal
        assert len(_events(trace, "alert")) == preictal
        assert _report(trace, sim_setup)["stimulation_count"] == preictal

    def test_interictal_decisions_send_no_command(self, sim_setup):
        _, *per_window = sim_setup
        calm = CombinerParams(np.zeros((5, 10)), np.eye(5)[LabelClass.INTERICTAL])
        trace = run_simulation(LOSSLESS, calm, *per_window)
        assert set(_decisions(trace).values()) == {LabelClass.INTERICTAL}
        assert not _events(trace, "stimulation_command")
        assert not _events(trace, "alert")
        report = latency_report(trace, [LabelClass.INTERICTAL] * 40)
        assert (report["stimulation_count"], report["equivalence"]) == (0, True)

    def test_duration_caps_window_count(self, sim_setup):
        cfg = SimConfig(window_period_s=5.0, duration_s=15.0,
                        link=LinkModel(seed=0))
        assert cfg.max_windows == 3
        trace = run_simulation(cfg, *sim_setup)
        assert _report(trace, sim_setup)["n_windows"] == 3
        assert set(_decisions(trace)) == {0, 1, 2}

    def test_deterministic_trace(self, sim_setup, tmp_path):
        t1 = run_simulation(LOSSLESS, *sim_setup)
        t2 = run_simulation(LOSSLESS, *sim_setup)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(t1, p1)
        write_trace_jsonl(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_produced_windows_carry_their_class_and_dataset_index(self, sim_setup):
        combiner, labels, _, eeg_rows, ecg_rows = sim_setup
        index = 1000 + 3 * np.arange(40)  # ids of a stride grid with gaps
        trace = run_simulation(LOSSLESS, combiner, labels, index, eeg_rows, ecg_rows)
        produced = _events(trace, "window_produced")
        assert [e.detail for e in produced] == [
            {"label": int(c), "dataset_index": int(i)} for c, i in zip(labels, index)]
        assert {e.window_index: e.detail["label"]
                for e in _events(trace, "fusion_decision")} == dict(enumerate(labels))

    def test_trace_jsonl_shape(self, sim_setup, tmp_path):
        trace = run_simulation(LOSSLESS, *sim_setup)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(trace.events)
        first = json.loads(lines[0])
        assert set(first) == {"time_s", "event_type", "node", "window_index",
                              "detail"}
        assert first["event_type"] == "window_produced"


def _as_dict(row):
    """A trace row's fields by name, as a trace line spells them out."""
    return {"time_s": row.time_s, "event_type": row.event_type, "node": row.node,
            "window_index": row.window_index, "detail": row.detail}


# (link seed, loss probability, retry limit) of the runs whose traces are
# written; the last drops windows.
WRITER_RUNS = [(0, 0.0, 3), (7, 0.3, 2), (11, 0.5, 1), (2**32 - 1, 0.9, 0)]


def _schema(kind):
    """The type of each field of a `kind` row after its event type."""
    return [*ROW_FIELDS.values(), *EVENT_DETAIL[kind].values()]


class TestTraceWriter:
    def test_each_line_is_the_events_json(self, sim_setup, tmp_path):
        dropped = 0
        for seed, loss, retries in WRITER_RUNS:
            cfg = SimConfig(duration_s=100.0, retry_limit=retries,
                            link=LinkModel(loss_probability=loss, seed=seed))
            trace = run_simulation(cfg, *_first(sim_setup, 20))
            path = tmp_path / f"trace_{seed}.jsonl"
            write_trace_jsonl(trace, path)
            lines = path.read_text().splitlines()
            assert lines == [json.dumps(_as_dict(row), sort_keys=True)
                             for row in trace.events]
            for row in trace.events:
                assert type(row) is TraceRow
                assert tuple(row.detail) == tuple(EVENT_DETAIL[row.event_type])
                assert row == (row.event_type, row.time_s, row.node, row.window_index,
                               *row.detail.values())
                assert list(map(type, row[1:])) == _schema(row.event_type)
            dropped += len(_dropped(trace))
        assert dropped

    def test_writes_each_schema_type_as_json_does(self, tmp_path):
        rows = [TraceRow(("message_sent", 5.0, "eeg_node", 0, 0)),
                TraceRow(("alert", 0.1 * 3, "gateway", 2**40, 4)),
                TraceRow(("window_dropped", 1e22, "gateway", 3, False, True)),
                TraceRow(("message_lost", 5e-324, "ecg_node", 2**64, -1, True)),
                # Strings that json escapes, each converted once however
                # often it appears.
                *[TraceRow(("message_delivered", 2.5, 'gate"way\n', 1, 0,
                            "\u00e9cg\\node")) for _ in range(3)],
                TraceRow(("message_sent", -0.0, "gateway", 0, 1))]
        write_trace_jsonl(SimTrace(rows), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_text() == "".join(
            json.dumps(_as_dict(row), sort_keys=True) + "\n" for row in rows)

    @pytest.mark.parametrize("event, refusal", [
        (TraceRow(("window_lost", 1.0, "gateway", 0)),
         "trace event kind 'window_lost' is not in EVENT_DETAIL"),
        (TraceRow(("message_lost", 1.0, "eeg_node", 0, 0)),
         "message_lost event holds detail values [0], "
         "EVENT_DETAIL has keys ['attempt', 'final']"),
        (TraceRow(("alert", 1.0, "gateway", 0, 1, 1)),
         "alert event holds detail values [1, 1], EVENT_DETAIL has keys ['decision']"),
        (TraceRow(("fusion_decision", 1.0, "gateway", 0, np.int64(1), 1)),
         "fusion_decision event's decision np.int64(1) is of type int64, not int"),
        (TraceRow(("message_sent", np.float32(1.0), "eeg_node", 0, 0)),
         "message_sent event's time_s np.float32(1.0) is of type float32, not float"),
        (TraceRow(("window_dropped", float("inf"), "gateway", 0, True, False)),
         "window_dropped event's time_s inf is not finite"),
        # The same kind as the good row, whose time is finite.
        (TraceRow(("message_sent", float("nan"), "eeg_node", 0, 0)),
         "message_sent event's time_s nan is not finite"),
    ])
    def test_refuses_an_event_it_cannot_write_naming_its_kind(self, tmp_path,
                                                               event, refusal):
        good = TraceRow(("message_sent", 0.0, "eeg_node", 0, 0))
        path = tmp_path / "trace.jsonl"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            write_trace_jsonl(SimTrace([good, event]), path)
        assert not path.exists()

    @pytest.mark.parametrize("event, refusal", [
        (TraceRow(("message_sent", 5, "eeg_node", 0, 0)),
         "message_sent event's time_s 5 is of type int, not float"),
        (TraceRow(("message_sent", np.float64(2.5), "eeg_node", 0, 0)),
         "message_sent event's time_s np.float64(2.5) is of type float64, not float"),
        (TraceRow(("window_dropped", 1.0, "gateway", None, True, False)),
         "window_dropped event's window_index None is of type NoneType, not int"),
        (TraceRow(("message_lost", 1.0, "eeg_node", 0, 0, 1)),
         "message_lost event's final 1 is of type int, not bool"),
        (TraceRow(("message_sent", 1.0, "eeg_node", 0, True)),
         "message_sent event's attempt True is of type bool, not int"),
    ])
    def test_refuses_a_value_not_of_its_fields_type(self, tmp_path, event, refusal):
        # Each of these was written before the rows had one type per field:
        # an int or numpy time, a missing window index, and an int and a bool
        # that json writes differently from the type their field holds.
        good = [TraceRow(("message_sent", 0.0, "eeg_node", 0, 0)),
                TraceRow(("message_lost", 0.5, "eeg_node", 0, 0, False)),
                TraceRow(("window_dropped", 5.0, "gateway", 0, False, True))]
        path = tmp_path / "trace.jsonl"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            write_trace_jsonl(SimTrace([*good, event]), path)
        assert not path.exists()

    @pytest.mark.parametrize("third, refusal", [
        (TraceRow(("window_dropped", float("inf"), "gateway", 0, True, False)),
         "alert event's decision np.int64(4) is of type int64, not int"),
        # The third row's kind first appears before the second row's.
        (TraceRow(("message_sent", float("nan"), "eeg_node", 0, 0)),
         "message_sent event's time_s nan is not finite"),
    ])
    def test_refuses_the_first_kind_to_appear_whose_check_fails(self, tmp_path,
                                                                third, refusal):
        rows = [TraceRow(("message_sent", 0.0, "eeg_node", 0, 0)),
                TraceRow(("alert", 1.0, "gateway", 0, np.int64(4))), third]
        path = tmp_path / "trace.jsonl"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            write_trace_jsonl(SimTrace(rows), path)
        assert not path.exists()


# ---------------------------------------------------------------------------
# Losses, retries, deadlines


class TestLossySimulation:
    def test_arrival_after_deadline_drops_every_window(self, sim_setup):
        # Both frames leave 6 s after production, past the 5 s deadline.
        cfg = SimConfig(window_period_s=5.0, processing_delay_s=6.0,
                        link=LinkModel(seed=0), duration_s=100.0, retry_limit=0)
        trace = run_simulation(cfg, *sim_setup)
        assert _dropped(trace) == list(range(20))
        assert not _events(trace, "fusion_decision")
        report = _report(trace, sim_setup)
        assert (report["n_windows"], report["n_dropped"]) == (20, 20)
        assert report["drop_rate"] == 1.0
        assert report["mean_latency_s"] is None
        assert report["max_latency_s"] is None
        assert report["equivalence"] is None

    def test_loss_rate_statistics(self, sim_setup):
        # loss 0.5, no retries: a window survives only if both frames do,
        # so the expected drop rate is 1 - 0.25 = 0.75.
        combiner, labels, _, eeg_rows, ecg_rows = sim_setup
        cycle = np.arange(600) % len(labels)
        cfg = SimConfig(window_period_s=5.0,
                        link=LinkModel(loss_probability=0.5, seed=11),
                        duration_s=5.0 * 600, retry_limit=0)
        trace = run_simulation(cfg, combiner, labels[cycle], np.arange(600),
                               eeg_rows[cycle], ecg_rows[cycle])
        drop = len(_dropped(trace)) / 600
        assert abs(drop - 0.75) < 0.1
        offline = _offline_decisions(*sim_setup)
        report = latency_report(trace, [offline[w] for w in cycle])
        assert (report["drop_rate"], report["equivalence"]) == (drop, True)

    def test_retry_attempts_are_contiguous(self, sim_setup):
        cfg = SimConfig(window_period_s=5.0,
                        link=LinkModel(loss_probability=0.4, seed=3),
                        duration_s=5.0 * 40, retry_limit=3)
        trace = run_simulation(cfg, *sim_setup)
        by_sender: dict[tuple, list[int]] = {}
        for e in trace.events:
            if e.event_type == "message_sent":
                by_sender.setdefault((e.window_index, e.node), []).append(
                    e.detail["attempt"])
        assert by_sender
        for attempts in by_sender.values():
            assert attempts == list(range(len(attempts)))
            assert len(attempts) <= cfg.retry_limit + 1

    def test_fused_decisions_unaffected_by_loss(self, sim_setup):
        # Retransmission changes timing, never payloads: surviving windows
        # decide exactly as the lossless run does.
        cfg = SimConfig(window_period_s=5.0,
                        link=LinkModel(loss_probability=0.3, seed=7),
                        duration_s=5.0 * 40, retry_limit=2)
        lossy = run_simulation(cfg, *sim_setup)
        clean = run_simulation(LOSSLESS, *sim_setup)
        clean_decisions = _decisions(clean)
        assert _decisions(lossy)  # seed 7 keeps at least some windows
        for w, decision in _decisions(lossy).items():
            assert decision is clean_decisions[w]

    def test_retries_recover_windows(self, sim_setup):
        base = dict(window_period_s=5.0, duration_s=5.0 * 40)
        no_retry = SimConfig(link=LinkModel(loss_probability=0.4, seed=5),
                             retry_limit=0, **base)
        with_retry = SimConfig(link=LinkModel(loss_probability=0.4, seed=5),
                               retry_limit=3, **base)
        dropped_plain = len(_dropped(run_simulation(no_retry, *sim_setup)))
        dropped_retry = len(_dropped(run_simulation(with_retry, *sim_setup)))
        assert dropped_retry < dropped_plain


# ---------------------------------------------------------------------------
# Window conservation under any timing


def _assert_each_window_ends_once(trace, offline):
    """Every produced window is fused or dropped, never both, and a fused
    decision is the offline one."""
    produced = [e.window_index for e in trace.events
                if e.event_type == "window_produced"]
    assert produced == list(range(len(offline)))
    ends = [e.window_index for e in trace.events
            if e.event_type in ("fusion_decision", "window_dropped")]
    assert sorted(ends) == produced
    report = latency_report(trace, offline)
    assert report["n_fused"] + report["n_dropped"] == report["n_windows"]
    assert report["equivalence"] is (True if report["n_fused"] else None)
    for w, decision in _decisions(trace).items():
        assert decision is offline[w]


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(processing=st.floats(0.0, 8.0), loss=st.floats(0.0, 0.9),
           retries=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_each_window_fused_or_dropped_once(self, sim_setup, processing,
                                               loss, retries, seed):
        # A processing delay is spent before sending and again before fusing,
        # so draws below 2.5 s fuse before the 5 s deadline, draws from 2.5 s
        # to just under 5 s fuse after it, and longer ones are dropped.
        cfg = SimConfig(processing_delay_s=processing, duration_s=50.0,
                        link=LinkModel(loss_probability=loss, seed=seed),
                        retry_limit=retries)
        first10 = _first(sim_setup, 10)
        trace = run_simulation(cfg, *first10)
        _assert_each_window_ends_once(trace, _offline_decisions(*first10))

    @settings(max_examples=40, deadline=None)
    @given(processing=st.floats(0.0, 8.0), loss=st.floats(0.0, 0.9),
           retries=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_report_is_a_recount_of_the_written_trace(self, sim_setup, processing,
                                                     loss, retries, seed):
        cfg = SimConfig(processing_delay_s=processing, duration_s=50.0,
                        link=LinkModel(loss_probability=loss, seed=seed),
                        retry_limit=retries)
        first10 = _first(sim_setup, 10)
        trace = run_simulation(cfg, *first10)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            write_trace_jsonl(trace, path)
            events = [json.loads(line) for line in path.read_text().splitlines()]
        count = Counter(e["event_type"] for e in events)
        produced = {e["window_index"]: e["time_s"] for e in events
                    if e["event_type"] == "window_produced"}
        lat = [e["time_s"] - produced[e["window_index"]] for e in events
               if e["event_type"] == "fusion_decision"]
        n = count["window_produced"]
        assert _report(trace, first10) == {
            "n_windows": n,
            "n_fused": count["fusion_decision"],
            "n_dropped": count["window_dropped"],
            "drop_rate": count["window_dropped"] / n,
            "mean_latency_s": float(np.mean(lat)) if lat else None,
            "max_latency_s": max(lat) if lat else None,
            "stimulation_count": count["stimulation_command"],
            "equivalence": True if lat else None,
        }

    @pytest.mark.parametrize("cfg", [
        pytest.param(SimConfig(processing_delay_s=3.0, duration_s=50.0),
                     id="slow-processing"),
        # Both frames reach the gateway under 10 ms before the deadline.
        pytest.param(SimConfig(processing_delay_s=4.99, duration_s=50.0),
                     id="slow-link"),
    ])
    def test_fusion_after_the_deadline_still_counts_once(self, sim_setup, cfg):
        # Both frames arrive before the deadline; fusion lands after it.  The
        # window left the pending table on its second frame, so it is fused
        # and not also dropped.
        first10 = _first(sim_setup, 10)
        trace = run_simulation(cfg, *first10)
        _assert_each_window_ends_once(trace, _offline_decisions(*first10))
        report = _report(trace, first10)
        assert (report["n_fused"], report["n_dropped"], report["drop_rate"]) == \
            (10, 0, 0.0)
        assert report["mean_latency_s"] > cfg.window_period_s

    @pytest.mark.parametrize("window", [0, 7])
    def test_one_decision_off_the_offline_class_breaks_equivalence(self, sim_setup,
                                                                   window):
        trace = run_simulation(LOSSLESS, *sim_setup)
        offline = _offline_decisions(*sim_setup)
        offline[window] = LabelClass((offline[window] + 1) % 5)
        report = latency_report(trace, offline)
        assert (report["n_fused"], report["equivalence"]) == (40, False)
        assert report == {**_report(trace, sim_setup), "equivalence": False}


# ---------------------------------------------------------------------------
# Input validation and edge cases


class TestSimulationEdges:
    def test_rejects_empty_windows(self, sim_setup):
        with pytest.raises(ValueError):
            run_simulation(LOSSLESS, *_first(sim_setup, 0))

    @pytest.mark.parametrize("cut", [
        pytest.param((39, 40, 40, 40), id="fewer-windows"),
        pytest.param((40, 39, 40, 40), id="fewer-dataset-indices"),
        pytest.param((40, 40, 39, 40), id="fewer-eeg-rows"),
        pytest.param((40, 40, 40, 39), id="fewer-ecg-rows"),
    ])
    def test_rejects_rows_and_windows_of_unequal_count(self, sim_setup, cut):
        combiner, *inputs = sim_setup
        with pytest.raises(ValueError, match="rows for"):
            run_simulation(LOSSLESS, combiner,
                           *(part[:n] for part, n in zip(inputs, cut)))

    def test_rejects_duration_below_one_period(self):
        with pytest.raises(ValueError, match="shorter than one window period"):
            SimConfig(window_period_s=5.0, duration_s=4.0)

    def test_empty_latency_report(self):
        report = latency_report(SimTrace(), [])
        assert report["n_windows"] == 0
        assert report["drop_rate"] is None
        assert report["mean_latency_s"] is None
        assert report["equivalence"] is None
