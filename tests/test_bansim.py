import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preictal.bansim import (
    FRAME_BYTES,
    PROBS_Q_MAX,
    WIRE_VERSION,
    LatencyReport,
    LinkModel,
    NodeId,
    ProbabilityMessage,
    SimConfig,
    SimTrace,
    StimulationPolicy,
    decode_message,
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
from preictal.dataset import LabelClass, LabeledWindow, Sensor, stack_windows
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
        with pytest.raises(ValueError):
            decode_message(overflow)

    def test_probability_message_validation(self):
        with pytest.raises(ValueError):
            ProbabilityMessage(NodeId.EEG_NODE, -1, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            ProbabilityMessage(NodeId.EEG_NODE, 0, (0, 0, 0, 0))
        with pytest.raises(ValueError):
            ProbabilityMessage(NodeId.EEG_NODE, 0, (0, 0, 0, 0, 10001))

    def test_node_labels(self):
        assert NodeId.EEG_NODE.label == "eeg_node"
        assert NodeId.GATEWAY.label == "gateway"
        assert [int(n) for n in NodeId] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Link and config validation


class TestConfigs:
    def test_frame_time(self):
        link = LinkModel(bitrate_bps=1e6, propagation_delay_s=0.001)
        assert link.frame_time_s() == 128 / 1e6 + 0.001

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkModel(bitrate_bps=0)
        with pytest.raises(ValueError):
            LinkModel(propagation_delay_s=-0.1)
        with pytest.raises(ValueError):
            LinkModel(loss_probability=1.0)
        with pytest.raises(ValueError):
            LinkModel(loss_probability=-0.1)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(window_period_s=0)
        with pytest.raises(ValueError):
            SimConfig(retry_limit=-1)
        with pytest.raises(ValueError):
            SimConfig(stimulation_policy="bogus")
        cfg = SimConfig(stimulation_policy="pre0to15_only")
        assert cfg.stimulation_policy is StimulationPolicy.PRE_0_15_ONLY


# ---------------------------------------------------------------------------
# Simulation fixtures


@pytest.fixture(scope="module")
def sim_setup():
    """Small untrained models, a random combiner, and 40 paired windows."""
    eeg_model = build_model(Sensor.EEG, 2, 64, kernel_len=3, pool_size=2,
                            hidden=(8, 6), seed=0)
    ecg_model = build_model(Sensor.ECG, 1, 64, kernel_len=3, pool_size=2,
                            hidden=(8, 6), seed=1)
    rng = np.random.default_rng(2)
    combiner = CombinerParams(rng.standard_normal((5, 10)),
                              rng.standard_normal(5))
    t = np.arange(64)
    pairs = []
    for w in range(40):
        code = w % 5
        eeg = np.sin(2 * np.pi * (code + 1) * t / 64) \
            + 0.2 * rng.standard_normal((2, 64))
        ecg = np.sin(2 * np.pi * (code + 1) * t / 64) \
            + 0.2 * rng.standard_normal((1, 64))
        pairs.append((
            LabeledWindow(w, 5.0 * w, eeg, LabelClass(code)),
            LabeledWindow(w, 5.0 * w, ecg, LabelClass(code)),
        ))
    return eeg_model, ecg_model, combiner, pairs


def _offline_decisions(eeg_model, ecg_model, combiner, pairs):
    xe, _ = stack_windows([p[0] for p in pairs])
    xc, _ = stack_windows([p[1] for p in pairs])
    p_eeg = quantize4(model_forward(eeg_model, xe))
    p_ecg = quantize4(model_forward(ecg_model, xc))
    out = []
    for i in range(len(pairs)):
        x = build_input(p_eeg[i], p_ecg[i])
        out.append(LabelClass(int(np.argmax(lr_forward(x, combiner)))))
    return out


LOSSLESS = SimConfig(
    window_period_s=5.0, processing_delay_s=0.020,
    link=LinkModel(bitrate_bps=1e6, propagation_delay_s=0.0,
                   loss_probability=0.0, seed=0),
    duration_s=5.0 * 40, retry_limit=3,
)


# ---------------------------------------------------------------------------
# Lossless behaviour


class TestLosslessSimulation:
    def test_decisions_match_offline_pipeline_exactly(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        trace = run_simulation(LOSSLESS, eeg_model, ecg_model, combiner, pairs)
        offline = _offline_decisions(eeg_model, ecg_model, combiner, pairs)
        assert trace.n_windows == 40
        assert not trace.dropped
        assert [trace.decisions[w] for w in range(40)] == offline

    def test_latency_is_two_processing_delays_plus_frame_time(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        trace = run_simulation(LOSSLESS, eeg_model, ecg_model, combiner, pairs)
        expected = 2 * 0.020 + 128 / 1e6
        lat = np.array([trace.latencies[w] for w in range(40)])
        np.testing.assert_allclose(lat, expected, atol=1e-9)
        report = latency_report(trace)
        np.testing.assert_allclose(report.mean_latency_s, expected, atol=1e-9)
        assert report.n_fused == 40
        assert report.drop_rate == 0.0

    def test_event_times_are_monotone(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        times = [e.time_s for e in trace.events]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_window_conservation(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        assert trace.count("window_produced") == trace.n_windows
        assert len(trace.latencies) + len(trace.dropped) == trace.n_windows
        # Lossless: one send and one delivery per sensor per window, plus one
        # frame per stimulation command.
        stim = trace.count("stimulation_command")
        assert trace.count("message_sent") == 2 * trace.n_windows + stim
        assert trace.count("message_delivered") == 2 * trace.n_windows + stim
        assert trace.count("message_lost") == 0

    def test_stimulation_policy_any_preictal(self, sim_setup):
        trace = run_simulation(LOSSLESS, *sim_setup)
        preictal = sum(1 for d in trace.decisions.values()
                       if d is not LabelClass.INTERICTAL)
        assert trace.count("stimulation_command") == preictal
        assert trace.count("alert") == preictal

    def test_stimulation_policy_nearest_bin_only(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(window_period_s=5.0, processing_delay_s=0.020,
                        link=LinkModel(seed=0),
                        stimulation_policy=StimulationPolicy.PRE_0_15_ONLY,
                        duration_s=200.0, retry_limit=3)
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs)
        nearest = sum(1 for d in trace.decisions.values()
                      if d is LabelClass.PRE_0_15)
        assert trace.count("stimulation_command") == nearest

    def test_duration_caps_window_count(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(window_period_s=5.0, duration_s=15.0,
                        link=LinkModel(seed=0))
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs)
        assert trace.n_windows == 3
        assert set(trace.decisions) == {0, 1, 2}

    def test_deterministic_trace(self, sim_setup, tmp_path):
        t1 = run_simulation(LOSSLESS, *sim_setup)
        t2 = run_simulation(LOSSLESS, *sim_setup)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace_jsonl(t1, p1)
        write_trace_jsonl(t2, p2)
        assert p1.read_bytes() == p2.read_bytes()

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


# ---------------------------------------------------------------------------
# Losses, retries, deadlines


class TestLossySimulation:
    def test_arrival_after_deadline_drops_every_window(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(window_period_s=5.0, processing_delay_s=0.020,
                        link=LinkModel(propagation_delay_s=6.0, seed=0),
                        duration_s=100.0, retry_limit=0)
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs)
        assert trace.dropped == list(range(trace.n_windows))
        assert not trace.latencies
        report = latency_report(trace)
        assert report.drop_rate == 1.0
        assert report.mean_latency_s is None
        assert report.max_latency_s is None

    def test_loss_rate_statistics(self, sim_setup):
        # loss 0.5, no retries: a window survives only if both frames do,
        # so the expected drop rate is 1 - 0.25 = 0.75.
        eeg_model, ecg_model, combiner, pairs = sim_setup
        many = [pairs[i % len(pairs)] for i in range(600)]
        many = [(LabeledWindow(i, 5.0 * i, e.data, e.label),
                 LabeledWindow(i, 5.0 * i, c.data, c.label))
                for i, (e, c) in enumerate(many)]
        cfg = SimConfig(window_period_s=5.0,
                        link=LinkModel(loss_probability=0.5, seed=11),
                        duration_s=5.0 * 600, retry_limit=0)
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, many)
        drop = len(trace.dropped) / trace.n_windows
        assert abs(drop - 0.75) < 0.1

    def test_retry_attempts_are_contiguous(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(window_period_s=5.0,
                        link=LinkModel(loss_probability=0.4, seed=3),
                        duration_s=5.0 * 40, retry_limit=3)
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs)
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
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(window_period_s=5.0,
                        link=LinkModel(loss_probability=0.3, seed=7),
                        duration_s=5.0 * 40, retry_limit=2)
        lossy = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs)
        clean = run_simulation(LOSSLESS, eeg_model, ecg_model, combiner, pairs)
        assert lossy.decisions  # seed 7 keeps at least some windows
        for w, decision in lossy.decisions.items():
            assert decision is clean.decisions[w]

    def test_retries_recover_windows(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        base = dict(window_period_s=5.0, duration_s=5.0 * 40)
        no_retry = SimConfig(link=LinkModel(loss_probability=0.4, seed=5),
                             retry_limit=0, **base)
        with_retry = SimConfig(link=LinkModel(loss_probability=0.4, seed=5),
                               retry_limit=3, **base)
        dropped_plain = len(run_simulation(
            no_retry, eeg_model, ecg_model, combiner, pairs).dropped)
        dropped_retry = len(run_simulation(
            with_retry, eeg_model, ecg_model, combiner, pairs).dropped)
        assert dropped_retry < dropped_plain


# ---------------------------------------------------------------------------
# Window conservation under any timing


def _assert_each_window_ends_once(trace, offline):
    """Every produced window is fused or dropped, never both, and a fused
    decision is the offline one."""
    produced = [e.window_index for e in trace.events
                if e.event_type == "window_produced"]
    assert produced == list(range(trace.n_windows))
    ends = [e.window_index for e in trace.events
            if e.event_type in ("fusion_decision", "window_dropped")]
    assert sorted(ends) == produced
    report = latency_report(trace)
    assert report.n_fused + report.n_dropped == report.n_windows
    for w, decision in trace.decisions.items():
        assert decision is offline[w]


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(processing=st.floats(0.0, 8.0), propagation=st.floats(0.0, 8.0),
           loss=st.floats(0.0, 0.9), retries=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_each_window_fused_or_dropped_once(self, sim_setup, processing,
                                               propagation, loss, retries, seed):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(processing_delay_s=processing, duration_s=50.0,
                        link=LinkModel(propagation_delay_s=propagation,
                                       loss_probability=loss, seed=seed),
                        retry_limit=retries)
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs[:10])
        _assert_each_window_ends_once(
            trace, _offline_decisions(eeg_model, ecg_model, combiner, pairs[:10]))

    @pytest.mark.parametrize("cfg", [
        pytest.param(SimConfig(processing_delay_s=3.0, duration_s=50.0),
                     id="slow-processing"),
        pytest.param(SimConfig(link=LinkModel(propagation_delay_s=4.97),
                               duration_s=50.0), id="slow-link"),
    ])
    def test_fusion_after_the_deadline_still_counts_once(self, sim_setup, cfg):
        # Both frames arrive before the deadline; fusion lands after it.  The
        # window left the pending table on its second frame, so it is fused
        # and not also dropped.
        eeg_model, ecg_model, combiner, pairs = sim_setup
        trace = run_simulation(cfg, eeg_model, ecg_model, combiner, pairs[:10])
        _assert_each_window_ends_once(
            trace, _offline_decisions(eeg_model, ecg_model, combiner, pairs[:10]))
        report = latency_report(trace)
        assert (report.n_fused, report.n_dropped, report.drop_rate) == (10, 0, 0.0)
        assert report.mean_latency_s > cfg.window_period_s


# ---------------------------------------------------------------------------
# Input validation and edge cases


class TestSimulationEdges:
    def test_rejects_empty_windows(self, sim_setup):
        eeg_model, ecg_model, combiner, _ = sim_setup
        with pytest.raises(ValueError):
            run_simulation(LOSSLESS, eeg_model, ecg_model, combiner, [])

    def test_rejects_mismatched_pair_indices(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        bad = [(pairs[0][0], pairs[1][1])]
        with pytest.raises(ValueError):
            run_simulation(LOSSLESS, eeg_model, ecg_model, combiner, bad)

    def test_rejects_duration_below_one_period(self, sim_setup):
        eeg_model, ecg_model, combiner, pairs = sim_setup
        cfg = SimConfig(window_period_s=5.0, duration_s=4.0)
        with pytest.raises(ValueError):
            run_simulation(cfg, eeg_model, ecg_model, combiner, pairs)

    def test_empty_latency_report(self):
        trace = SimTrace(n_windows=0)
        report = latency_report(trace)
        assert report.n_windows == 0
        assert report.drop_rate is None
        assert report.mean_latency_s is None
