"""Acceptance gate: eleven go/no-go checks on the finished pipeline.

Each test prints one `[criterion NN] PASS/FAIL` line with the measured
numbers, then asserts.  Criteria 6-8 share one desk-scale experiment (two
synthetic patients, ~3,900 windows each, full five-fold cross-validation);
a band-energy oracle is run on the raw data *before* any training so the
model-quality thresholds are only ever judged on separable data.  A fusion
check on noisier data (`configs/stress.json`) follows criteria 6-8.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    band_energy_predict,
    central_difference,
    collapse_via_confusion,
    conv1d_naive,
    label_code_reference,
    maxpool1d_naive,
    parameters,
)
from preictal.bansim import (
    LinkModel,
    NodeId,
    SimConfig,
    decode_message,
    encode_message,
    latency_report,
    run_simulation,
)
from preictal.cli import main as cli_main
from preictal.combiner import QUANT_STEP, CombinerParams, build_input, lr_forward, quantize4
from preictal.config import ExperimentConfig, load_config
from preictal.dataset import (
    DISCARD,
    ECG_CLASS_FREQS_HZ,
    EEG_CLASS_FREQS_HZ,
    LabelClass,
    Sensor,
    cut_windows,
    kfold_split,
    label_codes,
    segment,
    synth_generate,
)
from preictal.evaluation import (
    TREND_ORDER,
    collapse_binary,
    report_document,
    run_cross_validation,
)
from preictal.nn.losses import FocalLossConfig, focal_loss_batch
from preictal.nn.model import backward_batch, build_model, model_forward
from preictal.nn.ops import (
    bind_maxpool1d,
    conv1d_forward,
    maxpool1d_with_argmax,
    softmax,
)

VARIANTS = ("eeg", "ecg", "combined")


def patient_windows(pairs, windowing):
    """(id, EEG windows, ECG windows) of each (EEG, ECG) recording pair, cut
    when reached, as `run_cross_validation` takes them."""
    step = (windowing.window_seconds, windowing.stride_seconds)
    for eeg, ecg in pairs:
        yield eeg.patient_id, cut_windows(eeg, *step), cut_windows(ecg, *step)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness on a tiny model


def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    model = build_model(Sensor.EEG, in_channels=2, window_samples=16,
                        kernel_len=5, pool_size=2, hidden=(64, 32), seed=0)
    rng = np.random.default_rng(0)
    xb = rng.standard_normal((4, 2, 16))
    yb = np.array([0, 1, 3, 4])
    cfg = FocalLossConfig(gamma=2.0, alpha=np.array([0.5, 0.8, 1.0, 0.9, 0.6]))
    grads = model.views(backward_batch(model, xb, yb, cfg)[1])

    named = parameters(model)
    fd = central_difference(lambda: backward_batch(model, xb, yb, cfg)[0],
                            [a for _, a in named], step=1e-5)
    worst, worst_name = 0.0, "-"
    n_params = 0
    for (name, _), g_fd in zip(named, fd):
        g = grads[name]
        n_params += g.size
        denom = np.maximum(np.abs(g), np.abs(g_fd))
        rel = np.abs(g - g_fd) / np.where(denom > 1e-8, denom, 1.0)
        if rel.max() > worst:
            worst, worst_name = float(rel.max()), name
    elapsed = time.monotonic() - t0
    verdict(1, worst < 1e-5 and elapsed < 30.0,
            f"{n_params} parameters checked against central differences "
            f"(step 1e-5); worst relative error {worst:.2e} in {worst_name} "
            f"(tol 1e-5); runtime {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 2. Focal loss reduces to cross-entropy at gamma=0, alpha=1


def test_criterion_02_focal_reduces_to_cross_entropy():
    rng = np.random.default_rng(1)
    cfg = FocalLossConfig(gamma=0.0, alpha=np.ones(5))
    worst = 0.0
    for _ in range(1000):
        probs = rng.uniform(0.01, 1.0, size=5)
        probs /= probs.sum()
        target = int(rng.integers(5))
        loss = focal_loss_batch(probs[None], np.array([target]), cfg)[0]
        diff = abs(loss - (-np.log(probs[target])))
        worst = max(worst, diff)
    verdict(2, worst <= 1e-12,
            f"1000 random (probs, target) pairs; max |focal(g=0,a=1) - "
            f"(-log p_t)| = {worst:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 3. Exact agreement with naive oracles


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(2)
    conv_exact = 0
    for _ in range(100):
        c = int(rng.integers(1, 6))
        k = int(rng.choice([1, 3, 5, 7]))
        b, t = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        x = rng.integers(-8, 9, size=(b, c, t)).astype(float)
        kernels = rng.integers(-4, 5, size=(c, c, k)).astype(float)
        bias = rng.integers(-4, 5, size=c).astype(float)
        # The conv runs channel-major, [C x B x T]; the oracle takes [B x C x T].
        got = conv1d_forward(x.swapaxes(0, 1), kernels, bias).swapaxes(0, 1)
        conv_exact += int(np.array_equal(got, conv1d_naive(x, kernels, bias)))

    pool_exact = 0
    for _ in range(100):
        b, c, t = (int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                   int(rng.integers(1, 50)))
        pool = int(rng.integers(1, 7))
        x = rng.standard_normal((b, c, t))
        # Inference pools alone; training also asks for the argmax.
        naive = maxpool1d_naive(x, pool)
        alone, _ = maxpool1d_with_argmax(x, pool)
        with_arg, _ = maxpool1d_with_argmax(x, pool, bind_maxpool1d(
            x, pool, arg=np.empty((b, c, -(-t // pool)), np.uint8)))
        pool_exact += int(np.array_equal(alone, naive)
                          and np.array_equal(with_arg, naive))

    collapse_exact = 0
    for _ in range(100):
        n = int(rng.integers(1, 200))
        preds = [LabelClass(int(v)) for v in rng.integers(0, 5, n)]
        labels = [LabelClass(int(v)) for v in rng.integers(0, 5, n)]
        m = collapse_binary(preds, labels)
        collapse_exact += int((m.tp, m.fp, m.tn, m.fn)
                              == collapse_via_confusion(preds, labels))

    verdict(3, conv_exact == pool_exact == collapse_exact == 100,
            f"bit-exact matches: conv {conv_exact}/100 shapes, maxpool "
            f"{pool_exact}/100 shapes, binary collapse {collapse_exact}/100 "
            f"prediction sets")


# ---------------------------------------------------------------------------
# 4. Labeling totality and windowed relabeling


def test_criterion_04_labeling_totality():
    def code_for(minutes):
        return int(label_codes([minutes])[0])

    rng = np.random.default_rng(3)
    offsets = list(rng.uniform(0.0, 200.0, size=5000))
    eps = 1e-9
    offsets += [0.0, 15.0 - eps, 15.0, 30.0, 45.0, 60.0 - eps, 60.0, 75.0,
                90.0, 90.0 + eps, 150.0]
    mismatches = 0
    for m in offsets:
        want = label_code_reference(m)
        got = code_for(m)
        if want == "discard":
            mismatches += int(got != DISCARD)
        else:
            mismatches += int(got != want)
    # No seizure ahead: an infinite offset.
    mismatches += int(code_for(np.inf) != LabelClass.INTERICTAL)
    negative_raises = False
    try:
        code_for(-1.0)
    except ValueError:
        negative_raises = True

    # Per-window relabeling from raw annotations on synthetic recordings.
    window_checks, window_mismatches = 0, 0
    for seed, (duration, n_seiz) in enumerate([(9260.0, 1), (18420.0, 2),
                                               (7200.0, 0)]):
        from preictal.dataset import SynthConfig
        eeg, _ = synth_generate(
            SynthConfig(duration_s=duration, n_seizures=n_seiz,
                        sample_rate_hz=64, eeg_channels=2, noise_sigma=0.3),
            seed=seed)
        got = {w.window_index: w.label for w in segment(eeg, 5.0, 5.0)}
        onsets = [a.onset_time for a in eeg.annotations]
        n_positions = (eeg.samples.shape[1] - 5 * 64) // (5 * 64) + 1
        for i in range(n_positions):
            start, end = i * 5.0, i * 5.0 + 5.0
            nxt = [o for o in onsets if o >= end]
            want = label_code_reference((nxt[0] - end) / 60.0 if nxt else None)
            excluded = any(start < a.end_time + 3600.0 and a.onset_time < end
                           for a in eeg.annotations)
            window_checks += 1
            if want == "discard" or excluded:
                window_mismatches += int(i in got)
            else:
                window_mismatches += int(i not in got or int(got[i]) != want)

    verdict(4, mismatches == 0 and negative_raises and window_mismatches == 0,
            f"{len(offsets)} offsets match the six-range partition "
            f"({mismatches} mismatches); negative offsets raise: "
            f"{negative_raises}; {window_checks} windows across 3 synthetic "
            f"recordings relabeled from raw annotations "
            f"({window_mismatches} mismatches)")


# ---------------------------------------------------------------------------
# 5. Cross-validation partition law


def test_criterion_05_cv_partition_law():
    rng = np.random.default_rng(4)
    k = 5
    violations = []

    n_sets = 15
    for trial in range(n_sets):
        counts = {c: int(rng.integers(0, 60)) for c in range(5)}
        if sum(counts.values()) < k:
            counts[0] += k
        # Ids 0..n-1 given class by class, then shuffled with their classes.
        labels = np.repeat(list(counts), list(counts.values()))
        window_ids = np.random.default_rng(trial).permutation(len(labels))
        labels = labels[window_ids]
        splits = kfold_split(window_ids, labels, k, seed=trial)
        n = len(labels)
        all_ids = list(range(n))
        by_id = dict(zip(window_ids.tolist(), labels.tolist()))
        seen_test = []
        for split in splits:
            ids = split.train_ids + split.val_ids + split.test_ids
            if sorted(ids) != all_ids:
                violations.append(f"trial {trial}: coverage/disjointness")
            if abs(len(split.test_ids) - n / k) > 1:
                violations.append(f"trial {trial}: test size")
            non_test = len(split.train_ids) + len(split.val_ids)
            if abs(len(split.val_ids) - 0.1 * non_test) > 1:
                violations.append(f"trial {trial}: validation size")
            for code, total in counts.items():
                in_test = sum(1 for i in split.test_ids if by_id[i] == code)
                if abs(in_test - total / k) > 1:
                    violations.append(f"trial {trial}: stratification class {code}")
            seen_test.extend(split.test_ids)
        if sorted(seen_test) != all_ids:
            violations.append(f"trial {trial}: test partition")

    verdict(5, not violations,
            f"{n_sets} random window multisets x k={k}: disjointness, "
            f"coverage, 20%+-1 test, 10%+-1 validation, and per-class "
            f"stratification +-1 all hold"
            + (f"; violations: {violations[:3]}" if violations else ""))


# ---------------------------------------------------------------------------
# 6-8. Desk-scale experiment (shared fixture)


@pytest.fixture(scope="module")
def desk_run():
    data_cfg = ExperimentConfig().data
    recordings = [synth_generate(data_cfg, seed=i, patient_id=f"p{i:02d}")
                  for i in range(2)]

    # Oracle gate FIRST: model thresholds are meaningless unless a trivial
    # band-energy classifier already proves the data separable.
    oracle = {}
    for eeg, ecg in recordings:
        for rec, freqs, half in ((eeg, EEG_CLASS_FREQS_HZ, 1.5),
                                 (ecg, ECG_CLASS_FREQS_HZ, 0.8)):
            windows = segment(rec, 5.0, 5.0)
            hits = sum(band_energy_predict(w.data, rec.sample_rate_hz,
                                           freqs, half) == int(w.label)
                       for w in windows)
            oracle[(rec.patient_id, rec.sensor.value)] = hits / len(windows)
    if min(oracle.values()) < 0.99:
        pytest.fail(f"band-energy oracle gate failed before training: {oracle}")

    t0 = time.monotonic()
    cfg = ExperimentConfig()
    patients = run_cross_validation(patient_windows(recordings, cfg.windowing), cfg)
    elapsed = time.monotonic() - t0
    n_windows = len(segment(recordings[0][0], 5.0, 5.0))
    return oracle, report_document(patients)["aggregate"], elapsed, n_windows


def test_criterion_06_combined_model_quality(desk_run):
    oracle, aggregate, elapsed, n_windows = desk_run
    binary = {v: aggregate[v]["binary"] for v in VARIANTS}
    comb = binary["combined"]
    needed = (comb["sensitivity"], comb["specificity"], comb["accuracy"],
              binary["eeg"]["accuracy"], binary["ecg"]["accuracy"])
    if any(v is None for v in needed):
        verdict(6, False, f"undefined binary metrics: {binary}")
    best_single = max(binary["eeg"]["accuracy"], binary["ecg"]["accuracy"])
    ok = (min(oracle.values()) >= 0.99
          and comb["sensitivity"] >= 0.95
          and comb["specificity"] >= 0.95
          and comb["accuracy"] >= 0.95
          and comb["accuracy"] >= best_single - 0.02
          and elapsed < 900.0)
    verdict(6, ok,
            f"oracle gate min {min(oracle.values()):.4f} (>= 0.99); 5-fold "
            f"means over 2 patients x {n_windows} windows: combined "
            f"sens={comb['sensitivity']:.4f} spec={comb['specificity']:.4f} "
            f"acc={comb['accuracy']:.4f} (each >= 0.95); eeg acc="
            f"{binary['eeg']['accuracy']:.4f} ecg acc={binary['ecg']['accuracy']:.4f} "
            f"(combined >= best single - 0.02); cross-validation "
            f"{elapsed:.0f}s (< 900s)")


def test_criterion_07_trend_non_decreasing(desk_run):
    _, aggregate, _, _ = desk_run
    trend = aggregate["combined"]["trend"]
    values = [trend[cls.name.lower()] for cls in TREND_ORDER]
    defined = all(v is not None for v in values)
    steps = [b - a for a, b in zip(values, values[1:])] if defined else []
    ok = defined and all(s >= -0.02 for s in steps)
    fmt = ", ".join("n/a" if v is None else f"{v:.4f}" for v in values)
    if defined:
        detail = (f"combined accuracy trend far-to-near [{fmt}]; every step "
                  f">= -0.02 (min step {min(steps):.4f})")
    else:
        detail = f"combined accuracy trend has undefined bins: [{fmt}]"
    verdict(7, ok, detail)


def test_criterion_08_confusion_adjacency(desk_run):
    _, aggregate, _, _ = desk_run
    # null (a row no fold defines) becomes NaN
    conf = np.array(aggregate["combined"]["confusion_normalized"], dtype=float)
    rows_ok = []
    details = []
    for r in range(4):   # the four pre-seizure rows
        if np.isnan(conf[r]).any():
            rows_ok.append(False)
            details.append(f"row {r}: undefined")
            continue
        adjacent = {c for c in (r - 1, r, r + 1) if 0 <= c <= 3}
        mass_adj = float(sum(conf[r, c] for c in adjacent))
        mass_non = float(sum(conf[r, c] for c in range(5) if c not in adjacent))
        rows_ok.append(mass_adj >= mass_non)
        details.append(f"row {r}: {mass_adj:.4f} vs {mass_non:.4f}")
    verdict(8, all(rows_ok),
            "averaged normalized confusion, mass on {diagonal +- adjacent "
            "preictal bin} >= mass elsewhere for every preictal row: "
            + "; ".join(details))


# ---------------------------------------------------------------------------
# Fusion check: on noisy data the combiner beats the best single sensor.
# The desk data is so clean that each sensor alone is near-perfect, and
# criteria 6-8 then pass with the combiner bypassed or blind to ECG.

STRESS_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "stress.json"
# Half the smallest gain of a ten-seed sweep of the stress config (config
# seeds 0-9: gains 0.029-0.060), rounded down to 0.005; see CHANGES.md.
FUSION_MARGIN = 0.01


def test_fusion_beats_the_best_single_sensor_under_noise():
    cfg = load_config(STRESS_CONFIG)
    recordings = (synth_generate(cfg.data, seed=cfg.seed + i, patient_id=f"p{i:02d}")
                  for i in range(cfg.patients))  # as gen-data seeds them
    patients = run_cross_validation(patient_windows(recordings, cfg.windowing), cfg)
    accuracy = {}
    for v in VARIANTS:
        counts = sum(f.confusion[v] for pr in patients for f in pr.folds)
        accuracy[v] = float(np.trace(counts) / counts.sum())
    gain = accuracy["combined"] - max(accuracy["eeg"], accuracy["ecg"])
    detail = ", ".join(f"{v} {a:.4f}" for v, a in accuracy.items())
    print(f"[fusion] 5-class accuracy over every test fold: {detail}; "
          f"gain {gain:.4f} (>= {FUSION_MARGIN})")
    assert gain >= FUSION_MARGIN, f"fusion gain {gain:.4f} < {FUSION_MARGIN}: {detail}"


# ---------------------------------------------------------------------------
# 9. Quantization error bound and wire round-trip


def test_criterion_09_quantization_and_wire():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.0, 1.0, size=1_000_000)
    max_err = float(np.abs(quantize4(p) - p).max())

    q_levels = rng.integers(0, 10_001, size=(10_000, 5))
    windows = rng.integers(0, 2**32, size=10_000, dtype=np.uint64)
    exact = 0
    for i in range(10_000):
        probs = q_levels[i].astype(float) * QUANT_STEP
        source = NodeId(int(i % 4))
        msg = decode_message(encode_message(probs, int(windows[i]), source))
        exact += int(msg.probs_q == tuple(int(v) for v in q_levels[i])
                     and msg.window_index == int(windows[i])
                     and msg.source is source
                     and np.array_equal(msg.dequantized(), probs))

    verdict(9, max_err <= 5e-5 and exact == 10_000,
            f"max quantization error {max_err:.3e} over 1e6 probabilities "
            f"(bound 5e-5); wire round-trip exact for {exact}/10000 messages")


# ---------------------------------------------------------------------------
# 10. Simulation equivalence, latency, and loss statistics


def _sim_fixture(n_windows):
    """A random combiner and, for n_windows windows cycling through five
    base pairs, their classes, their dataset indices and the quantized rows
    small untrained models give for each window's EEG and ECG."""
    eeg_model = build_model(Sensor.EEG, 2, 64, kernel_len=3, pool_size=2,
                            hidden=(8, 6), seed=0)
    ecg_model = build_model(Sensor.ECG, 1, 64, kernel_len=3, pool_size=2,
                            hidden=(8, 6), seed=1)
    rng = np.random.default_rng(6)
    combiner = CombinerParams(rng.standard_normal((5, 10)),
                              rng.standard_normal(5))
    t = np.arange(64)
    base_eeg, base_ecg = [], []
    for code in range(5):
        base_eeg.append(np.sin(2 * np.pi * (code + 1) * t / 64)
                        + 0.2 * rng.standard_normal((2, 64)))
        base_ecg.append(np.sin(2 * np.pi * (code + 1) * t / 64)
                        + 0.2 * rng.standard_normal((1, 64)))
    codes = np.arange(n_windows) % 5  # window w is base pair w % 5, of class w % 5
    pe = quantize4(model_forward(eeg_model, np.stack(base_eeg)[codes]))
    pc = quantize4(model_forward(ecg_model, np.stack(base_ecg)[codes]))
    return combiner, codes, np.arange(n_windows), pe, pc


def test_criterion_10_simulation_equivalence_latency_loss():
    combiner, labels, dataset_index, pe, pc = _sim_fixture(200)
    lossless = SimConfig(
        window_period_s=5.0, processing_delay_s=0.020,
        link=LinkModel(loss_probability=0.0, seed=0),
        duration_s=5.0 * 200, retry_limit=3)
    trace = run_simulation(lossless, combiner, labels, dataset_index, pe, pc)

    offline = [
        LabelClass(int(np.argmax(lr_forward(build_input(pe[i], pc[i]), combiner))))
        for i in range(len(labels))
    ]
    report = latency_report(trace, offline)
    decisions = {e.window_index: LabelClass(e.detail["decision"])
                 for e in trace.events if e.event_type == "fusion_decision"}
    n_match = sum(decisions.get(w) is offline[w] for w in range(200))
    equivalent = (n_match == 200 and report["n_dropped"] == 0
                  and report["equivalence"] is True)

    # Two processing delays and one 16-byte frame at 1 Mb/s.
    closed_form = 2 * 0.020 + 128 / 1e6
    mean_latency = report["mean_latency_s"]
    latency_ok = abs(mean_latency - closed_form) <= 1e-9

    # Independent loss 0.2, three retries: a message survives unless all
    # four attempts fail; a window needs both sensor messages.
    q_msg = 0.2 ** 4
    analytic_drop = 1.0 - (1.0 - q_msg) ** 2
    lossy = SimConfig(
        window_period_s=5.0, processing_delay_s=0.020,
        link=LinkModel(loss_probability=0.2, seed=7),
        duration_s=5.0 * 10_000, retry_limit=3)
    lossy_fixture = _sim_fixture(10_000)
    combiner, _, _, pe, pc = lossy_fixture
    lossy_report = latency_report(run_simulation(lossy, *lossy_fixture),
                                  lr_forward(build_input(pe, pc), combiner).argmax(axis=1))
    observed_drop = lossy_report["drop_rate"]
    drop_ok = abs(observed_drop - analytic_drop) <= 0.02

    verdict(10, equivalent and latency_ok and drop_ok,
            f"lossless decisions match offline {n_match}/200; mean latency "
            f"{mean_latency:.9f}s vs closed form {closed_form:.9f}s "
            f"(|diff| <= 1e-9); drop rate {observed_drop:.5f} vs analytic "
            f"{analytic_drop:.5f} over {lossy_report['n_windows']} windows "
            f"(tol 0.02)")


# ---------------------------------------------------------------------------
# 11. Byte-identical reports


TINY_CONFIG = {
    "seed": 0,
    "patients": 1,
    "folds": 5,
    "data": {"duration_s": 9260.0, "n_seizures": 1, "sample_rate_hz": 64,
             "eeg_channels": 2, "noise_sigma": 0.2},
    "windowing": {"window_seconds": 5.0, "stride_seconds": 40.0},
    "model": {"hidden": [8, 6]},
    "training": {"max_epochs": 2, "patience": 1, "batch_size": 32},
    "combiner": {"learning_rate": 1.0, "max_epochs": 20},
}


def test_criterion_11_deterministic_reports(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CONFIG))
    data_dir = tmp_path / "data"
    assert cli_main(["gen-data", "--config", str(config_path),
                     "--out", str(data_dir)]) == 0
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli_main(["cross-validate", "--config", str(config_path),
                         "--data", str(data_dir), "--out", str(out)]) == 0
        outs.append(out)
    a = (outs[0] / "report.json").read_bytes()
    b = (outs[1] / "report.json").read_bytes()
    csv_same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                   for n in ("confusion.csv", "metrics.csv", "trend.csv"))
    verdict(11, a == b and csv_same,
            f"two cross-validate runs of one config: report.json "
            f"({len(a)} bytes) byte-identical: {a == b}; CSV outputs "
            f"byte-identical: {csv_same}")
