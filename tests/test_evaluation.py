import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import collapse_via_confusion
from preictal.combiner import (
    CombinerConfig,
    CombinerParams,
    build_input,
    lr_forward,
    quantize4,
)
from preictal.config import ExperimentConfig, ModelConfig, WindowingConfig
from preictal.dataset import (
    FoldSplit,
    LabelClass,
    LabeledWindow,
    Recording,
    SeizureAnnotation,
    Sensor,
    SynthConfig,
    Windows,
    cut_windows,
    synth_generate,
)
from preictal import evaluation
from preictal.evaluation import (
    TREND_ORDER,
    VARIANTS,
    FoldResult,
    PatientResult,
    _fit_block,
    _predictions,
    _readout,
    accuracy_trend,
    collapse_binary,
    confusion,
    mean_score,
    normalized,
    predictions,
    report_document,
    run_cross_validation,
    run_patient_fold,
    score,
)
from preictal.nn.model import FORWARD_CHUNK, build_model, model_forward
from preictal.nn.optim import TrainConfig

P0, P1, P2, P3, I = (LabelClass.PRE_0_15, LabelClass.PRE_15_30,
                     LabelClass.PRE_30_45, LabelClass.PRE_45_60,
                     LabelClass.INTERICTAL)

label_lists = st.lists(st.sampled_from(list(LabelClass)), min_size=1, max_size=60)


# ---------------------------------------------------------------------------
# Confusion matrices


class TestConfusion:
    def test_hand_example(self):
        cm = confusion([P0, P0, I], [P0, I, I])
        expected = np.zeros((5, 5), dtype=int)
        expected[0, 0] = 1   # true P0 predicted P0
        expected[4, 0] = 1   # true I predicted P0
        expected[4, 4] = 1   # true I predicted I
        np.testing.assert_array_equal(cm, expected)

    def test_normalized_rows_sum_to_one(self):
        cm = confusion([P0, P1, P1, I], [P0, P1, P0, I])
        norm = normalized(cm)
        present = cm.sum(axis=1) > 0
        np.testing.assert_allclose(norm[present].sum(axis=1),
                                   np.ones(present.sum()), atol=1e-12)

    def test_normalized_empty_row_is_nan(self):
        cm = confusion([P0], [P0])
        norm = normalized(cm)
        assert np.isnan(norm[4]).all()
        np.testing.assert_array_equal(norm[0], [1, 0, 0, 0, 0])

    def test_counts_total_matches_input(self):
        rng = np.random.default_rng(0)
        labels = [LabelClass(int(c)) for c in rng.integers(0, 5, 40)]
        preds = [LabelClass(int(c)) for c in rng.integers(0, 5, 40)]
        assert confusion(preds, labels).sum() == 40

    def test_errors(self):
        with pytest.raises(ValueError):
            confusion([P0], [P0, P1])
        with pytest.raises(ValueError):
            confusion([], [])


# ---------------------------------------------------------------------------
# Binary collapse at the 60-minute boundary


class TestCollapseBinary:
    def test_hand_example(self):
        # positives = any pre-seizure class (0-3), negative = interictal.
        preds = [P0, P3, I, I]
        labels = [P1, I, I, P2]
        m = collapse_binary(preds, labels)
        assert (m.tp, m.fp, m.tn, m.fn) == (1, 1, 1, 1)
        assert m.sensitivity == 0.5
        assert m.specificity == 0.5
        assert m.accuracy == 0.5

    def test_perfect_predictions(self):
        labels = [P0, P2, I, I, P3]
        m = collapse_binary(labels, labels)
        assert (m.sensitivity, m.specificity, m.accuracy) == (1.0, 1.0, 1.0)

    def test_undefined_rates_are_none(self):
        m = collapse_binary([I, I], [I, I])
        assert m.sensitivity is None       # no positive labels
        assert m.specificity == 1.0
        m = collapse_binary([P0, P0], [P1, P2])
        assert m.specificity is None       # no negative labels
        assert m.sensitivity == 1.0

    def test_pre_seizure_classes_are_interchangeable_positives(self):
        # The binary view must not care WHICH pre-seizure class was predicted.
        a = collapse_binary([P0, P0], [P3, I])
        b = collapse_binary([P3, P2], [P1, I])
        assert (a.tp, a.fp, a.tn, a.fn) == (b.tp, b.fp, b.tn, b.fn)

    @settings(max_examples=200)
    @given(label_lists, label_lists)
    def test_matches_confusion_block_sums(self, preds, labels):
        n = min(len(preds), len(labels))
        preds, labels = preds[:n], labels[:n]
        m = collapse_binary(preds, labels)
        assert (m.tp, m.fp, m.tn, m.fn) == collapse_via_confusion(preds, labels)
        assert m.tp + m.fp + m.tn + m.fn == n
        assert m.accuracy == (m.tp + m.tn) / n


# ---------------------------------------------------------------------------
# Accuracy trend over the pre-seizure bins


class TestAccuracyTrend:
    def test_hand_example(self):
        labels = [P3, P3, P0, I]
        preds = [P0, I, P2, I]   # P2 still counts: any pre-seizure call is a hit
        trend = accuracy_trend(preds, labels)
        assert trend["pre_45_60"] == 0.5
        assert trend["pre_30_45"] is None
        assert trend["pre_15_30"] is None
        assert trend["pre_0_15"] == 1.0
        assert list(trend.values()) == [0.5, None, None, 1.0]

    def test_order_is_farthest_bin_first(self):
        assert TREND_ORDER == (P3, P2, P1, P0)
        assert list(accuracy_trend([P0], [P0])) == [c.name.lower()
                                                    for c in TREND_ORDER]

    def test_interictal_rows_do_not_enter_trend(self):
        trend = accuracy_trend([I, P0], [I, P0])
        assert trend["pre_0_15"] == 1.0
        assert "interictal" not in trend


# ---------------------------------------------------------------------------
# Aggregation


def _score(sensitivity, specificity, accuracy, trend=(None,) * 4):
    """A hand-built score with an all-NaN confusion matrix."""
    return {"confusion_normalized": np.full((5, 5), np.nan),
            "binary": {"sensitivity": sensitivity, "specificity": specificity,
                       "accuracy": accuracy},
            "trend": dict(zip(("pre_45_60", "pre_30_45", "pre_15_30",
                               "pre_0_15"), trend))}


class TestAggregate:
    def test_binary_mean_skips_none(self):
        mean = mean_score([_score(1.0, 1.0, 1.0), _score(0.0, None, 0.0)])
        assert mean["binary"] == {"sensitivity": 0.5,
                                  "specificity": 1.0,   # one defined value
                                  "accuracy": 0.5}

    def test_all_none_stays_none(self):
        mean = mean_score([_score(None, 1.0, 1.0)] * 3)
        assert mean["binary"]["sensitivity"] is None

    def test_trend_mean(self):
        a = _score(1.0, 1.0, 1.0, trend=(0.2, None, 1.0, 1.0))
        b = _score(1.0, 1.0, 1.0, trend=(0.4, 0.6, None, 0.5))
        mean = mean_score([a, b])["trend"]
        np.testing.assert_allclose(mean["pre_45_60"], 0.3)
        assert mean["pre_30_45"] == 0.6
        assert mean["pre_15_30"] == 1.0
        assert mean["pre_0_15"] == 0.75
        assert list(mean) == [c.name.lower() for c in TREND_ORDER]

    def test_confusion_mean_skips_nan_rows(self):
        full = score(confusion([P0, I], [P0, I]))
        partial = score(confusion([P1], [P0]))   # interictal row empty -> NaN
        mean = mean_score([full, partial])["confusion_normalized"]
        np.testing.assert_allclose(mean[4], [0, 0, 0, 0, 1])   # only `full` defines it
        np.testing.assert_allclose(mean[0], [0.5, 0.5, 0, 0, 0])
        assert np.isnan(mean[1]).all()                         # defined nowhere

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        items = []
        for _ in range(4):
            labels = [LabelClass(int(c)) for c in rng.integers(0, 5, 30)]
            preds = [LabelClass(int(c)) for c in rng.integers(0, 5, 30)]
            items.append(score(confusion(preds, labels)))
        fwd = mean_score(items)
        rev = mean_score(items[::-1])
        assert fwd["binary"] == rev["binary"]
        assert fwd["trend"] == rev["trend"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_score([])


def _fold(idx, preds, labels):
    counts = confusion(preds, labels)
    return FoldResult(FoldSplit(idx, [], [], []),
                      {name: counts for name in VARIANTS}, {}, {}, None)


def _document(patients):
    """report_document as report.json holds it (None written as null)."""
    return json.loads(json.dumps(report_document(patients), allow_nan=False))


HIT, MISS = ([P0, I], [P0, I]), ([I, P0], [P0, I])   # accuracy 1.0 and 0.0


class TestAggregateVariant:
    def test_patients_weigh_equally_regardless_of_fold_count(self):
        # Patient a: folds at accuracy 1.0 and 0.0 -> patient mean 0.5.
        # Patient b: one fold at 1.0.  Across patients: 0.75, not the
        # pooled-fold mean of 2/3.
        agg = _document([
            PatientResult("a", [_fold(0, *HIT), _fold(1, *MISS)]),
            PatientResult("b", [_fold(0, *HIT)]),
        ])["aggregate"]["combined"]
        assert agg["binary"] == {"sensitivity": 0.75, "specificity": 0.75,
                                 "accuracy": 0.75, "n": 2}
        assert agg["trend"]["pre_0_15"] == 0.75
        assert agg["confusion_normalized"][0] == [0.75, 0, 0, 0, 0.25]


class TestReportDocument:
    def test_absent_class_gives_nan_row_and_none_ratio(self):
        # Fold 0 has no pre-seizure windows, fold 1 no interictal ones.
        doc = _document([PatientResult("a", [_fold(0, [P0, I], [I, I]),
                                             _fold(1, [P3, I], [P3, P0])])])
        f0, f1 = (doc["patients"]["a"]["folds"][k]["eeg"] for k in ("0", "1"))
        assert f0["binary"] == {"tp": 0, "fp": 1, "tn": 1, "fn": 0,
                                "sensitivity": None, "specificity": 0.5,
                                "accuracy": 0.5}
        assert f0["trend"] == {"pre_45_60": None, "pre_30_45": None,
                               "pre_15_30": None, "pre_0_15": None}
        assert f1["binary"] == {"tp": 1, "fp": 0, "tn": 0, "fn": 1,
                                "sensitivity": 0.5, "specificity": None,
                                "accuracy": 0.5}
        assert f1["trend"] == {"pre_45_60": 1.0, "pre_30_45": None,
                               "pre_15_30": None, "pre_0_15": 0.0}
        agg = doc["aggregate"]["eeg"]
        # Each ratio and each confusion row comes from the folds defining it.
        assert agg["binary"] == {"sensitivity": 0.5, "specificity": 0.5,
                                 "accuracy": 0.5, "n": 1}
        assert agg["trend"] == {"pre_45_60": 1.0, "pre_30_45": None,
                                "pre_15_30": None, "pre_0_15": 0.0}
        conf = agg["confusion_normalized"]
        assert conf[0] == [0.0, 0.0, 0.0, 0.0, 1.0]   # fold 1 only
        assert conf[3] == [0.0, 0.0, 0.0, 1.0, 0.0]   # fold 1 only
        assert conf[4] == [0.5, 0.0, 0.0, 0.0, 0.5]   # fold 0 only

    def test_value_undefined_in_every_fold_stays_null(self):
        doc = _document([PatientResult("a", [_fold(0, [I], [I])]),
                         PatientResult("b", [_fold(0, [P0, I], [I, I]),
                                             _fold(1, [I], [I])])])
        agg = doc["aggregate"]["ecg"]
        assert agg["binary"]["sensitivity"] is None
        assert agg["binary"]["specificity"] == 0.875   # (1.0 + 0.75) / 2
        assert set(agg["trend"].values()) == {None}
        assert agg["confusion_normalized"][:4] == [[None] * 5] * 4
        assert agg["confusion_normalized"][4] == [0.125, 0.0, 0.0, 0.0, 0.875]


# ---------------------------------------------------------------------------
# End-to-end cross-validation driver (tiny, structure + determinism only)


def _tiny_recordings(seed=0):
    cfg = SynthConfig(duration_s=9260.0, n_seizures=1, sample_rate_hz=64,
                      eeg_channels=2, noise_sigma=0.2)
    return [synth_generate(cfg, seed=seed)]


def _windows(pairs, windowing=WindowingConfig(stride_seconds=40.0)):
    """(id, EEG windows, ECG windows) of each (EEG, ECG) recording pair, as
    `run_cross_validation` takes them; the tiny pipeline's windowing."""
    step = (windowing.window_seconds, windowing.stride_seconds)
    return [(eeg.patient_id, cut_windows(eeg, *step), cut_windows(ecg, *step))
            for eeg, ecg in pairs]


def _tiny_pipeline():
    return ExperimentConfig(
        seed=0,
        windowing=WindowingConfig(stride_seconds=40.0),
        model=ModelConfig(hidden=(8, 6)),
        training=TrainConfig(max_epochs=2, patience=1, batch_size=32),
        combiner=CombinerConfig(learning_rate=1.0, max_epochs=20),
    )


class TestPredictions:
    def test_combined_equals_the_per_window_readout(self):
        rng = np.random.default_rng(0)
        eeg, ecg = (build_model(sensor, channels, 64, kernel_len=3, pool_size=2,
                                hidden=(8, 6), seed=seed)
                    for seed, (sensor, channels) in enumerate(((Sensor.EEG, 2),
                                                               (Sensor.ECG, 1))))
        eeg_x, ecg_x = (rng.standard_normal((300, c, 64)) for c in (2, 1))
        pe = quantize4(model_forward(eeg, eeg_x))
        pc = quantize4(model_forward(ecg, ecg_x))
        # Untrained heads barely vary; large weights centred on the mean
        # input spread the fused calls over the classes.
        w = 300 * rng.standard_normal((5, 10))
        params = CombinerParams(w, -w @ build_input(pe, pc).mean(axis=0))
        combined = predictions(eeg, ecg, params, eeg_x, ecg_x)["combined"]
        readout = [int(np.argmax(lr_forward(build_input(pe[i], pc[i]), params)))
                   for i in range(300)]
        assert combined.dtype.kind == "i"
        assert combined.tolist() == readout
        assert len(set(readout)) > 1
        # The window-object form gives the same classes.
        eeg_w, ecg_w = ([LabeledWindow(i, x, LabelClass(i % 5)) for i, x in enumerate(xs)]
                        for xs in (eeg_x, ecg_x))
        np.testing.assert_array_equal(
            _predictions(eeg, ecg, params, eeg_w, ecg_w)["combined"], combined)

    def test_combined_ties_break_toward_soonest_onset(self):
        # With W = 0 the fused row is softmax(b), so equal biases tie
        # exactly; the gateway and the report both take the lowest class.
        eeg, ecg = (build_model(sensor, channels, 64, kernel_len=3, pool_size=2,
                                hidden=(8, 6), seed=seed)
                    for seed, (sensor, channels) in enumerate(((Sensor.EEG, 2),
                                                               (Sensor.ECG, 1))))
        eeg_x, ecg_x = (np.random.default_rng(1).standard_normal((3, c, 64))
                        for c in (2, 1))
        for bias, tied in (((1, 1, 0, 0, 0), LabelClass.PRE_0_15),
                           ((0, 0, 0, 1, 1), LabelClass.PRE_45_60),
                           ((0, 0, 0, 0, 0), LabelClass.PRE_0_15)):
            params = CombinerParams(np.zeros((5, 10)), np.array(bias, dtype=float))
            combined = predictions(eeg, ecg, params, eeg_x, ecg_x)["combined"]
            assert combined.tolist() == [tied] * 3, bias


class TestFoldWindows:
    # A fold reads its training windows out of the patient's record: once
    # as train's float32 block, once a chunk at a time for the combiner's
    # fit set.  Neither may move a bit against a float64 copy of them.
    @staticmethod
    def _fold_set():
        (_, eeg_w, ecg_w), = _windows(_tiny_recordings(), WindowingConfig())
        ids = eeg_w.index[3::5][:2 * FORWARD_CHUNK + 13]
        assert len(ids) > FORWARD_CHUNK and len(ids) % FORWARD_CHUNK
        return eeg_w, ecg_w, ids

    def test_chunked_readout_equals_one_forward_of_a_copy(self):
        eeg_w, _, ids = self._fold_set()
        # At the default widths, chunks of 50 windows would move bits.
        model = build_model(Sensor.EEG, *eeg_w.data.shape[1:], kernel_len=5,
                            pool_size=4, hidden=ModelConfig().hidden, seed=1)
        got = _readout(model, eeg_w, eeg_w.find(ids))
        assert got.tobytes() == model_forward(model, eeg_w.at(ids).data).tobytes()

    def test_train_block_is_its_own_cast(self):
        eeg_w, _, ids = self._fold_set()
        xs = _fit_block(eeg_w, eeg_w.find(ids))
        assert xs.shape == (len(ids), *eeg_w.data.shape[1:])
        cast = np.ascontiguousarray(xs.transpose(1, 0, 2), dtype=np.float32)
        assert np.shares_memory(cast, xs)  # train's cast copies nothing
        assert cast.tobytes() == np.ascontiguousarray(
            eeg_w.at(ids).data.transpose(1, 0, 2), dtype=np.float32).tobytes()

    def test_fold_trains_on_its_block_and_refuses_an_unknown_id(self, monkeypatch):
        eeg_w, ecg_w, ids = self._fold_set()
        others = [int(i) for i in eeg_w.index[::5][:200]]
        seen = []

        def recording(model, xs, ys, *rest):
            seen.append((xs.dtype, len(xs), xs.transpose(1, 0, 2).flags.c_contiguous))
            return train(model, xs, ys, *rest)

        train = evaluation.train
        monkeypatch.setattr(evaluation, "train", recording)
        split = FoldSplit(0, ids.tolist(), others[:10], others[10:])
        run_patient_fold(eeg_w, ecg_w, split, _tiny_pipeline(), 0)
        assert seen == [(np.float32, len(ids), True)] * 2
        split.train_ids = [*split.train_ids, 10**6]
        with pytest.raises(ValueError, match="window id 1000000 is not in the record"):
            run_patient_fold(eeg_w, ecg_w, split, _tiny_pipeline(), 0)


class TestRunCrossValidation:
    def test_structure_and_determinism(self):
        recordings = _tiny_recordings()
        cfg = _tiny_pipeline()
        r1 = run_cross_validation(_windows(recordings), cfg)
        r2 = run_cross_validation(_windows(_tiny_recordings()), cfg)

        assert len(r1) == 1
        folds = r1[0].folds
        assert [f.split.fold_index for f in folds] == [0, 1, 2, 3, 4]
        n_total = 0
        for f in folds:
            assert set(f.confusion) == set(VARIANTS)
            sizes = {f.confusion[v].sum() for v in VARIANTS}
            assert len(sizes) == 1    # every variant scored the same test set
            n_total += sizes.pop()
        for f1, f2 in zip(folds, r2[0].folds):
            for v in VARIANTS:
                np.testing.assert_array_equal(f1.confusion[v], f2.confusion[v])
            np.testing.assert_array_equal(f1.combiner_params.W,
                                          f2.combiner_params.W)
            np.testing.assert_array_equal(
                f1.models[Sensor.EEG].params["dense.0.weights"],
                f2.models[Sensor.EEG].params["dense.0.weights"])

        # Folds' test sets partition all windows exactly once.
        (_, eeg_w, _), = _windows(recordings)
        assert n_total == len(eeg_w.index)

    def test_walks_a_generator_one_pair_at_a_time(self):
        synth = SynthConfig(duration_s=9260.0, n_seizures=1, sample_rate_hz=64,
                            eeg_channels=2, noise_sigma=0.2)
        refs, alive_at_draw = [], []

        def pairs():
            for i in range(3):
                alive_at_draw.append([r() is not None for r in refs])
                patient, = _windows([synth_generate(synth, seed=i, patient_id=f"p{i}")])
                refs.extend(weakref.ref(w) for w in patient[1:])
                yield patient

        patients = run_cross_validation(pairs(), _tiny_pipeline())
        assert [p.patient_id for p in patients] == ["p0", "p1", "p2"]
        # When the third patient is drawn, the first one's windows are gone.
        assert alive_at_draw[2][:2] == [False, False]
        with pytest.raises(ValueError, match="at least one patient"):
            run_cross_validation(iter([]), _tiny_pipeline())

    def test_rejects_empty_and_mismatched_pairs(self):
        with pytest.raises(ValueError):
            run_cross_validation([], _tiny_pipeline())
        (pid, eeg, ecg), = _windows(_tiny_recordings())
        ecg_other = Windows(ecg.index[1:], ecg.label[1:], ecg.data[1:])
        with pytest.raises(ValueError):
            run_cross_validation([(pid, eeg, ecg_other)], _tiny_pipeline())
        # report.json keys patients by id, so a repeated id is refused.
        with pytest.raises(ValueError, match="unique"):
            run_cross_validation([(pid, eeg, ecg), (pid, eeg, ecg)], _tiny_pipeline())

    def test_wraps_inner_failures_with_patient_context(self):
        patient, = _windows(_tiny_recordings())
        cfg = _tiny_pipeline()
        cfg.folds = 10_000   # more folds than windows
        with pytest.raises(RuntimeError, match=f"{patient[0]}.*"
                           "need at least k=10000 windows"):
            run_cross_validation([patient], cfg)


class TestPairedWindows:
    # A patient's two records must hold the same ids and classes, which the
    # windows of two recordings on one timeline do.
    @staticmethod
    def _pair(ecg_seconds):
        rng = np.random.default_rng(0)
        eeg = Recording("p", Sensor.EEG, 8, 2, rng.standard_normal((2, 8 * 100)))
        ecg = Recording("p", Sensor.ECG, 8, 1,
                        rng.standard_normal((1, 8 * ecg_seconds)))
        return eeg, ecg

    def test_windows_keyed_by_shared_index(self):
        (_, eeg_w, ecg_w), = _windows([self._pair(100)], WindowingConfig())
        assert eeg_w.index.tolist() == ecg_w.index.tolist() == list(range(20))
        assert eeg_w.at([3]).data.shape == (1, 2, 40)
        assert ecg_w.at([3]).data.shape == (1, 1, 40)

    def test_shorter_ecg_does_not_align(self):
        with pytest.raises(ValueError, match="do not align"):
            run_cross_validation(_windows([self._pair(90)], WindowingConfig()),
                                 _tiny_pipeline())

    def test_different_annotations_do_not_align(self):
        # Windowed at stride 40 s, both keep the same 364 indices, but
        # windows 158 and 203 fall in different bins of the two timelines.
        eeg = Recording("p", Sensor.EEG, 16, 2, np.zeros((2, 16 * 20_000)),
                        [SeizureAnnotation(9010.0, 9070.0)])
        ecg = Recording("p", Sensor.ECG, 16, 1, np.zeros((1, 16 * 20_000)),
                        [SeizureAnnotation(9030.0, 9070.0)])
        (_, eeg_w, ecg_w), = _windows([(eeg, ecg)])
        assert eeg_w.index.tolist() == ecg_w.index.tolist()
        with pytest.raises(ValueError, match="'p' do not align"):
            run_cross_validation([("p", eeg_w, ecg_w)], _tiny_pipeline())
