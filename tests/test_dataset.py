import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import band_energy_predict, label_code_reference
from preictal import dataset
from preictal.dataset import (
    BLOCK_SAMPLES,
    DISCARD,
    ECG_CLASS_FREQS_HZ,
    EEG_CLASS_FREQS_HZ,
    LabelClass,
    Recording,
    SeizureAnnotation,
    Sensor,
    SynthConfig,
    Windows,
    cut_windows,
    kfold_split,
    label_codes,
    load_recording,
    read_manifest,
    save_recording,
    save_synth,
    segment,
    synth_generate,
)


# ---------------------------------------------------------------------------
# Labeling


def code_for(minutes):
    """`label_codes` of one offset; None stands for no seizure ahead."""
    return int(label_codes([np.inf if minutes is None else minutes])[0])


class TestLabelForOffset:
    @pytest.mark.parametrize("minutes,expected", [
        (10.0, LabelClass.PRE_0_15),
        (95.0, LabelClass.INTERICTAL),
        (15.0, LabelClass.PRE_15_30),   # lower edge belongs to the bin
        (0.0, LabelClass.PRE_0_15),
        (29.999, LabelClass.PRE_15_30),
        (30.0, LabelClass.PRE_30_45),
        (45.0, LabelClass.PRE_45_60),
        (59.999, LabelClass.PRE_45_60),
        (90.001, LabelClass.INTERICTAL),
        (None, LabelClass.INTERICTAL),  # no future seizure in the recording
    ])
    def test_examples(self, minutes, expected):
        assert code_for(minutes) == expected

    @pytest.mark.parametrize("minutes", [75.0, 60.0, 90.0])
    def test_buffer_zone_is_discarded(self, minutes):
        assert code_for(minutes) == DISCARD

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            code_for(-0.001)

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1000.0,
                     allow_nan=False, allow_infinity=False))
    def test_totality_matches_reference(self, minutes):
        want = label_code_reference(minutes)
        assert code_for(minutes) == (DISCARD if want == "discard" else want)

    def test_label_codes_are_stable(self):
        assert [int(c) for c in LabelClass] == [0, 1, 2, 3, 4]
        assert LabelClass.PRE_0_15 == 0
        assert LabelClass.INTERICTAL == 4


# ---------------------------------------------------------------------------
# Segmentation


def _recording(duration_s, fs=32, channels=2, annotations=(), seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((channels, int(duration_s * fs)))
    return Recording("t", Sensor.EEG, fs, channels, samples, list(annotations))


class TestSegment:
    def test_hour_recording_with_onset_at_minute_50(self):
        # Window labels follow the window END time; everything at or past the
        # onset is inside the ictal/post-ictal exclusion and must be omitted.
        rec = _recording(3600.0, annotations=[SeizureAnnotation(3000.0, 3120.0)])
        windows = segment(rec, 5.0, 5.0)
        ends = {5.0 * w.window_index + 5.0: w.label for w in windows}
        assert max(ends) == 3000.0
        expected_counts = {
            LabelClass.PRE_45_60: 60,    # ends in (0, 5] min
            LabelClass.PRE_30_45: 180,   # ends in (5, 20] min
            LabelClass.PRE_15_30: 180,   # ends in (20, 35] min
            LabelClass.PRE_0_15: 180,    # ends in (35, 50] min
        }
        for cls, count in expected_counts.items():
            assert sum(1 for lbl in ends.values() if lbl is cls) == count
        assert len(windows) == 600
        for end, lbl in ends.items():
            offset_min = (3000.0 - end) / 60.0
            assert int(lbl) == label_code_reference(offset_min)

    def test_no_annotations_means_all_interictal(self):
        rec = _recording(120.0)
        windows = segment(rec, 5.0, 5.0)
        assert len(windows) == 24
        assert all(w.label is LabelClass.INTERICTAL for w in windows)

    def test_window_shape_and_grid(self):
        rec = _recording(60.0, fs=32)
        windows = segment(rec, 5.0, 2.5)
        assert windows[0].data.shape == (2, 160)
        assert [w.window_index for w in windows[:3]] == [0, 1, 2]
        # Window 1 starts at 2.5 s, sample 80.
        np.testing.assert_array_equal(windows[1].data, rec.samples[:, 80:240])
        np.testing.assert_array_equal(windows[0].data, rec.samples[:, :160])
        # Overlapping windows hold separate copies, none a view of the recording.
        assert not np.shares_memory(windows[0].data, windows[1].data)
        assert not any(np.shares_memory(w.data, rec.samples) for w in windows)

    def test_postictal_exclusion_boundary(self):
        # Exclusion covers [onset, end + 60 min); the first window starting
        # exactly at the exclusion's end is kept and is interictal.
        ann = SeizureAnnotation(100.0, 160.0)
        rec = _recording(160.0 + 3600.0 + 50.0, annotations=[ann])
        windows = segment(rec, 5.0, 5.0)
        post_end = 160.0 + 3600.0
        def start(w):  # seconds; a window starts at its id x the stride
            return 5.0 * w.window_index

        kept_after = [w for w in windows if start(w) >= post_end]
        assert kept_after and start(kept_after[0]) == post_end
        assert all(w.label is LabelClass.INTERICTAL for w in kept_after)
        in_exclusion = [w for w in windows
                        if start(w) + 5.0 > 100.0 and start(w) < post_end]
        assert not in_exclusion

    def test_too_short_recording_rejected(self):
        rec = _recording(3.0)
        with pytest.raises(ValueError):
            segment(rec, 5.0, 5.0)

    def test_non_integral_window_rejected(self):
        rec = _recording(60.0, fs=32)
        with pytest.raises(ValueError):
            segment(rec, 0.3, 0.3)  # 9.6 samples per window

    def test_random_recordings_relabel_bruteforce(self):
        # (stride, grid): the first case has 30 s seizures at arbitrary
        # times.  The others draw seizure times and lengths as multiples of
        # 5 s, so window edges land exactly on onsets, bin edges and
        # exclusion ends; on the 40 s grid bin edges and exclusion edges
        # fall on different grid points.
        rng = np.random.default_rng(42)
        fs = 16
        for stride, grid in ((5.0, None), (2.5, 5.0), (40.0, 5.0)):
            def draw(lo, hi):
                x = float(rng.uniform(lo, hi))
                return x if grid is None else grid * round(x / grid)

            for _ in range(5):
                duration = float(rng.integers(2_000, 12_000))
                anns = []
                t = draw(0, duration / 3)
                seizure = 30.0 if grid is None else draw(grid, 600.0)
                while t + seizure < duration:
                    anns.append(SeizureAnnotation(t, t + seizure))
                    t += seizure + draw(600.0, duration / 2)
                    seizure = 30.0 if grid is None else draw(grid, 600.0)
                rec = _recording(duration, fs=fs, annotations=anns,
                                 seed=rng.integers(1 << 30))
                got = {w.window_index: w.label for w in segment(rec, 5.0, stride)}

                onsets = [a.onset_time for a in anns]
                n_positions = (rec.samples.shape[1] - 5 * fs) // int(stride * fs) + 1
                for i in range(n_positions):
                    start = i * stride
                    end = start + 5.0
                    nxt = [o for o in onsets if o >= end]
                    want = label_code_reference((nxt[0] - end) / 60.0 if nxt else None)
                    excluded = any(start < a.end_time + 3600.0 and a.onset_time < end
                                   for a in anns)
                    if want == "discard" or excluded:
                        assert i not in got
                    else:
                        assert got[i] is LabelClass(want)


# ---------------------------------------------------------------------------
# Synthetic recordings


def _small_synth(**overrides):
    base = dict(duration_s=9060.0 + 2 * 200.0, n_seizures=1, sample_rate_hz=64,
                eeg_channels=2, noise_sigma=0.1)
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthGenerate:
    def test_deterministic(self):
        cfg = _small_synth()
        e1, c1 = synth_generate(cfg, seed=5)
        e2, c2 = synth_generate(cfg, seed=5)
        np.testing.assert_array_equal(e1.samples, e2.samples)
        np.testing.assert_array_equal(c1.samples, c2.samples)
        assert e1.annotations == e2.annotations

    def test_seed_changes_signal(self):
        cfg = _small_synth()
        e1, _ = synth_generate(cfg, seed=5)
        e2, _ = synth_generate(cfg, seed=6)
        assert not np.array_equal(e1.samples, e2.samples)

    def test_sensors_share_annotations(self):
        eeg, ecg = synth_generate(_small_synth(), seed=3)
        assert eeg.annotations == ecg.annotations
        assert eeg.sensor is Sensor.EEG and ecg.sensor is Sensor.ECG
        assert ecg.channels == 1

    def test_noiseless_band_energy_oracle_is_perfect(self):
        eeg, ecg = synth_generate(_small_synth(noise_sigma=0.0), seed=11)
        for rec, freqs, half in ((eeg, EEG_CLASS_FREQS_HZ, 1.5),
                                 (ecg, ECG_CLASS_FREQS_HZ, 0.8)):
            windows = segment(rec, 5.0, 5.0)
            assert windows
            hits = sum(
                band_energy_predict(w.data, rec.sample_rate_hz, freqs, half)
                == int(w.label)
                for w in windows
            )
            assert hits == len(windows)

    def test_preictal_amplitude_ramps_toward_onset(self):
        eeg, _ = synth_generate(_small_synth(noise_sigma=0.0), seed=2)
        windows = {w.label: [] for w in segment(eeg, 5.0, 5.0)}
        for w in segment(eeg, 5.0, 5.0):
            windows[w.label].append(np.sqrt(np.mean(w.data ** 2)))
        means = [np.mean(windows[c]) for c in (LabelClass.PRE_45_60,
                                               LabelClass.PRE_30_45,
                                               LabelClass.PRE_15_30,
                                               LabelClass.PRE_0_15)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_pinned_samples_per_region(self):
        # One sample from each region, in layout order: interictal lead-in,
        # buffer, the four bins from PRE_45_60 to PRE_0_15, ictal,
        # post-ictal, trailing interictal.  A change in the order of the
        # random draws changes them.
        eeg, ecg = synth_generate(_small_synth(), seed=5)
        assert [(a.onset_time, a.end_time) for a in eeg.annotations] == [(5600.0, 5660.0)]
        cols = [64 * t + 7 for t in (100, 1000, 2450, 3350, 4250, 5150, 5630,
                                     7000, 9360)]
        expected = {
            "eeg": [[-1.0816603296595035, -1.1028269939757005, -0.691185099363852,
                     0.1064009882449472, 3.576776903370128, 4.717832673214128,
                     -3.1153745700245983, 0.639634349461302, 0.9750883306834054],
                    [-1.0978786591746466, -1.6109681309937396, -0.19945925180897028,
                     -1.8166473043321172, 2.2225975680306047, 0.9914221184161146,
                     -3.0836982692438246, 0.3834458428294735, -0.45443186828670945]],
            "ecg": [[0.26371829110678174, -2.5089566399380465, -1.1941267798241122,
                     -1.2307855102890555, -0.6463228832391855, -4.08870808314135,
                     0.07750878876648568, 0.6958052208927141, -2.030987365775475]],
        }
        for rec, name in ((eeg, "eeg"), (ecg, "ecg")):
            np.testing.assert_allclose(rec.samples[:, cols], expected[name],
                                       rtol=0, atol=1e-12)

    def test_duration_too_short_for_seizures(self):
        with pytest.raises(ValueError):
            synth_generate(_small_synth(duration_s=5000.0), seed=0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            SynthConfig(sample_rate_hz=40)  # below the class signature bands
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-0.1)
        for seizure_duration_s in (0.0, -60.0):
            with pytest.raises(ValueError):
                SynthConfig(seizure_duration_s=seizure_duration_s)


class TestStreamedGenerator:
    # 600 s seizures put the ictal burst across the block boundary at
    # sample 6 x BLOCK_SAMPLES, as the amplitude ramp crosses 2 x
    # BLOCK_SAMPLES; a row of 640,000 samples is not whole blocks.
    CFG = dict(duration_s=10_000.0, n_seizures=1, sample_rate_hz=64,
               eeg_channels=2, seizure_duration_s=600.0)

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_streamed_files_equal_the_saved_recordings(self, tmp_path, monkeypatch,
                                                       noise):
        cfg = SynthConfig(**self.CFG, noise_sigma=noise)
        eeg, ecg = synth_generate(cfg, seed=3, patient_id="p")
        (ann,) = eeg.annotations
        n = eeg.n_samples
        assert n % BLOCK_SAMPLES
        for start_s, stop_s in ((ann.onset_time - 3600.0, ann.onset_time),
                                (ann.onset_time, ann.end_time)):  # ramp, burst
            first, stop = round(64 * start_s), round(64 * stop_s)
            assert first // BLOCK_SAMPLES < (stop - 1) // BLOCK_SAMPLES
        save_recording(eeg, tmp_path / "whole", "p_eeg")
        save_recording(ecg, tmp_path / "whole", "p_ecg")
        manifests = save_synth(cfg, 3, tmp_path / "streamed", "p")
        assert [m.path.name for m in manifests] == ["p_eeg.json", "p_ecg.json"]
        whole = self._files(tmp_path / "whole")
        assert sorted(whole) == ["p_ecg.f64", "p_ecg.json", "p_eeg.f64", "p_eeg.json"]
        assert self._files(tmp_path / "streamed") == whole
        # Another block size moves no bit.
        monkeypatch.setattr(dataset, "BLOCK_SAMPLES", 1000)
        save_synth(cfg, 3, tmp_path / "small", "p")
        assert self._files(tmp_path / "small") == whole

    def test_header_is_refused_before_a_byte_is_written(self, tmp_path):
        # The config takes a rate of 64.5 Hz; a recording's header does not.
        cfg = SynthConfig(**{**self.CFG, "sample_rate_hz": 64.5})
        with pytest.raises(ValueError, match="sample_rate_hz must be a positive "
                                             "integer") as streamed:
            save_synth(cfg, 0, tmp_path / "out", "p")
        with pytest.raises(ValueError) as whole:
            synth_generate(cfg, 0)
        assert str(streamed.value) == str(whole.value)
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Recording/annotation validation


class TestRecordingInvariants:
    def test_ecg_must_be_single_channel(self):
        with pytest.raises(ValueError):
            Recording("t", Sensor.ECG, 32, 2, np.zeros((2, 64)))

    def test_eeg_needs_two_channels(self):
        with pytest.raises(ValueError):
            Recording("t", Sensor.EEG, 32, 1, np.zeros((1, 64)))

    def test_annotations_sorted_and_in_range(self):
        samples = np.zeros((2, 32 * 100))
        with pytest.raises(ValueError):
            Recording("t", Sensor.EEG, 32, 2, samples,
                      [SeizureAnnotation(50.0, 60.0), SeizureAnnotation(55.0, 70.0)])
        with pytest.raises(ValueError):
            Recording("t", Sensor.EEG, 32, 2, samples,
                      [SeizureAnnotation(90.0, 101.0)])

    def test_annotation_times_ordered(self):
        with pytest.raises(ValueError):
            SeizureAnnotation(10.0, 10.0)
        with pytest.raises(ValueError):
            SeizureAnnotation(-1.0, 5.0)


# ---------------------------------------------------------------------------
# Cross-validation folds


def _ids_and_labels(class_counts, seed=0, step=1):
    """Window ids `step` apart, class by class in the order of `class_counts`,
    and their classes, shuffled together."""
    labels = np.repeat(list(class_counts), list(class_counts.values()))
    ids = step * np.arange(len(labels))
    order = np.random.default_rng(seed).permutation(len(labels))
    return ids[order], labels[order]


def _check_partition(window_ids, labels, splits, k):
    all_ids = sorted(window_ids.tolist())
    seen_test = []
    n = len(window_ids)
    by_id = dict(zip(window_ids.tolist(), labels.tolist()))
    class_totals = {}
    for code in labels.tolist():
        class_totals[code] = class_totals.get(code, 0) + 1

    for split in splits:
        ids = split.train_ids + split.val_ids + split.test_ids
        assert sorted(ids) == all_ids                      # coverage
        assert len(set(ids)) == len(ids)                   # disjointness
        assert abs(len(split.test_ids) - n / k) <= 1       # 20% +-1 at k=5
        non_test = len(split.train_ids) + len(split.val_ids)
        assert abs(len(split.val_ids) - 0.1 * non_test) <= 1
        for code, total in class_totals.items():
            in_test = sum(1 for i in split.test_ids if by_id[i] == code)
            assert abs(in_test - total / k) <= 1           # stratification
        seen_test.extend(split.test_ids)
    assert sorted(seen_test) == all_ids                    # test sets partition


class TestKfoldSplit:
    def test_partition_law_balanced(self):
        ids, labels = _ids_and_labels({c: 50 for c in range(5)})
        _check_partition(ids, labels, kfold_split(ids, labels, 5, seed=3), 5)

    def test_partition_law_imbalanced(self):
        ids, labels = _ids_and_labels({0: 7, 1: 23, 2: 11, 3: 40, 4: 203}, seed=9)
        _check_partition(ids, labels, kfold_split(ids, labels, 5, seed=4), 5)

    def test_partition_law_random_multisets(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            counts = {c: int(rng.integers(5, 60)) for c in range(5)}
            ids, labels = _ids_and_labels(counts, seed=trial)
            _check_partition(ids, labels, kfold_split(ids, labels, 5, seed=trial), 5)

    def test_hundred_windows_make_five_folds_of_twenty(self):
        splits = kfold_split(*_ids_and_labels({c: 20 for c in range(5)}), 5, seed=0)
        assert [len(s.test_ids) for s in splits] == [20] * 5

    def test_minimal_two_fold_case(self):
        splits = kfold_split(*_ids_and_labels({0: 2}), 2, seed=0)
        assert [len(s.test_ids) for s in splits] == [1, 1]

    def test_deterministic_and_input_order_invariant(self):
        ids, labels = _ids_and_labels({c: 30 for c in range(5)}, seed=1)
        a = kfold_split(ids, labels, 5, seed=7)
        b = kfold_split(ids[::-1].tolist(), labels[::-1].tolist(), 5, seed=7)
        for sa, sb in zip(a, b):
            assert sa.test_ids == sb.test_ids
            assert sa.val_ids == sb.val_ids
            assert sa.train_ids == sb.train_ids

    def test_pinned_layout(self):
        # One seeded, imbalanced input with gapped ids and a class absent:
        # a change in the order of the random draws changes these folds.
        ids, labels = _ids_and_labels({0: 2, 1: 5, 3: 3, 4: 9}, seed=4, step=3)
        folds = [(s.train_ids, s.val_ids, s.test_ids)
                 for s in kfold_split(ids, labels, 3, seed=11)]
        assert folds == [
            ([0, 6, 12, 15, 24, 27, 30, 33, 39, 45, 48], [42],
             [3, 9, 18, 21, 36, 51, 54]),
            ([3, 6, 9, 15, 18, 21, 27, 36, 42, 45, 51, 54], [30],
             [0, 12, 24, 33, 39, 48]),
            ([0, 3, 9, 12, 18, 21, 24, 33, 36, 39, 48, 54], [51],
             [6, 15, 27, 30, 42, 45]),
        ]
        folds = [(s.train_ids, s.val_ids, s.test_ids)
                 for s in kfold_split(ids, labels, 5, seed=11)]
        assert hashlib.sha256(json.dumps(folds).encode()).hexdigest() == \
            "e2ed00ff271062a4ee2129763645bdcdc75e89c472fb9a0c81b012f284b8b6c6"

    def test_rejects_bad_k(self):
        ids, labels = _ids_and_labels({0: 10})
        with pytest.raises(ValueError):
            kfold_split(ids, labels, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_split(ids[:3], labels[:3], 5, seed=0)

    def test_rejects_ids_and_labels_of_unequal_count(self):
        ids, labels = _ids_and_labels({0: 10})
        with pytest.raises(ValueError, match="10 ids and 9 labels"):
            kfold_split(ids, labels[:9], 5, seed=0)


# ---------------------------------------------------------------------------
# Files


class TestRecordingFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        eeg, _ = synth_generate(_small_synth(duration_s=9060.0 + 100.0,
                                             noise_sigma=0.2), seed=8)
        manifest = save_recording(eeg, tmp_path, "p_test")
        back = load_recording(manifest)
        np.testing.assert_array_equal(back.samples, eeg.samples)
        assert back.annotations == eeg.annotations
        assert back.sample_rate_hz == eeg.sample_rate_hz
        assert back.patient_id == eeg.patient_id
        assert back.sensor is eeg.sensor

    def test_rewrite_is_byte_identical(self, tmp_path):
        eeg, _ = synth_generate(_small_synth(duration_s=9060.0 + 100.0), seed=8)
        save_recording(eeg, tmp_path, "a")
        save_recording(eeg, tmp_path, "b")
        assert (tmp_path / "a.f64").read_bytes() == (tmp_path / "b.f64").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_files_name_their_path(self, tmp_path_factory, data):
        out = tmp_path_factory.mktemp("trunc")
        manifest = save_recording(_recording(3.0, annotations=[
            SeizureAnnotation(1.0, 2.0)]), out, "r")
        target = data.draw(st.sampled_from([manifest, out / "r.f64"]))
        raw = target.read_bytes()
        # Dropping only the manifest's final newline leaves valid JSON.
        longest = len(raw) - (2 if target == manifest else 1)
        target.write_bytes(raw[:data.draw(st.integers(0, longest))])
        with pytest.raises(ValueError, match=re.escape(str(target))) as exc:
            load_recording(manifest)
        if target != manifest:  # a short samples file is no fault of the manifest
            assert "not a recording manifest" not in str(exc.value)

    @pytest.mark.parametrize("value", [pytest.param(np.nan, id="nan"),
                                       pytest.param(np.inf, id="inf"),
                                       pytest.param(-np.inf, id="-inf")])
    def test_non_finite_samples_name_their_file(self, tmp_path, value):
        manifest = save_recording(_recording(3.0), tmp_path, "r")
        samples = np.fromfile(tmp_path / "r.f64", dtype="<f8")
        samples[100] = value  # channel 1, sample 4 of a 2 x 96 recording
        samples.tofile(tmp_path / "r.f64")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / "r.f64"))
                           + ".*channel 1, sample 4") as exc:
            load_recording(manifest)
        assert "not a recording manifest" not in str(exc.value)

    def test_windows_read_row_by_row_equal_the_whole_recording_s(self, tmp_path):
        # Windows on both sides of a seizure are discarded, and the last
        # 3 s are a stride too short for another window.
        rec = _recording(9703.0, fs=16, channels=4,
                         annotations=[SeizureAnnotation(6000.0, 6060.0)])
        manifest = save_recording(rec, tmp_path, "r")
        windows = cut_windows(read_manifest(manifest), 5.0, 5.0)
        whole = segment(load_recording(manifest), 5.0, 5.0)
        grid = (rec.n_samples - 80) // 80 + 1
        assert (rec.n_samples - 80) % 80 and windows.index[-1] == grid - 1
        assert 0 < len(windows.index) < grid - 1000
        assert windows.index.tolist() == [w.window_index for w in whole]
        assert windows.label.tolist() == [int(w.label) for w in whole]
        assert windows.data.tobytes() == np.stack([w.data for w in whole]).tobytes()
        np.testing.assert_array_equal(
            windows.data, np.stack([rec.samples[:, 80 * i:80 * i + 80]
                                    for i in windows.index]))

    def test_windows_at_refuses_an_id_not_in_the_record(self):
        windows = Windows(np.array([0, 2, 5]), np.array([1, 2, 3]),
                          np.arange(6.0).reshape(3, 1, 2))
        picked = windows.at([5, 0])
        assert picked.index.tolist() == [5, 0]
        assert picked.label.tolist() == [3, 1]
        np.testing.assert_array_equal(picked.data, windows.data[[2, 0]])
        assert windows.at([]).index.size == 0
        # 3 falls between 2 and 5, and 6 past the end; 1 and 3 are both
        # absent and the first is named.
        for ids, missing in (([2, 3], 3), ([0, 6], 6), ([1, 3], 1)):
            with pytest.raises(ValueError, match=f"window id {missing} is not in"):
                windows.at(ids)

    def test_reading_windows_holds_the_block_and_not_the_recording(self, tmp_path):
        # One patient's EEG at perfbench's desk shape: 64 Hz, 4 channels,
        # 20,620 s.  Loading the whole file and then windowing it peaks at
        # 60.0 MiB; reading whole channel rows peaked at 29.8, the windows'
        # 18.9 plus a 10.1 MiB row; reading blocks peaks at 20.1.
        eeg, _ = synth_generate(SynthConfig(duration_s=20_620.0, n_seizures=2),
                                seed=0)
        manifest = save_recording(eeg, tmp_path, "eeg")
        del eeg
        tracemalloc.start()
        try:
            windows = cut_windows(read_manifest(manifest), 5.0, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(windows.index) > 1500
        assert peak < windows.data.nbytes + 4 * 8 * BLOCK_SAMPLES

    def test_non_finite_row_is_refused_alike_by_both_readers(self, tmp_path):
        manifest = save_recording(_recording(3.0), tmp_path, "r")
        samples = np.fromfile(tmp_path / "r.f64", dtype="<f8")
        samples[100] = np.nan  # channel 1, sample 4 of a 2 x 96 recording
        samples.tofile(tmp_path / "r.f64")
        with pytest.raises(ValueError) as whole:
            load_recording(manifest)
        with pytest.raises(ValueError) as rows:
            cut_windows(read_manifest(manifest), 1.0, 1.0)
        assert str(rows.value) == str(whole.value)
        assert str(tmp_path / "r.f64") in str(rows.value)
        assert "channel 1, sample 4" in str(rows.value)

    @pytest.mark.parametrize("channel, sample", [
        pytest.param(2, 100_000, id="discarded"),
        pytest.param(3, 155_230, id="tail"),
        pytest.param(1, 80 * (BLOCK_SAMPLES // 80) - 1, id="window-block-end"),
        pytest.param(1, 80 * (BLOCK_SAMPLES // 80), id="window-block-start"),
        pytest.param(0, BLOCK_SAMPLES - 1, id="block-end"),
        pytest.param(3, BLOCK_SAMPLES, id="block-start"),
    ])
    def test_every_sample_is_checked_not_only_the_kept_windows(self, tmp_path,
                                                               channel, sample):
        # 16 Hz windows of 80 samples at a stride of 80: a seizure at 6000 s
        # discards samples 96,000 to 154,560 as well as its runway, and the
        # 155,248-sample rows end 48 samples after the last window.
        rec = _recording(9703.0, fs=16, channels=4,
                         annotations=[SeizureAnnotation(6000.0, 6060.0)])
        manifest = save_recording(rec, tmp_path, "r")
        windows = cut_windows(read_manifest(manifest), 5.0, 5.0)
        assert 80 * windows.index[-1] + 80 == 155_200 < 155_230
        assert not any(80 * i <= 100_000 < 80 * i + 80 for i in windows.index)
        samples = np.fromfile(tmp_path / "r.f64", dtype="<f8")
        samples[channel * rec.n_samples + sample] = np.nan
        samples.tofile(tmp_path / "r.f64")
        with pytest.raises(ValueError) as whole:
            load_recording(manifest)
        with pytest.raises(ValueError) as cut:
            cut_windows(read_manifest(manifest), 5.0, 5.0)
        assert str(cut.value) == str(whole.value) == (
            f"{tmp_path / 'r.f64'} holds NaN or infinite samples, the first at "
            f"channel {channel}, sample {sample}")

    def test_a_file_cut_short_after_its_manifest_was_read_is_refused(self, tmp_path):
        manifest = save_recording(_recording(3.0), tmp_path, "r")
        m = read_manifest(manifest)
        raw = (tmp_path / "r.f64").read_bytes()
        (tmp_path / "r.f64").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'r.f64'} is "
                                                       f"shorter than {manifest}")):
            cut_windows(m, 1.0, 1.0)

    def test_overlapping_windows_are_not_read_from_a_file(self, tmp_path):
        manifest = save_recording(_recording(60.0, fs=32), tmp_path, "r")
        with pytest.raises(ValueError, match="overlap.*r.f64"):
            cut_windows(read_manifest(manifest), 5.0, 2.5)

    @pytest.mark.parametrize("key, delta", [
        pytest.param("n_samples", 1, id="n-samples"),
        pytest.param("channels", -1, id="channels"),
    ])
    def test_shape_off_the_samples_file_names_both(self, tmp_path, key, delta):
        # The samples file is whole; the manifest's shape is what is wrong.
        manifest = save_recording(_recording(3.0), tmp_path, "r")
        payload = json.loads(manifest.read_text())
        payload[key] += delta
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as exc:
            load_recording(manifest)
        assert str(manifest) in str(exc.value)
        assert str(tmp_path / "r.f64") in str(exc.value)

    def test_missing_samples_file_names_the_manifest(self, tmp_path):
        manifest = save_recording(_recording(3.0), tmp_path, "r")
        payload = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**payload, "data_file": "nope.f64"}))
        with pytest.raises(FileNotFoundError) as exc:
            load_recording(manifest)
        assert str(manifest) in str(exc.value)
        assert str(tmp_path / "nope.f64") in str(exc.value)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: m.pop("channels"), id="no-channels"),
        pytest.param(lambda m: m.update(sensor="EMG"), id="unknown-sensor"),
        pytest.param(lambda m: m.update(annotations=[
            {"onset_time": 1.0, "end_time": 9.0}]), id="annotation-past-end"),
        pytest.param(lambda m: m.update(channels="1"), id="string-channels"),
        pytest.param(lambda m: m.update(n_samples=2.5), id="float-n-samples"),
        pytest.param(lambda m: m.update(annotations=None), id="null-annotations"),
        pytest.param(lambda m: m.pop("data_file"), id="no-data-file"),
        pytest.param(lambda m: m.update(sample_rate_hz=True), id="bool-sample-rate"),
        pytest.param(lambda m: m.update(sample_rate_hz=64.5), id="float-sample-rate"),
    ])
    def test_malformed_manifest_names_its_path(self, tmp_path, edit):
        manifest = save_recording(_recording(3.0), tmp_path, "r")
        payload = json.loads(manifest.read_text())
        edit(payload)
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(str(manifest))) as exc:
            load_recording(manifest)
        assert len(str(exc.value)) < 1000
