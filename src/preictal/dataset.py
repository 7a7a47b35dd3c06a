"""Synthetic EEG/ECG recordings, progressive labeling, windowing, and CV folds.

A recording is labeled relative to seizure onsets: four 15-minute pre-seizure
bins cover the hour before onset, everything more than 90 minutes out is
baseline (interictal), and the 60-90 minute stretch is a buffer that is
discarded rather than forced into either side.  Windows overlapping a seizure
itself or the hour after it are discarded as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path
from typing import Optional

import numpy as np

PREICTAL_HORIZON_MIN = 60.0      # labeled pre-seizure bins end here
INTERICTAL_THRESHOLD_MIN = 90.0  # beyond this a window counts as baseline
BUFFER_MIN = (60.0, 90.0)        # inclusive discard zone between the two
POSTICTAL_EXCLUSION_S = 3600.0   # discard zone after a seizure ends

DEFAULT_WINDOW_SECONDS = 5.0
DEFAULT_STRIDE_SECONDS = 5.0


class LabelClass(IntEnum):
    """Five progressive classes; integer codes are used in files and on the wire."""

    PRE_0_15 = 0
    PRE_15_30 = 1
    PRE_30_45 = 2
    PRE_45_60 = 3
    INTERICTAL = 4


PREICTAL_CLASSES = (
    LabelClass.PRE_0_15,
    LabelClass.PRE_15_30,
    LabelClass.PRE_30_45,
    LabelClass.PRE_45_60,
)
N_CLASSES = len(LabelClass)


class Sensor(str, Enum):
    EEG = "EEG"
    ECG = "ECG"


@dataclass(frozen=True)
class SeizureAnnotation:
    onset_time: float
    end_time: float

    def __post_init__(self):
        if self.onset_time < 0:
            raise ValueError(f"onset_time must be >= 0, got {self.onset_time}")
        if self.end_time <= self.onset_time:
            raise ValueError(
                f"end_time must exceed onset_time ({self.onset_time}, {self.end_time})"
            )


@dataclass
class Recording:
    """One sensor's annotated multichannel time series.

    `samples` is [channels x time], float64.  EEG recordings need at least two
    channels, ECG exactly one.  Annotations must be sorted, non-overlapping,
    and lie within the recording.
    """

    patient_id: str
    sensor: Sensor
    sample_rate_hz: int
    channels: int
    samples: np.ndarray
    annotations: list[SeizureAnnotation] = field(default_factory=list)

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.sensor == Sensor.EEG and self.channels < 2:
            raise ValueError("EEG recordings need channels >= 2")
        if self.sensor == Sensor.ECG and self.channels != 1:
            raise ValueError("ECG recordings are single-channel")
        if self.samples.ndim != 2 or self.samples.shape[0] != self.channels:
            raise ValueError(
                f"samples must be [channels x time], got shape {self.samples.shape}"
            )
        duration = self.duration_s
        prev_end = 0.0
        for ann in self.annotations:
            if ann.onset_time < prev_end:
                raise ValueError("annotations must be sorted and non-overlapping")
            if ann.end_time > duration:
                raise ValueError("annotation extends past the end of the recording")
            prev_end = ann.end_time

    @property
    def duration_s(self) -> float:
        return self.samples.shape[1] / self.sample_rate_hz


@dataclass
class LabeledWindow:
    """A fixed-length segment cut from a recording.

    `window_index` is the position on the stride grid, so indices stay aligned
    between the EEG and ECG windowings of the same patient even when windows
    in between are discarded.
    """

    window_index: int
    start_time: float
    data: np.ndarray
    label: LabelClass


@dataclass
class FoldSplit:
    fold_index: int
    train_ids: list[int]
    val_ids: list[int]
    test_ids: list[int]


def label_for_offset(minutes_to_next_onset: Optional[float]) -> Optional[LabelClass]:
    """Map minutes-until-next-onset to a class, or None for the discard buffer.

    Half-open 15-minute bins, lower edge inclusive: [0,15) [15,30) [30,45)
    [45,60).  [60,90] is discarded; beyond 90 minutes (or no future seizure
    at all) is interictal.
    """
    m = minutes_to_next_onset
    if m is None:
        return LabelClass.INTERICTAL
    if m < 0:
        raise ValueError(f"offset must be non-negative, got {m}")
    if m < 15.0:
        return LabelClass.PRE_0_15
    if m < 30.0:
        return LabelClass.PRE_15_30
    if m < 45.0:
        return LabelClass.PRE_30_45
    if m < 60.0:
        return LabelClass.PRE_45_60
    if m <= 90.0:
        return None
    return LabelClass.INTERICTAL


def _check_integral(value: float, what: str) -> int:
    n = round(value)
    if abs(value - n) > 1e-9 or n <= 0:
        raise ValueError(f"{what} must be a positive whole number of samples, got {value}")
    return int(n)


def segment(
    recording: Recording,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    stride_seconds: float = DEFAULT_STRIDE_SECONDS,
    postictal_exclusion_s: float = POSTICTAL_EXCLUSION_S,
) -> list[LabeledWindow]:
    """Cut a recording into labeled windows.

    The label comes from the window END time's distance to the next onset
    (the end is the freshest signal the model sees).  Windows are dropped when
    that distance lands in the 60-90 minute buffer, or when the window overlaps
    a seizure or the post-ictal exclusion zone after one.
    """
    fs = recording.sample_rate_hz
    window_samples = _check_integral(window_seconds * fs, "window_seconds * sample_rate")
    stride_samples = _check_integral(stride_seconds * fs, "stride_seconds * sample_rate")
    n = recording.samples.shape[1]
    if n < window_samples:
        raise ValueError(
            f"recording ({n} samples) is shorter than one window ({window_samples})"
        )

    onsets = np.array([a.onset_time for a in recording.annotations], dtype=float)
    windows: list[LabeledWindow] = []
    n_positions = (n - window_samples) // stride_samples + 1
    for i in range(n_positions):
        s0 = i * stride_samples
        s1 = s0 + window_samples
        start_time = s0 / fs
        end_time = s1 / fs

        j = int(np.searchsorted(onsets, end_time, side="left"))
        offset_min = (onsets[j] - end_time) / 60.0 if j < len(onsets) else None
        label = label_for_offset(offset_min)
        if label is None:
            continue
        if _overlaps_exclusion(start_time, end_time, recording.annotations,
                               postictal_exclusion_s):
            continue
        windows.append(
            LabeledWindow(
                window_index=i,
                start_time=start_time,
                data=recording.samples[:, s0:s1].copy(),
                label=label,
            )
        )
    return windows


def _overlaps_exclusion(
    start: float,
    end: float,
    annotations: list[SeizureAnnotation],
    postictal_s: float,
) -> bool:
    # Half-open interval overlap against [onset, seizure_end + postictal).
    for ann in annotations:
        if start < ann.end_time + postictal_s and ann.onset_time < end:
            return True
    return False


# ---------------------------------------------------------------------------
# Synthetic recordings
#
# Every class region carries a narrow-band sinusoid mixture at a
# class-specific center frequency, with per-channel gains and phases, plus
# additive Gaussian noise scaled by `noise_sigma`.  Pre-seizure amplitude
# ramps up linearly toward onset.  Adjacent classes sit at adjacent
# frequencies so that, under noise, confusions land on neighboring bins.

EEG_CLASS_FREQS_HZ = {0: 26.0, 1: 21.0, 2: 16.0, 3: 11.0, 4: 6.0}
ECG_CLASS_FREQS_HZ = {0: 13.0, 1: 10.5, 2: 8.0, 3: 5.5, 4: 3.0}
EEG_COMPONENT_OFFSETS_HZ = (-1.0, 0.0, 1.0)
ECG_COMPONENT_OFFSETS_HZ = (-0.4, 0.0, 0.4)
PREICTAL_AMP_RANGE = (0.8, 1.6)
POSTICTAL_AMP = 0.7
ICTAL_AMP = 3.0
BUFFER_S = 60.0 * (BUFFER_MIN[1] - BUFFER_MIN[0])
PREICTAL_S = 60.0 * PREICTAL_HORIZON_MIN


@dataclass
class SynthConfig:
    duration_s: float = 6.0 * 3600.0
    n_seizures: int = 2
    sample_rate_hz: int = 256
    eeg_channels: int = 19
    seizure_duration_s: float = 60.0
    noise_sigma: float = 0.5

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        max_freq = max(EEG_CLASS_FREQS_HZ.values()) + max(EEG_COMPONENT_OFFSETS_HZ)
        if self.sample_rate_hz < 2 * max_freq + 4:
            raise ValueError(
                f"sample_rate_hz {self.sample_rate_hz} too low for the "
                f"{max_freq} Hz class signatures"
            )
        if self.eeg_channels < 2:
            raise ValueError("eeg_channels must be >= 2")
        if self.n_seizures < 0:
            raise ValueError("n_seizures must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def _plan_onsets(cfg: SynthConfig) -> list[SeizureAnnotation]:
    """Place seizures so each has a full buffer+preictal runway and postictal tail."""
    if cfg.n_seizures == 0:
        return []
    block = BUFFER_S + PREICTAL_S + cfg.seizure_duration_s + POSTICTAL_EXCLUSION_S
    gap = (cfg.duration_s - cfg.n_seizures * block) / (cfg.n_seizures + 1)
    if gap < 0:
        raise ValueError(
            f"duration_s {cfg.duration_s} too short for {cfg.n_seizures} seizures "
            f"(need >= {cfg.n_seizures * block:.0f} s)"
        )
    anns = []
    for i in range(cfg.n_seizures):
        block_start = gap + i * (block + gap)
        onset = block_start + BUFFER_S + PREICTAL_S
        anns.append(SeizureAnnotation(onset, onset + cfg.seizure_duration_s))
    return anns


def _regions(cfg: SynthConfig, anns: list[SeizureAnnotation]):
    """Yield (start_s, stop_s, class_code, amplitude) content regions.

    The amplitude is either a scalar or ("ramp", onset_s) for the linear
    pre-seizure ramp; class_code None means ictal noise burst.
    """
    bin_s = PREICTAL_S / 4.0
    t = 0.0
    for ann in anns:
        pre_start = ann.onset_time - PREICTAL_S
        buf_start = pre_start - BUFFER_S
        if buf_start > t:
            yield (t, buf_start, int(LabelClass.INTERICTAL), 1.0)
        yield (buf_start, pre_start, int(LabelClass.INTERICTAL), 1.0)
        for k in range(3, -1, -1):  # PRE_45_60 first in time, PRE_0_15 last
            a = ann.onset_time - (k + 1) * bin_s
            yield (a, a + bin_s, k, ("ramp", ann.onset_time))
        yield (ann.onset_time, ann.end_time, None, ICTAL_AMP)
        post_end = min(ann.end_time + POSTICTAL_EXCLUSION_S, cfg.duration_s)
        yield (ann.end_time, post_end, int(LabelClass.INTERICTAL), POSTICTAL_AMP)
        t = post_end
    if t < cfg.duration_s:
        yield (t, cfg.duration_s, int(LabelClass.INTERICTAL), 1.0)


def _render_sensor(
    cfg: SynthConfig,
    anns: list[SeizureAnnotation],
    channels: int,
    freqs: dict[int, float],
    offsets: tuple[float, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    fs = cfg.sample_rate_hz
    n = int(round(cfg.duration_s * fs))
    out = np.zeros((channels, n))
    gains = rng.uniform(0.8, 1.2, size=channels)
    amp_lo, amp_hi = PREICTAL_AMP_RANGE
    for start_s, stop_s, cls, amp in _regions(cfg, anns):
        i0, i1 = int(round(start_s * fs)), int(round(stop_s * fs))
        if i1 <= i0:
            continue
        if cls is None:
            out[:, i0:i1] = amp * rng.standard_normal((channels, i1 - i0))
            continue
        t = np.arange(i0, i1) / fs
        if isinstance(amp, tuple):
            onset = amp[1]
            frac = 1.0 - (onset - t) / PREICTAL_S  # 0 at -60 min, 1 at onset
            a = amp_lo + (amp_hi - amp_lo) * frac
        else:
            a = amp
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, len(offsets)))
        sig = np.zeros((channels, i1 - i0))
        for j, df in enumerate(offsets):
            sig += np.sin(2.0 * np.pi * (freqs[cls] + df) * t[None, :]
                          + phases[:, j][:, None])
        out[:, i0:i1] = a * gains[:, None] * sig
    if cfg.noise_sigma > 0:
        out += cfg.noise_sigma * rng.standard_normal(out.shape)
    return out


def synth_generate(
    cfg: SynthConfig, seed: int, patient_id: str = "synth"
) -> tuple[Recording, Recording]:
    """Generate one patient's EEG and ECG recordings with shared annotations.

    Deterministic in (cfg, seed); the two sensors use independent substreams
    so changing the EEG channel count does not perturb the ECG signal.
    """
    anns = _plan_onsets(cfg)
    eeg = _render_sensor(cfg, anns, cfg.eeg_channels, EEG_CLASS_FREQS_HZ,
                         EEG_COMPONENT_OFFSETS_HZ, np.random.default_rng([seed, 0]))
    ecg = _render_sensor(cfg, anns, 1, ECG_CLASS_FREQS_HZ,
                         ECG_COMPONENT_OFFSETS_HZ, np.random.default_rng([seed, 1]))
    return (
        Recording(patient_id, Sensor.EEG, cfg.sample_rate_hz, cfg.eeg_channels,
                  eeg, list(anns)),
        Recording(patient_id, Sensor.ECG, cfg.sample_rate_hz, 1, ecg, list(anns)),
    )


# ---------------------------------------------------------------------------
# Cross-validation folds


def kfold_split(
    windows: list[LabeledWindow], k: int = 5, seed: int = 0
) -> list[FoldSplit]:
    """Stratified k-fold split over window indices.

    Test sets partition the windows with per-class counts within +-1 of n_c/k
    and fold sizes within +-1 of n/k; within each fold, 10% of the non-test
    windows (largest-remainder across classes) form the validation set.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(windows) < k:
        raise ValueError(f"need at least k={k} windows, got {len(windows)}")

    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for w in windows:
        by_class.setdefault(int(w.label), []).append(w.window_index)
    chunks: dict[int, list[list[int]]] = {}
    loads = [0] * k
    for cls in sorted(by_class):
        ids = np.array(sorted(by_class[cls]), dtype=int)
        rng.shuffle(ids)
        base, rem = divmod(len(ids), k)
        bonus = set(sorted(range(k), key=lambda f: (loads[f], f))[:rem])
        sizes = [base + (1 if f in bonus else 0) for f in range(k)]
        cuts = np.cumsum([0] + sizes)
        chunks[cls] = [ids[cuts[f]:cuts[f + 1]].tolist() for f in range(k)]
        for f in range(k):
            loads[f] += sizes[f]

    splits = []
    for f in range(k):
        test_ids: list[int] = []
        nontest_by_class: dict[int, list[int]] = {}
        for cls in sorted(chunks):
            test_ids.extend(chunks[cls][f])
            pool = [i for g in range(k) if g != f for i in chunks[cls][g]]
            if pool:
                nontest_by_class[cls] = pool
        m = sum(len(v) for v in nontest_by_class.values())
        target = int(math.floor(0.1 * m + 0.5))
        quotas = _largest_remainder(
            {cls: len(v) for cls, v in nontest_by_class.items()}, target
        )
        fold_rng = np.random.default_rng([seed, f])
        val_ids: list[int] = []
        train_ids: list[int] = []
        for cls in sorted(nontest_by_class):
            pool = np.array(nontest_by_class[cls], dtype=int)
            fold_rng.shuffle(pool)
            q = quotas[cls]
            val_ids.extend(pool[:q].tolist())
            train_ids.extend(pool[q:].tolist())
        splits.append(
            FoldSplit(f, sorted(train_ids), sorted(val_ids), sorted(test_ids))
        )
    return splits


def _largest_remainder(sizes: dict[int, int], target: int) -> dict[int, int]:
    """Apportion `target` among classes proportionally to their sizes."""
    total = sum(sizes.values())
    if total == 0 or target == 0:
        return {cls: 0 for cls in sizes}
    shares = {cls: target * n / total for cls, n in sizes.items()}
    quotas = {cls: int(math.floor(s)) for cls, s in shares.items()}
    leftover = target - sum(quotas.values())
    order = sorted(sizes, key=lambda c: (-(shares[c] - quotas[c]), c))
    for cls in order[:leftover]:
        quotas[cls] += 1
    for cls in sizes:  # quota cannot exceed the pool
        quotas[cls] = min(quotas[cls], sizes[cls])
    return quotas


# ---------------------------------------------------------------------------
# File formats


def save_recording(rec: Recording, out_dir: Path | str, basename: str) -> Path:
    """Write `<basename>.json` manifest plus `<basename>.f64` raw samples.

    The binary file is little-endian float64 in channel-major order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_name = f"{basename}.f64"
    manifest = {
        "patient_id": rec.patient_id,
        "sensor": rec.sensor.value,
        "sample_rate_hz": rec.sample_rate_hz,
        "channels": rec.channels,
        "n_samples": rec.samples.shape[1],
        "data_file": data_name,
        "annotations": [
            {"onset_time": a.onset_time, "end_time": a.end_time}
            for a in rec.annotations
        ],
    }
    manifest_path = out_dir / f"{basename}.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    (out_dir / data_name).write_bytes(
        np.ascontiguousarray(rec.samples, dtype="<f8").tobytes()
    )
    return manifest_path


def load_recording(manifest_path: Path | str) -> Recording:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: manifest is not valid JSON: {exc}") from exc
    data_path = manifest_path.parent / manifest["data_file"]
    raw = data_path.read_bytes()
    shape = (manifest["channels"], manifest["n_samples"])
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ValueError(f"{data_path} holds {len(raw)} bytes; {shape[0]} channels x "
                         f"{shape[1]} samples of float64 need {8 * shape[0] * shape[1]}")
    samples = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return Recording(
        patient_id=manifest["patient_id"],
        sensor=Sensor(manifest["sensor"]),
        sample_rate_hz=manifest["sample_rate_hz"],
        channels=manifest["channels"],
        samples=samples,
        annotations=[
            SeizureAnnotation(a["onset_time"], a["end_time"])
            for a in manifest["annotations"]
        ],
    )
