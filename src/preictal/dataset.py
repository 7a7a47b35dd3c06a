"""Synthetic EEG/ECG recordings, progressive labeling, windowing, and CV folds.

The labeling timeline, stated once in `label_codes`: minutes to the next
onset fall in BIN_MIN-wide bins up to PREICTAL_HORIZON_MIN, lower edge
inclusive ([0,15) [15,30) [30,45) [45,60)); the buffer [PREICTAL_HORIZON_MIN,
INTERICTAL_THRESHOLD_MIN] is discarded rather than forced into either side;
beyond it, or with no seizure ahead, is baseline (interictal).  `cut_windows`
also discards windows overlapping a seizure or the POSTICTAL_EXCLUSION_S
after it; the generator lays out its class regions from the same constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import naming, read_json

BIN_MIN = 15.0                   # width of one pre-seizure bin
PREICTAL_HORIZON_MIN = 60.0      # labeled pre-seizure bins end here
INTERICTAL_THRESHOLD_MIN = 90.0  # beyond this a window counts as baseline
POSTICTAL_EXCLUSION_S = 3600.0   # discard zone after a seizure ends
DISCARD = -1                     # the label code of a dropped window
BLOCK_SAMPLES = 1 << 16          # samples of one channel row moved at a time


class LabelClass(IntEnum):
    """Five progressive classes; integer codes are used in files and on the wire."""

    PRE_0_15 = 0
    PRE_15_30 = 1
    PRE_30_45 = 2
    PRE_45_60 = 3
    INTERICTAL = 4


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


def _check_header(rec) -> None:
    """ValueError if a recording's or manifest's header does not make sense."""
    if type(rec.sample_rate_hz) is not int or rec.sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be a positive integer, "
                         f"got {rec.sample_rate_hz!r}")
    if rec.sensor == Sensor.EEG and rec.channels < 2:
        raise ValueError("EEG recordings need channels >= 2")
    if rec.sensor == Sensor.ECG and rec.channels != 1:
        raise ValueError("ECG recordings are single-channel")
    prev_end = 0.0
    for ann in rec.annotations:
        if ann.onset_time < prev_end:
            raise ValueError("annotations must be sorted and non-overlapping")
        if ann.end_time > rec.n_samples / rec.sample_rate_hz:
            raise ValueError("annotation extends past the end of the recording")
        prev_end = ann.end_time


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
        if self.samples.ndim != 2 or self.samples.shape[0] != self.channels:
            raise ValueError(
                f"samples must be [channels x time], got shape {self.samples.shape}"
            )
        _check_header(self)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class Manifest:
    """A recording as its manifest describes it, its samples left in the
    `.f64` file at `data_path` (`read_manifest` checks that file's size).
    The header obeys `Recording`'s rules."""

    path: Path
    data_path: Path
    patient_id: str
    sensor: Sensor
    sample_rate_hz: int
    channels: int
    n_samples: int
    annotations: list[SeizureAnnotation]

    def __post_init__(self):
        _check_header(self)

    def read_blocks(self, block_samples: int = BLOCK_SAMPLES
                    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """(channel, first sample, samples) of each block of up to
        `block_samples` of each channel row, in file order, read through one
        buffer that the next block overwrites.  Every block is checked before
        it is yielded: ValueError naming the file, the channel and the
        sample's index in the row of the first value that is not finite."""
        buf = np.empty(min(block_samples, self.n_samples), dtype="<f8")
        with open(self.data_path, "rb") as fh:
            for c in range(self.channels):
                for first in range(0, self.n_samples, block_samples):
                    block = buf[:min(block_samples, self.n_samples - first)]
                    if fh.readinto(block) != block.nbytes:
                        raise ValueError(f"{self.data_path} is shorter than "
                                         f"{self.path} gives")
                    # NaN propagates through min and max, so no mask is made.
                    if not np.isfinite([block.min(), block.max()]).all():
                        i = first + int(np.flatnonzero(~np.isfinite(block))[0])
                        raise ValueError(f"{self.data_path} holds NaN or infinite "
                                         f"samples, the first at channel {c}, "
                                         f"sample {i}")
                    yield c, first, block


@dataclass(eq=False)
class Windows:
    """A recording's kept windows as one record of arrays, in stride-grid
    order: `index` [N] the stride-grid ids (a window starts at index x
    stride, so ids align between a patient's EEG and ECG), `label` [N] the
    class codes and `data` [N x C x T] the samples."""

    index: np.ndarray
    label: np.ndarray
    data: np.ndarray

    def find(self, ids) -> np.ndarray:
        """The positions of stride-grid `ids` in the record; an id not in it
        is refused, naming the first such id."""
        ids = np.asarray(ids)
        pos = np.searchsorted(self.index, ids)
        found = pos < len(self.index)
        found[found] = self.index[pos[found]] == ids[found]
        if not found.all():
            raise ValueError(f"window id {ids[~found][0]} is not in the record")
        return pos

    def at(self, ids) -> Windows:
        """The windows of stride-grid `ids`, refused as `find` refuses them."""
        pos = self.find(ids)
        return Windows(self.index[pos], self.label[pos], self.data[pos])


@dataclass
class LabeledWindow:
    """One window of `segment`'s list: a row of `Windows` as an object."""

    window_index: int
    data: np.ndarray
    label: LabelClass


@dataclass
class FoldSplit:
    fold_index: int
    train_ids: list[int]
    val_ids: list[int]
    test_ids: list[int]


def label_codes(minutes) -> np.ndarray:
    """Minutes until the next onset (inf: none ahead) -> class codes, DISCARD
    in the buffer; the module docstring states the rule."""
    minutes = np.asarray(minutes, dtype=float)
    if (minutes < 0).any():
        raise ValueError(f"offsets must be non-negative, got {minutes.min()}")
    edges = np.arange(BIN_MIN, PREICTAL_HORIZON_MIN + BIN_MIN, BIN_MIN)
    codes = np.searchsorted(edges, minutes, side="right")
    codes[(minutes >= PREICTAL_HORIZON_MIN) & (minutes <= INTERICTAL_THRESHOLD_MIN)] = DISCARD
    return codes


def _check_integral(value: float, what: str) -> int:
    n = round(value)
    if abs(value - n) > 1e-9 or n <= 0:
        raise ValueError(f"{what} must be a positive whole number of samples, got {value}")
    return int(n)


def cut_windows(rec: Recording | Manifest, window_seconds: float,
                stride_seconds: float) -> Windows:
    """A recording's kept windows, every stride position labeled in one pass.

    A window's label is `label_codes` of the minutes from its END time (the
    freshest signal the model sees) to the next onset at or after it.  It is
    dropped when that is DISCARD or it overlaps [onset, end +
    POSTICTAL_EXCLUSION_S) of a seizure.  The record is filled one block of a
    channel row at a time: a `Recording`'s rows are one block each, and a
    `Manifest`'s `.f64` is read by `Manifest.read_blocks`, which checks every
    sample, in blocks of whole stride positions of up to BLOCK_SAMPLES, so a
    file is never held whole; each window lies in one block, since a window
    read from a file is no longer than the stride.
    """
    fs = rec.sample_rate_hz
    window_samples = _check_integral(window_seconds * fs, "window_seconds * sample_rate")
    stride_samples = _check_integral(stride_seconds * fs, "stride_seconds * sample_rate")
    n = rec.n_samples
    if n < window_samples:
        raise ValueError(f"{rec.patient_id} {rec.sensor.value} recording "
                         f"({n} samples) is shorter than one window ({window_samples})")

    s0 = stride_samples * np.arange((n - window_samples) // stride_samples + 1)
    starts, ends = s0 / fs, (s0 + window_samples) / fs
    anns = rec.annotations
    onsets = np.array([a.onset_time for a in anns] + [np.inf])
    excluded_until = np.array([a.end_time for a in anns]) + POSTICTAL_EXCLUSION_S
    next_onset = onsets[np.searchsorted(onsets, ends, side="left")]
    codes = label_codes((next_onset - ends) / 60.0)
    codes[((starts[:, None] < excluded_until)
           & (onsets[:-1] < ends[:, None])).any(axis=1)] = DISCARD
    keep = np.flatnonzero(codes != DISCARD)
    if isinstance(rec, Recording):
        blocks = ((c, 0, row) for c, row in enumerate(rec.samples))
    else:
        if window_samples > stride_samples:
            raise ValueError(f"windows of {window_samples} samples overlap at a "
                             f"stride of {stride_samples}; {rec.data_path} is read "
                             f"in blocks of whole strides")
        blocks = rec.read_blocks(stride_samples * max(1, BLOCK_SAMPLES // stride_samples))
    data = np.empty((len(keep), rec.channels, window_samples))
    for c, first, block in blocks:
        if len(block) < window_samples:  # a tail too short for a window
            continue
        grid = np.lib.stride_tricks.sliding_window_view(
            block, window_samples)[::stride_samples]
        base = first // stride_samples  # the block's first stride-grid id
        lo, hi = np.searchsorted(keep, [base, base + len(grid)])
        for k in range(lo, hi, 256):  # a gather's temporary, not a row's
            ids = keep[k:min(k + 256, hi)]
            data[k:k + len(ids), c] = grid[ids - base]
    return Windows(keep, codes[keep], data)


def segment(
    recording: Recording, window_seconds: float, stride_seconds: float
) -> list[LabeledWindow]:
    """`cut_windows` of a recording as window objects, whose data are rows of
    one block; perfbench's stream-infer reads windows in this form."""
    w = cut_windows(recording, window_seconds, stride_seconds)
    return [LabeledWindow(int(i), x, LabelClass(int(c)))
            for i, c, x in zip(w.index, w.label, w.data)]


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
BUFFER_S = 60.0 * (INTERICTAL_THRESHOLD_MIN - PREICTAL_HORIZON_MIN)
PREICTAL_S = 60.0 * PREICTAL_HORIZON_MIN
BIN_S = 60.0 * BIN_MIN


@dataclass
class SynthConfig:
    duration_s: float = 41_240.0
    n_seizures: int = 4
    sample_rate_hz: int = 64
    eeg_channels: int = 4
    seizure_duration_s: float = 60.0
    noise_sigma: float = 0.3

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
        if self.seizure_duration_s <= 0:
            raise ValueError(f"seizure_duration_s must be positive, "
                             f"got {self.seizure_duration_s}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    @property
    def n_samples(self) -> int:
        """Samples per channel of each recording."""
        return int(round(self.duration_s * self.sample_rate_hz))


def _plan_onsets(cfg: SynthConfig) -> list[SeizureAnnotation]:
    """Place seizures so each has a full buffer+preictal runway and postictal tail."""
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


def _render_sensor(
    cfg: SynthConfig,
    anns: list[SeizureAnnotation],
    channels: int,
    freqs: dict[int, float],
    offsets: tuple[float, ...],
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """One sensor's samples in file order: channel row by row, one
    BLOCK_SAMPLES block at a time, each in the buffer the next overwrites.

    The plan is drawn first, in layout order: the channel gains, then, seizure
    by seizure, each region's tone phases or ictal burst: interictal up to the
    buffer and through it, the four bins on the amplitude ramp, the ictal
    burst, the post-ictal tail; then interictal to the end.  Each block is
    then filled from the regions it overlaps, a later region over an earlier
    one, and gets its noise from the same stream, so the blocks of a row draw
    what one draw over the whole row would.  Each sample is computed as it
    was when whole recordings were rendered: a tone's first sine stands for
    0.0 plus it, since no argument is -0.0.
    """
    fs, n = cfg.sample_rate_hz, cfg.n_samples
    gains = rng.uniform(0.8, 1.2, size=channels)
    amp_lo, amp_hi = PREICTAL_AMP_RANGE
    regions = []  # (first sample, stop, fill(channel, lo, sample times, out))

    def span(start_s: float, stop_s: float) -> tuple[int, int]:
        return int(round(start_s * fs)), int(round(stop_s * fs))

    def tone(start_s: float, stop_s: float, cls: int = int(LabelClass.INTERICTAL),
             amp=lambda t: 1.0) -> None:
        """Class `cls`'s tone mixture over [start_s, stop_s), scaled by amp(t)
        at the sample times t; an empty span draws no phases."""
        first, stop = span(start_s, stop_s)
        if stop <= first:
            return
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, len(offsets)))
        omegas = [2.0 * np.pi * (freqs[cls] + df) for df in offsets]

        def fill(c: int, _: int, t: np.ndarray, out: np.ndarray) -> None:
            arg = np.empty_like(t)
            for j, (omega, phase) in enumerate(zip(omegas, phases[c])):
                np.multiply(omega, t, out=arg)
                arg += phase
                if j:
                    out += np.sin(arg, out=arg)
                else:
                    np.sin(arg, out=out)
            out *= amp(t) * gains[c]

        regions.append((first, stop, fill))

    t0 = 0.0
    for ann in anns:
        onset = ann.onset_time
        buf_start = onset - PREICTAL_S - BUFFER_S
        if buf_start > t0:
            tone(t0, buf_start)
        tone(buf_start, onset - PREICTAL_S)
        for k in reversed(range(round(PREICTAL_S / BIN_S))):  # PRE_0_15 last
            a = onset - (k + 1) * BIN_S
            tone(a, a + BIN_S, k, lambda t, onset=onset: amp_lo + (amp_hi - amp_lo)
                 * (1.0 - (onset - t) / PREICTAL_S))  # 0 at -60 min, 1 at onset
        first, stop = span(onset, ann.end_time)
        burst = ICTAL_AMP * rng.standard_normal((channels, stop - first))
        regions.append((first, stop, lambda c, lo, _, out, burst=burst, first=first:
                        np.copyto(out, burst[c, lo - first:lo - first + len(out)])))
        t0 = min(ann.end_time + POSTICTAL_EXCLUSION_S, cfg.duration_s)
        tone(ann.end_time, t0, amp=lambda t: POSTICTAL_AMP)
    if t0 < cfg.duration_s:
        tone(t0, cfg.duration_s)

    buf, noise = np.empty(min(BLOCK_SAMPLES, n)), np.empty(min(BLOCK_SAMPLES, n))
    for c in range(channels):
        for b0 in range(0, n, BLOCK_SAMPLES):
            block = buf[:min(BLOCK_SAMPLES, n - b0)]
            block.fill(0.0)
            t = np.arange(b0, b0 + len(block), dtype=float)
            t /= fs
            for first, stop, fill in regions:
                lo, hi = max(first, b0), min(stop, b0 + len(block))
                if lo < hi:
                    fill(c, lo, t[lo - b0:hi - b0], block[lo - b0:hi - b0])
            if cfg.noise_sigma > 0:
                z = rng.standard_normal(out=noise[:len(block)])
                z *= cfg.noise_sigma
                block += z
            yield block


def _sensors(cfg: SynthConfig, seed: int):
    """(sensor, channel count, annotations, `_render_sensor`'s blocks) for
    EEG, then ECG.  The two sensors draw from independent substreams, so
    changing the EEG channel count does not perturb the ECG signal."""
    anns = _plan_onsets(cfg)
    for stream, (sensor, channels, freqs, offsets) in enumerate((
            (Sensor.EEG, cfg.eeg_channels, EEG_CLASS_FREQS_HZ, EEG_COMPONENT_OFFSETS_HZ),
            (Sensor.ECG, 1, ECG_CLASS_FREQS_HZ, ECG_COMPONENT_OFFSETS_HZ))):
        yield sensor, channels, anns, _render_sensor(
            cfg, anns, channels, freqs, offsets, np.random.default_rng([seed, stream]))


def synth_generate(
    cfg: SynthConfig, seed: int, patient_id: str = "synth"
) -> tuple[Recording, Recording]:
    """Generate one patient's EEG and ECG recordings with shared annotations,
    each filled from `_render_sensor`'s blocks; deterministic in (cfg, seed)."""
    recordings = []
    for sensor, channels, anns, blocks in _sensors(cfg, seed):
        samples = np.empty((channels, cfg.n_samples))
        flat, pos = samples.reshape(-1), 0
        for block in blocks:
            flat[pos:pos + len(block)] = block
            pos += len(block)
        recordings.append(Recording(patient_id, sensor, cfg.sample_rate_hz, channels,
                                    samples, list(anns)))
    return tuple(recordings)


def save_synth(cfg: SynthConfig, seed: int, out_dir: Path | str,
               patient_id: str) -> list[Manifest]:
    """Write `synth_generate(cfg, seed, patient_id)`'s EEG and ECG recordings
    as `save_recording` writes them, under `<patient_id>_eeg` and `_ecg`,
    and return their manifests.  Each `.f64` is written one block at a time
    as `_render_sensor` renders it, so no recording is held whole.  Both
    headers are held to `Recording`'s rules before the first byte is
    written."""
    out_dir = Path(out_dir)
    sensors = list(_sensors(cfg, seed))
    manifests = [
        Manifest(out_dir / f"{patient_id}_{sensor.value.lower()}.json",
                 out_dir / f"{patient_id}_{sensor.value.lower()}.f64", patient_id,
                 sensor, cfg.sample_rate_hz, channels, cfg.n_samples, list(anns))
        for sensor, channels, anns, _ in sensors]
    out_dir.mkdir(parents=True, exist_ok=True)
    for m, (*_, blocks) in zip(manifests, sensors):
        _write_manifest(m)
        with open(m.data_path, "wb") as fh:
            for block in blocks:
                fh.write(block.astype("<f8", copy=False))
    return manifests


# ---------------------------------------------------------------------------
# Cross-validation folds


def kfold_split(
    ids: Sequence[int], labels: Sequence[int], k: int = 5, seed: int = 0
) -> list[FoldSplit]:
    """Stratified k-fold split of windows given as stride-grid ids and classes.

    Test sets partition the windows with per-class counts within +-1 of n_c/k
    and fold sizes within +-1 of n/k; within each fold, 10% of the non-test
    windows (largest-remainder across classes) form the validation set.
    """
    if not 2 <= k <= len(ids) == len(labels):
        raise ValueError(f"need at least k={k} windows, one label each, and k >= 2; "
                         f"got {len(ids)} ids and {len(labels)} labels")

    rng = np.random.default_rng(seed)
    index = np.asarray(ids)
    label = np.asarray(labels, dtype=int)
    loads = np.zeros(k, dtype=int)  # test windows per fold so far
    cuts = []                       # per class, in class order: its k test cuts
    for cls in np.unique(label):
        members = np.sort(index[label == cls])
        rng.shuffle(members)
        sizes = np.full(k, len(members) // k)
        sizes[np.argsort(loads, kind="stable")[:len(members) % k]] += 1
        loads += sizes
        cuts.append(np.split(members, np.cumsum(sizes)[:-1]))

    splits = []
    for f in range(k):
        pools = [np.concatenate(c[:f] + c[f + 1:]) for c in cuts]
        sizes = [len(pool) for pool in pools]
        quotas = _largest_remainder(sizes, int(math.floor(0.1 * sum(sizes) + 0.5)))
        fold_rng = np.random.default_rng([seed, f])
        for pool in pools:
            fold_rng.shuffle(pool)
        train = np.concatenate([pool[q:] for pool, q in zip(pools, quotas)])
        val = np.concatenate([pool[:q] for pool, q in zip(pools, quotas)])
        test = np.concatenate([c[f] for c in cuts])
        splits.append(FoldSplit(f, *(np.sort(ids).tolist() for ids in (train, val, test))))
    return splits


def _largest_remainder(sizes: list[int], target: int) -> list[int]:
    """Apportion `target` among pools by size; a tie goes to the earlier pool."""
    total = sum(sizes)
    if total == 0 or target == 0:
        return [0] * len(sizes)
    shares = [target * n / total for n in sizes]
    quotas = [math.floor(s) for s in shares]
    leftover = target - sum(quotas)
    for i in sorted(range(len(sizes)), key=lambda i: quotas[i] - shares[i])[:leftover]:
        quotas[i] += 1
    return [min(q, n) for q, n in zip(quotas, sizes)]  # quota cannot exceed the pool


# ---------------------------------------------------------------------------
# File formats


def _write_manifest(m: Manifest) -> None:
    """Write `m` as the JSON manifest at `m.path`; its samples file is named
    relative to it."""
    m.path.write_text(json.dumps({
        "patient_id": m.patient_id,
        "sensor": m.sensor.value,
        "sample_rate_hz": m.sample_rate_hz,
        "channels": m.channels,
        "n_samples": m.n_samples,
        "data_file": m.data_path.name,
        "annotations": [
            {"onset_time": a.onset_time, "end_time": a.end_time}
            for a in m.annotations
        ],
    }, indent=2) + "\n")


def save_recording(rec: Recording, out_dir: Path | str, basename: str) -> Path:
    """Write `<basename>.json` manifest plus `<basename>.f64` raw samples.

    The binary file is little-endian float64 in channel-major order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = Manifest(out_dir / f"{basename}.json", out_dir / f"{basename}.f64",
                 rec.patient_id, rec.sensor, rec.sample_rate_hz, rec.channels,
                 rec.n_samples, rec.annotations)
    _write_manifest(m)
    np.ascontiguousarray(rec.samples, dtype="<f8").tofile(m.data_path)
    return m.path


def read_manifest(manifest_path: Path | str) -> Manifest:
    """The manifest at `manifest_path`, its samples not read; an error names the
    manifest if it is malformed, both it and the samples file if that is
    missing or not the size the manifest gives."""
    manifest_path = Path(manifest_path)

    def locate(manifest):
        shape = (manifest["channels"], manifest["n_samples"])
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"channels and n_samples must be non-negative "
                             f"integers, got {shape}")
        data_path = manifest_path.parent / manifest["data_file"]
        if not data_path.is_file():
            raise FileNotFoundError(f"{manifest_path} names missing file {data_path}")
        return manifest, data_path, shape

    manifest, data_path, (channels, n) = read_json(manifest_path, "a recording manifest",
                                                   locate)
    size = data_path.stat().st_size
    if size != 8 * channels * n:
        raise ValueError(f"{data_path} holds {size} bytes; {manifest_path} gives "
                         f"{channels} channels x {n} samples of float64, which "
                         f"need {8 * channels * n}")
    with naming(manifest_path, "a recording manifest"):
        return Manifest(
            manifest_path, data_path,
            patient_id=manifest["patient_id"],
            sensor=Sensor(manifest["sensor"]),
            sample_rate_hz=manifest["sample_rate_hz"],
            channels=channels,
            n_samples=n,
            annotations=[
                SeizureAnnotation(a["onset_time"], a["end_time"])
                for a in manifest["annotations"]
            ],
        )


def load_recording(manifest_path: Path | str) -> Recording:
    """The whole recording a manifest describes, each block read by
    `Manifest.read_blocks` straight into its samples; the pipeline reads
    `cut_windows` of the manifest instead, and perfbench's stream-infer reads
    this."""
    m = read_manifest(manifest_path)
    samples = np.empty((m.channels, m.n_samples))
    for c, first, block in m.read_blocks():
        samples[c, first:first + len(block)] = block
    return Recording(m.patient_id, m.sensor, m.sample_rate_hz, m.channels,
                     samples, m.annotations)
