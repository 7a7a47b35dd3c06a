"""Evaluation: one 5x5 confusion count matrix per variant and fold is the
whole of a fold's score; everything reported is derived from it.

Rows are true classes, columns predictions.  The binary view calls
everything under 60 minutes to onset pre-seizure (classes 0-3) and the
interictal class non-seizure, so its four counts are block sums of the
matrix; the trend is each pre-seizure row's share of pre-seizure calls.
Averaging is unweighted at both levels, folds into a patient and then
patients into the aggregate, so patients weigh equally whatever their fold
counts.  Undefined ratios (empty denominators) are reported as None/NaN and
excluded from averages, never silently zeroed.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .combiner import CombinerParams, build_input, lr_forward, lr_train, quantize4
from .config import ExperimentConfig, WindowingConfig
from .dataset import (
    N_CLASSES,
    FoldSplit,
    LabelClass,
    LabeledWindow,
    Recording,
    Sensor,
    kfold_split,
    segment,
    stack_windows,
)
from .nn.model import SensorModel, build_model, model_forward
from .nn.train import TrainReport, train

TREND_ORDER = (
    LabelClass.PRE_45_60,
    LabelClass.PRE_30_45,
    LabelClass.PRE_15_30,
    LabelClass.PRE_0_15,
)
VARIANTS = ("eeg", "ecg", "combined")
RATES = ("sensitivity", "specificity", "accuracy")
INTERICTAL = int(LabelClass.INTERICTAL)  # classes below it are pre-seizure
KERNEL_LEN = 5  # every conv layer's taps, for both sensors
POOL_SIZES = {Sensor.EEG: 4, Sensor.ECG: 2}  # ECG's one channel keeps more time


@dataclass
class BinaryMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: Optional[float]
    specificity: Optional[float]
    accuracy: Optional[float]


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def confusion(preds: Sequence[int], labels: Sequence[int]) -> np.ndarray:
    """5x5 counts; rows are true classes, columns predictions."""
    if len(preds) != len(labels):
        raise ValueError(f"got {len(preds)} predictions for {len(labels)} labels")
    if len(preds) == 0:
        raise ValueError("need at least one (prediction, label) pair")
    cells = np.asarray(labels, dtype=int) * N_CLASSES + np.asarray(preds, dtype=int)
    return np.bincount(cells, minlength=N_CLASSES * N_CLASSES).reshape(
        N_CLASSES, N_CLASSES)


def binary_metrics(counts: np.ndarray) -> BinaryMetrics:
    """The binary view of a count matrix: its four blocks."""
    tp = int(counts[:INTERICTAL, :INTERICTAL].sum())
    fn = int(counts[:INTERICTAL, INTERICTAL:].sum())
    fp = int(counts[INTERICTAL:, :INTERICTAL].sum())
    tn = int(counts[INTERICTAL:, INTERICTAL:].sum())
    return BinaryMetrics(tp=tp, fp=fp, tn=tn, fn=fn,
                         sensitivity=_ratio(tp, tp + fn),
                         specificity=_ratio(tn, tn + fp),
                         accuracy=_ratio(tp + tn, tp + fp + tn + fn))


def trend_values(counts: np.ndarray) -> dict[str, Optional[float]]:
    """Binary recall per pre-seizure bin, keyed by bin name, farthest first."""
    return {cls.name.lower(): _ratio(int(counts[cls, :INTERICTAL].sum()),
                                     int(counts[cls].sum()))
            for cls in TREND_ORDER}


def collapse_binary(preds: Sequence[int], labels: Sequence[int]) -> BinaryMetrics:
    return binary_metrics(confusion(preds, labels))


def accuracy_trend(
    preds: Sequence[int], labels: Sequence[int]
) -> dict[str, Optional[float]]:
    return trend_values(confusion(preds, labels))


def normalized(counts: np.ndarray) -> np.ndarray:
    """Row-normalized matrix; rows with no samples become NaN."""
    totals = counts.sum(axis=1, keepdims=True).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = counts / totals
    out[totals[:, 0] == 0, :] = np.nan
    return out


def score(counts: np.ndarray) -> dict:
    """What averaging reads from one fold: the normalized matrix and the
    binary and trend ratios.  `mean_score` returns the same shape."""
    b = binary_metrics(counts)
    return {"confusion_normalized": normalized(counts),
            "binary": {k: getattr(b, k) for k in RATES},
            "trend": trend_values(counts)}


def _mean_defined(values: list[Optional[float]]) -> Optional[float]:
    """Mean of the defined values; sorted first so the result does not depend
    on the order items were aggregated in."""
    defined = sorted(v for v in values if v is not None)
    return float(np.mean(defined)) if defined else None


def mean_score(scores: Sequence[dict]) -> dict:
    """Unweighted mean of scores, for either averaging level.

    Each ratio is the mean of its defined values.  Confusion cells take a
    NaN-skipping mean over the stack, in the given order; a cell undefined
    in every score stays NaN.
    """
    if not scores:
        raise ValueError("nothing to average")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Mean of empty slice")
        conf = np.nanmean(np.stack([s["confusion_normalized"] for s in scores]),
                          axis=0)
    return {"confusion_normalized": conf,
            **{part: {k: _mean_defined([s[part][k] for s in scores])
                      for k in scores[0][part]}
               for part in ("binary", "trend")}}


# ---------------------------------------------------------------------------
# Cross-validation driver


@dataclass
class FoldResult:
    split: FoldSplit
    confusion: dict[str, np.ndarray]  # variant -> 5x5 counts on the test set
    models: dict[Sensor, SensorModel]
    reports: dict[Sensor, TrainReport]
    combiner_params: CombinerParams


@dataclass
class PatientResult:
    patient_id: str
    folds: list[FoldResult]


def report_document(patients: Sequence[PatientResult]) -> dict:
    """The report.json document.

    Per fold and variant: the counts with their binary and trend views.  Per
    variant, `aggregate`: each patient's mean over its folds, then the mean
    across patients; `binary.n` is the number of patients.
    """
    doc = {"patients": {}, "aggregate": {}}
    for pr in patients:
        doc["patients"][pr.patient_id] = {"folds": {
            str(f.split.fold_index): {
                v: {"confusion": f.confusion[v].tolist(),
                    "binary": asdict(binary_metrics(f.confusion[v])),
                    "trend": trend_values(f.confusion[v])}
                for v in VARIANTS}
            for f in pr.folds}}
    for v in VARIANTS:
        agg = mean_score([mean_score([score(f.confusion[v]) for f in pr.folds])
                          for pr in patients])
        agg["confusion_normalized"] = [[None if np.isnan(x) else float(x)
                                        for x in row]
                                       for row in agg["confusion_normalized"]]
        agg["binary"]["n"] = len(patients)
        doc["aggregate"][v] = agg
    return doc


def paired_windows(
    eeg_rec: Recording, ecg_rec: Recording, windowing: WindowingConfig
) -> tuple[dict[int, LabeledWindow], dict[int, LabeledWindow]]:
    """Window both recordings of a patient, each keyed by window index.

    The two recordings must share one timeline: patient id, sample rate,
    sample count and annotations.  Then their windowings align index for
    index and label for label; ValueError naming the patient if they do not.
    """
    timelines = [(r.patient_id, r.sample_rate_hz, r.samples.shape[1], r.annotations)
                 for r in (eeg_rec, ecg_rec)]
    differ = [name for name, a, b in zip(
        ("patient ids", "sample rates", "sample counts", "annotations"),
        *timelines) if a != b]
    if differ:
        raise ValueError(f"EEG and ECG recordings of patient {eeg_rec.patient_id!r} "
                         f"do not align: their {', '.join(differ)} differ")
    step = (windowing.window_seconds, windowing.stride_seconds)
    return tuple({w.window_index: w for w in segment(rec, *step)}
                 for rec in (eeg_rec, ecg_rec))


def _predictions(
    eeg_model: SensorModel,
    ecg_model: SensorModel,
    combiner_params: CombinerParams,
    eeg_windows: list[LabeledWindow],
    ecg_windows: list[LabeledWindow],
) -> dict[str, np.ndarray]:
    """Each variant's class per window as an int array, and the fused quantized
    rows, which the simulator replays, as `eeg_rows` and `ecg_rows`, from one
    batched pass.  Argmax breaks ties toward the lowest class as `predict`
    does, and `lr_forward` gives a row the same bits alone or in a batch, so
    the combined classes equal the gateway's per-window decisions."""
    p_eeg = model_forward(eeg_model, stack_windows(eeg_windows)[0])
    p_ecg = model_forward(ecg_model, stack_windows(ecg_windows)[0])
    rows = {"eeg_rows": quantize4(p_eeg), "ecg_rows": quantize4(p_ecg)}
    fused = lr_forward(build_input(*rows.values()), combiner_params)
    return {"eeg": p_eeg.argmax(axis=1), "ecg": p_ecg.argmax(axis=1),
            "combined": fused.argmax(axis=1), **rows}


def split_seed(cfg: ExperimentConfig, p_idx: int) -> int:
    """The `kfold_split` seed of the patient at position `p_idx` of the dataset."""
    return cfg.seed + 97 * p_idx


def run_patient_fold(
    eeg_windows: dict[int, LabeledWindow],
    ecg_windows: dict[int, LabeledWindow],
    split: FoldSplit,
    cfg: ExperimentConfig,
    p_idx: int,
) -> FoldResult:
    """Train both sensor models and the combiner on one split; score the test set.

    One pass per sensor stacks its training and validation windows once,
    trains its model (model and shuffle seeded with the fold's seed for the
    patient at position `p_idx` of the dataset, plus one for ECG) and forwards
    its training windows into the combiner's fit set.  Fusion and test labels
    are the EEG windows'.
    """
    fold_seed = cfg.seed + 1000 * p_idx + 10 * split.fold_index
    models, reports, fit = {}, {}, {}
    for offset, (sensor, windows) in enumerate(((Sensor.EEG, eeg_windows),
                                                (Sensor.ECG, ecg_windows))):
        xs, ys = stack_windows([windows[i] for i in split.train_ids])
        xv, yv = stack_windows([windows[i] for i in split.val_ids])
        model = models[sensor] = build_model(
            sensor, *xs.shape[1:], kernel_len=KERNEL_LEN,
            pool_size=POOL_SIZES[sensor], hidden=cfg.model.hidden,
            seed=fold_seed + offset)
        _, reports[sensor] = train(model, xs, ys, xv, yv, cfg.training)
        fit[sensor] = quantize4(model_forward(model, xs)), ys

    (p_eeg, labels), (p_ecg, _) = fit[Sensor.EEG], fit[Sensor.ECG]
    combiner_params = lr_train(build_input(p_eeg, p_ecg), labels, cfg.combiner)
    test_eeg = [eeg_windows[i] for i in split.test_ids]
    preds = _predictions(models[Sensor.EEG], models[Sensor.ECG], combiner_params,
                         test_eeg, [ecg_windows[i] for i in split.test_ids])
    counts = {name: confusion(preds[name], [w.label for w in test_eeg])
              for name in VARIANTS}
    return FoldResult(split, counts, models, reports, combiner_params)


def run_cross_validation(
    recordings: Iterable[tuple[Recording, Recording]],
    cfg: ExperimentConfig,
) -> list[PatientResult]:
    """Train and evaluate all three predictor variants per patient and fold.

    `recordings` yields (EEG, ECG) pairs, one per patient in dataset order,
    each patient id once.  It is walked once and each pair is dropped once
    windowed, so a generator holds one patient's recordings at a time.
    """
    patients = []
    for eeg_rec, ecg_rec in recordings:
        pid, p_idx = eeg_rec.patient_id, len(patients)
        if any(pr.patient_id == pid for pr in patients):
            raise ValueError(f"patient ids must be unique; {pid!r} is repeated")
        eeg_windows, ecg_windows = paired_windows(eeg_rec, ecg_rec, cfg.windowing)
        del eeg_rec, ecg_rec  # the windows are copies; free the samples to train
        try:
            splits = kfold_split(list(eeg_windows),
                                 [w.label for w in eeg_windows.values()],
                                 cfg.folds, seed=split_seed(cfg, p_idx))
            folds = [run_patient_fold(eeg_windows, ecg_windows, split, cfg, p_idx)
                     for split in splits]
        except Exception as exc:
            raise RuntimeError(f"cross-validation failed for patient "
                               f"{pid!r}: {exc}") from exc
        del eeg_windows, ecg_windows  # before the next pair is read
        patients.append(PatientResult(pid, folds))
    if not patients:
        raise ValueError("need at least one patient's recordings")
    return patients
