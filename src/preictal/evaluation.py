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
from typing import Optional, Sequence

import numpy as np

from .combiner import CombinerParams, build_input, lr_forward, lr_train, predict, quantize4
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
)
from .nn.losses import FocalLossConfig, inverse_frequency_alpha
from .nn.model import SensorModel, build_model, model_forward
from .nn.train import TrainReport, stack_windows, train

TREND_ORDER = (
    LabelClass.PRE_45_60,
    LabelClass.PRE_30_45,
    LabelClass.PRE_15_30,
    LabelClass.PRE_0_15,
)
VARIANTS = ("eeg", "ecg", "combined")
RATES = ("sensitivity", "specificity", "accuracy")
INTERICTAL = int(LabelClass.INTERICTAL)  # classes below it are pre-seizure


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
    fold_index: int
    confusion: dict[str, np.ndarray]  # variant -> 5x5 counts on the test set
    eeg_model: SensorModel
    ecg_model: SensorModel
    combiner_params: CombinerParams
    eeg_report: TrainReport
    ecg_report: TrainReport


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
            str(f.fold_index): {
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

    The two recordings share annotations, so their stride-grid windowings
    must align index for index; ValueError if they do not.
    """
    step = (windowing.window_seconds, windowing.stride_seconds)
    eeg_windows = {w.window_index: w for w in segment(eeg_rec, *step)}
    ecg_windows = {w.window_index: w for w in segment(ecg_rec, *step)}
    if set(eeg_windows) != set(ecg_windows):
        raise ValueError("EEG and ECG windowings do not align")
    return eeg_windows, ecg_windows


def _predictions(
    eeg_model: SensorModel,
    ecg_model: SensorModel,
    combiner_params: CombinerParams,
    eeg_windows: list[LabeledWindow],
    ecg_windows: list[LabeledWindow],
) -> dict[str, list[LabelClass]]:
    p_eeg = model_forward(eeg_model, stack_windows(eeg_windows)[0])
    p_ecg = model_forward(ecg_model, stack_windows(ecg_windows)[0])
    combined = [
        predict(lr_forward(build_input(quantize4(pe), quantize4(pc)),
                           combiner_params))
        for pe, pc in zip(p_eeg, p_ecg)
    ]
    return {"eeg": [predict(p) for p in p_eeg],
            "ecg": [predict(p) for p in p_ecg],
            "combined": combined}


def run_patient_fold(
    eeg_windows: dict[int, LabeledWindow],
    ecg_windows: dict[int, LabeledWindow],
    split: FoldSplit,
    cfg: ExperimentConfig,
    fold_seed: int,
) -> FoldResult:
    """Train both sensor models and the combiner on one split; score the test set.

    The EEG model and its training shuffle are seeded with `fold_seed`, the
    ECG ones with `fold_seed + 1`.
    """
    def pick(ids, table):
        return [table[i] for i in ids]

    trained = []
    for offset, (sensor, windows, pool_size) in enumerate((
            (Sensor.EEG, eeg_windows, cfg.model.pool_size),
            (Sensor.ECG, ecg_windows, cfg.model.ecg_pool_size))):
        shape = next(iter(windows.values())).data.shape
        model = build_model(
            sensor=sensor, in_channels=shape[0], window_samples=shape[1],
            kernel_len=cfg.model.kernel_len, pool_size=pool_size,
            hidden=cfg.model.hidden, seed=fold_seed + offset,
        )
        trained.append(train(
            model, pick(split.train_ids, windows), pick(split.val_ids, windows),
            loss_cfg=_loss_cfg(cfg.model.focal_gamma, split, windows),
            train_cfg=cfg.training,
        ))
    (eeg_model, eeg_report), (ecg_model, ecg_report) = trained

    xe, ye = stack_windows(pick(split.train_ids, eeg_windows))
    xc, _ = stack_windows(pick(split.train_ids, ecg_windows))
    p_eeg = quantize4(model_forward(eeg_model, xe))
    p_ecg = quantize4(model_forward(ecg_model, xc))
    fusion_set = [(np.concatenate([pe, pc]), int(y))
                  for pe, pc, y in zip(p_eeg, p_ecg, ye)]
    combiner_params = lr_train(fusion_set, cfg.combiner)

    test_eeg = pick(split.test_ids, eeg_windows)
    test_ecg = pick(split.test_ids, ecg_windows)
    labels = [w.label for w in test_eeg]
    preds = _predictions(eeg_model, ecg_model, combiner_params, test_eeg, test_ecg)
    counts = {name: confusion(p, labels) for name, p in preds.items()}
    return FoldResult(split.fold_index, counts, eeg_model, ecg_model,
                      combiner_params, eeg_report, ecg_report)


def _loss_cfg(gamma: float, split: FoldSplit, windows: dict[int, LabeledWindow]):
    ys = np.array([int(windows[i].label) for i in split.train_ids])
    return FocalLossConfig(gamma=gamma, alpha=inverse_frequency_alpha(ys))


def run_cross_validation(
    recordings: list[tuple[Recording, Recording]],
    cfg: ExperimentConfig,
) -> list[PatientResult]:
    """Train and evaluate all three predictor variants per patient and fold.

    `recordings` holds (EEG, ECG) pairs, one per synthetic patient, each
    patient id once.  Folds are computed once per patient on the pair's
    shared window indices.
    """
    if not recordings:
        raise ValueError("need at least one patient's recordings")
    ids = [eeg_rec.patient_id for eeg_rec, _ in recordings]
    if len(set(ids)) != len(ids):
        raise ValueError(f"patient ids must be unique, got {ids}")
    patients = []
    for p_idx, (eeg_rec, ecg_rec) in enumerate(recordings):
        if eeg_rec.patient_id != ecg_rec.patient_id:
            raise ValueError("EEG/ECG pair must belong to one patient")
        try:
            eeg_windows, ecg_windows = paired_windows(eeg_rec, ecg_rec,
                                                      cfg.windowing)
            splits = kfold_split(list(eeg_windows.values()), cfg.folds,
                                 seed=cfg.seed + 97 * p_idx)
            folds = []
            for split in splits:
                fold_seed = cfg.seed + 1000 * p_idx + 10 * split.fold_index
                folds.append(run_patient_fold(
                    eeg_windows, ecg_windows, split, cfg, fold_seed))
        except Exception as exc:
            raise RuntimeError(
                f"cross-validation failed for patient {eeg_rec.patient_id!r}"
            ) from exc
        patients.append(PatientResult(eeg_rec.patient_id, folds))
    return patients
