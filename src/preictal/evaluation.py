"""Evaluation artifacts: confusion matrices, binary collapse at the 60-minute
boundary, per-bin accuracy trend, and patient/fold aggregation.

The binary view calls everything under 60 minutes to onset pre-seizure
(classes 0-3) and the interictal class non-seizure.  Undefined ratios (empty
denominators) are reported as None/NaN and excluded from averages, never
silently zeroed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
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


@dataclass
class ConfusionMatrix:
    """5x5 counts; rows are true classes, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"counts must be {N_CLASSES}x{N_CLASSES}")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    def normalized(self) -> np.ndarray:
        """Row-normalized matrix; rows with no samples become NaN."""
        totals = self.counts.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self.counts / totals
        out[totals[:, 0] == 0, :] = np.nan
        return out

    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


@dataclass
class BinaryMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: Optional[float]
    specificity: Optional[float]
    accuracy: Optional[float]


@dataclass
class TrendReport:
    """Binary recall per pre-seizure bin, farthest from onset first."""

    accuracy: dict[LabelClass, Optional[float]]

    def values(self) -> list[Optional[float]]:
        return [self.accuracy[c] for c in TREND_ORDER]


def _check_pairs(preds: Sequence, labels: Sequence) -> None:
    if len(preds) != len(labels):
        raise ValueError(f"got {len(preds)} predictions for {len(labels)} labels")
    if len(preds) == 0:
        raise ValueError("need at least one (prediction, label) pair")


def confusion(preds: Sequence[LabelClass], labels: Sequence[LabelClass]) -> ConfusionMatrix:
    _check_pairs(preds, labels)
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    for p, t in zip(preds, labels):
        counts[int(t), int(p)] += 1
    return ConfusionMatrix(counts)


def collapse_binary(
    preds: Sequence[LabelClass], labels: Sequence[LabelClass]
) -> BinaryMetrics:
    _check_pairs(preds, labels)
    preds_pos = np.array([int(p) for p in preds]) < int(LabelClass.INTERICTAL)
    labels_pos = np.array([int(t) for t in labels]) < int(LabelClass.INTERICTAL)
    tp = int(np.sum(preds_pos & labels_pos))
    fp = int(np.sum(preds_pos & ~labels_pos))
    tn = int(np.sum(~preds_pos & ~labels_pos))
    fn = int(np.sum(~preds_pos & labels_pos))
    return BinaryMetrics(
        tp=tp, fp=fp, tn=tn, fn=fn,
        sensitivity=tp / (tp + fn) if tp + fn > 0 else None,
        specificity=tn / (tn + fp) if tn + fp > 0 else None,
        accuracy=(tp + tn) / len(preds),
    )


def accuracy_trend(
    preds: Sequence[LabelClass], labels: Sequence[LabelClass]
) -> TrendReport:
    """Fraction of each pre-seizure bin detected as pre-seizure (binary recall)."""
    _check_pairs(preds, labels)
    preds_pos = np.array([int(p) for p in preds]) < int(LabelClass.INTERICTAL)
    labels_arr = np.array([int(t) for t in labels])
    out: dict[LabelClass, Optional[float]] = {}
    for cls in TREND_ORDER:
        mask = labels_arr == int(cls)
        out[cls] = float(preds_pos[mask].mean()) if mask.any() else None
    return TrendReport(out)


@dataclass
class MeanBinaryMetrics:
    sensitivity: Optional[float]
    specificity: Optional[float]
    accuracy: Optional[float]
    n: int


def _mean_defined(values: list[Optional[float]]) -> Optional[float]:
    """Mean of the defined values; sorted first so the result does not depend
    on the order items were aggregated in."""
    defined = sorted(v for v in values if v is not None)
    return float(np.mean(defined)) if defined else None


def aggregate(items: Sequence):
    """Unweighted mean across patients/folds.

    Confusion matrices are averaged in normalized form, cell-wise, skipping
    NaN rows; BinaryMetrics and TrendReports average each defined value.
    """
    items = list(items)
    if not items:
        raise ValueError("nothing to aggregate")
    first = items[0]
    if isinstance(first, ConfusionMatrix):
        stack = np.stack([m.normalized() for m in items])
        return _nanmean_quiet(stack)
    if isinstance(first, BinaryMetrics) or isinstance(first, MeanBinaryMetrics):
        return MeanBinaryMetrics(
            sensitivity=_mean_defined([m.sensitivity for m in items]),
            specificity=_mean_defined([m.specificity for m in items]),
            accuracy=_mean_defined([m.accuracy for m in items]),
            n=len(items),
        )
    if isinstance(first, TrendReport):
        return TrendReport({
            cls: _mean_defined([t.accuracy[cls] for t in items])
            for cls in TREND_ORDER
        })
    if isinstance(first, np.ndarray):
        return _nanmean_quiet(np.stack(list(items)))
    raise TypeError(f"cannot aggregate {type(first).__name__}")


def _nanmean_quiet(stack: np.ndarray) -> np.ndarray:
    """Cell-wise nanmean; cells undefined everywhere stay NaN, silently."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Mean of empty slice")
        return np.nanmean(stack, axis=0)


# ---------------------------------------------------------------------------
# Cross-validation driver


@dataclass
class VariantResult:
    confusion: ConfusionMatrix
    binary: BinaryMetrics
    trend: TrendReport


@dataclass
class FoldResult:
    fold_index: int
    variants: dict[str, VariantResult]
    eeg_model: SensorModel
    ecg_model: SensorModel
    combiner_params: CombinerParams
    eeg_report: TrainReport
    ecg_report: TrainReport


@dataclass
class PatientResult:
    patient_id: str
    folds: list[FoldResult]


@dataclass
class CrossValidationReport:
    patients: list[PatientResult]

    def aggregate_variant(self, variant: str):
        """Per-patient means over folds first, then the mean across patients."""
        per_patient_conf = []
        per_patient_bin = []
        per_patient_trend = []
        for pr in self.patients:
            per_patient_conf.append(
                aggregate([f.variants[variant].confusion for f in pr.folds]))
            per_patient_bin.append(
                aggregate([f.variants[variant].binary for f in pr.folds]))
            per_patient_trend.append(
                aggregate([f.variants[variant].trend for f in pr.folds]))
        return (
            aggregate(per_patient_conf),
            aggregate(per_patient_bin),
            aggregate(per_patient_trend),
        )


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
            train_cfg=replace(cfg.training, seed=fold_seed + offset),
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
    variants = {
        name: VariantResult(
            confusion=confusion(p, labels),
            binary=collapse_binary(p, labels),
            trend=accuracy_trend(p, labels),
        )
        for name, p in preds.items()
    }
    return FoldResult(split.fold_index, variants, eeg_model, ecg_model,
                      combiner_params, eeg_report, ecg_report)


def _loss_cfg(gamma: float, split: FoldSplit, windows: dict[int, LabeledWindow]):
    ys = np.array([int(windows[i].label) for i in split.train_ids])
    return FocalLossConfig(gamma=gamma, alpha=inverse_frequency_alpha(ys))


def run_cross_validation(
    recordings: list[tuple[Recording, Recording]],
    cfg: ExperimentConfig,
) -> CrossValidationReport:
    """Train and evaluate all three predictor variants per patient and fold.

    `recordings` holds (EEG, ECG) pairs, one per synthetic patient.  Folds
    are computed once per patient on the pair's shared window indices.
    """
    if not recordings:
        raise ValueError("need at least one patient's recordings")
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
    return CrossValidationReport(patients)
