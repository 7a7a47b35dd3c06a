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
from .config import ExperimentConfig
from .dataset import (N_CLASSES, FoldSplit, LabelClass, LabeledWindow, Sensor, Windows,
                      kfold_split)
from .dataset import segment  # noqa: F401  (perfbench/spans.py traces it here)
from .nn.model import FORWARD_CHUNK, SensorModel, build_model, model_forward
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


def predictions(
    eeg_model: SensorModel,
    ecg_model: SensorModel,
    combiner_params: CombinerParams,
    eeg_x: np.ndarray,
    ecg_x: np.ndarray,
) -> dict[str, np.ndarray]:
    """Each variant's class per window of the blocks `eeg_x` and `ecg_x` as an
    int array, and the fused quantized rows, which the simulator replays, as
    `eeg_rows` and `ecg_rows`, from one batched pass.  Argmax breaks ties
    toward the lowest class (the nearest onset), and `lr_forward` gives a row
    the same bits alone or in a batch, so the combined classes equal the
    gateway's per-window decisions."""
    p_eeg = model_forward(eeg_model, eeg_x)
    p_ecg = model_forward(ecg_model, ecg_x)
    rows = {"eeg_rows": quantize4(p_eeg), "ecg_rows": quantize4(p_ecg)}
    fused = lr_forward(build_input(*rows.values()), combiner_params)
    return {"eeg": p_eeg.argmax(axis=1), "ecg": p_ecg.argmax(axis=1),
            "combined": fused.argmax(axis=1), **rows}


def _predictions(eeg_model, ecg_model, combiner_params,
                 eeg_windows: list[LabeledWindow], ecg_windows: list[LabeledWindow]):
    """`predictions` of window objects; perfbench's stream-infer calls it."""
    blocks = (np.stack([w.data for w in ws]) for ws in (eeg_windows, ecg_windows))
    return predictions(eeg_model, ecg_model, combiner_params, *blocks)


def split_seed(cfg: ExperimentConfig, p_idx: int) -> int:
    """The `kfold_split` seed of the patient at position `p_idx` of the dataset."""
    return cfg.seed + 97 * p_idx


def _fit_block(windows: Windows, pos: np.ndarray) -> np.ndarray:
    """The windows at positions `pos` of the record as the float32
    channel-major [C x N x T] block `train` steps on, seen as [N x C x T];
    gathered FORWARD_CHUNK windows at a time, so no float64 copy of them
    exists."""
    n, (_, channels, samples) = len(pos), windows.data.shape
    block = np.empty((channels, n, samples), dtype=np.float32)
    for i in range(0, n, FORWARD_CHUNK):
        chunk = windows.data[pos[i:i + FORWARD_CHUNK]]
        block[:, i:i + len(chunk)] = chunk.transpose(1, 0, 2)
    return block.transpose(1, 0, 2)


def _readout(model: SensorModel, windows: Windows, pos: np.ndarray) -> np.ndarray:
    """`model_forward` of the windows at positions `pos` of the record, read
    one FORWARD_CHUNK of windows at a time, at `model_forward`'s own chunk
    boundaries, so its bits are those of one call on all of them."""
    return np.concatenate([
        model_forward(model, windows.data[pos[i:i + FORWARD_CHUNK]])
        for i in range(0, len(pos), FORWARD_CHUNK)])


def run_patient_fold(
    eeg: Windows, ecg: Windows, split: FoldSplit, cfg: ExperimentConfig, p_idx: int
) -> FoldResult:
    """Train both sensor models and the combiner on one split; score the test set.

    One pass per sensor trains its model (model and shuffle seeded with the
    fold's seed for the patient at position `p_idx` of the dataset, plus one
    for ECG) on a float32 block of its training windows gathered from its
    record (`_fit_block`), validates on a copy of its validation windows,
    and reads its training windows out of the record again, a chunk at a
    time, into the combiner's fit set (`_readout`), so the fold holds no
    float64 copy of its training windows.  Fusion and test labels are the
    EEG windows'.
    """
    fold_seed = cfg.seed + 1000 * p_idx + 10 * split.fold_index
    models, reports, fit = {}, {}, {}
    for offset, (sensor, windows) in enumerate(((Sensor.EEG, eeg), (Sensor.ECG, ecg))):
        pos, val_w = windows.find(split.train_ids), windows.at(split.val_ids)
        model = models[sensor] = build_model(
            sensor, *windows.data.shape[1:], kernel_len=KERNEL_LEN,
            pool_size=POOL_SIZES[sensor], hidden=cfg.model.hidden,
            seed=fold_seed + offset)
        _, reports[sensor] = train(model, _fit_block(windows, pos), windows.label[pos],
                                   val_w.data, val_w.label, cfg.training)
        fit[sensor] = quantize4(_readout(model, windows, pos)), windows.label[pos]

    (p_eeg, labels), (p_ecg, _) = fit[Sensor.EEG], fit[Sensor.ECG]
    combiner_params = lr_train(build_input(p_eeg, p_ecg), labels, cfg.combiner)
    test_eeg, test_ecg = eeg.at(split.test_ids), ecg.at(split.test_ids)
    preds = predictions(models[Sensor.EEG], models[Sensor.ECG], combiner_params,
                        test_eeg.data, test_ecg.data)
    counts = {name: confusion(preds[name], test_eeg.label) for name in VARIANTS}
    return FoldResult(split, counts, models, reports, combiner_params)


def run_cross_validation(
    patients: Iterable[tuple[str, Windows, Windows]],
    cfg: ExperimentConfig,
) -> list[PatientResult]:
    """Train and evaluate all three predictor variants per patient and fold.

    `patients` yields (patient id, EEG windows, ECG windows), one per patient
    in dataset order, each id once; ValueError if a patient's two records do
    not hold the same ids and classes.  It is walked once and each patient's
    windows are dropped once scored, so a generator holds one patient's
    windows at a time.
    """
    results = []
    for pid, eeg, ecg in patients:
        p_idx = len(results)
        if any(pr.patient_id == pid for pr in results):
            raise ValueError(f"patient ids must be unique; {pid!r} is repeated")
        if not (np.array_equal(eeg.index, ecg.index)
                and np.array_equal(eeg.label, ecg.label)):
            raise ValueError(f"EEG and ECG windows of patient {pid!r} do not align")
        try:
            splits = kfold_split(eeg.index, eeg.label, cfg.folds,
                                 seed=split_seed(cfg, p_idx))
            folds = [run_patient_fold(eeg, ecg, split, cfg, p_idx) for split in splits]
        except Exception as exc:
            raise RuntimeError(f"cross-validation failed for patient "
                               f"{pid!r}: {exc}") from exc
        del eeg, ecg  # before the next patient is read
        results.append(PatientResult(pid, folds))
    if not results:
        raise ValueError("need at least one patient's windows")
    return results
