"""Command-line driver: gen-data, train, cross-validate, simulate, report.

Every command but report takes --config (JSON overrides), --seed (overrides
the config seed), and --out; the fully resolved config is echoed into the
output directory, and all outputs are deterministic functions of it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .bansim import latency_report, run_simulation, write_trace_jsonl
from .combiner import load_combiner, save_combiner
from .config import ExperimentConfig, load_config, write_config
from .dataset import Recording, kfold_split, load_recording, save_recording, synth_generate

# Not called in this module.  perfbench/spans.py traces `segment` under
# preictal.cli, so the name must stay importable here.
from .dataset import segment  # noqa: F401
from .evaluation import (
    RATES,
    TREND_ORDER,
    VARIANTS,
    PatientResult,
    _predictions,
    binary_metrics,
    paired_windows,
    report_document,
    run_cross_validation,
    run_patient_fold,
)
from .nn.model import load_model, save_model
from .nn.train import write_train_report

DATASET_INDEX = "dataset.json"
MODEL_FILES = {"eeg": "eeg_model.bin", "ecg": "ecg_model.bin",
               "combiner": "combiner.json"}


# ---------------------------------------------------------------------------
# Shared plumbing


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_json(path: Path, what: str, extract):
    """`extract` applied to the file's JSON; ValueError naming the file if it
    does not parse or lacks what `extract` reads."""
    try:
        return extract(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not {what} "
                         f"({type(exc).__name__}: {exc})") from exc


def _load_dataset(data_dir: Path | str) -> list[tuple[Recording, Recording]]:
    index_path = Path(data_dir) / DATASET_INDEX
    if not index_path.exists():
        raise FileNotFoundError(f"expected dataset index at {index_path}; "
                                f"run gen-data first")
    files = _read_json(index_path, "a dataset index", lambda index: [
        (entry["eeg"], entry["ecg"]) for entry in index["patients"]])
    return [(load_recording(index_path.parent / eeg),
             load_recording(index_path.parent / ecg)) for eeg, ecg in files]


def _pick_patient(pairs, patient_id):
    if patient_id is None:
        return pairs[0]
    for pair in pairs:
        if pair[0].patient_id == patient_id:
            return pair
    known = ", ".join(p[0].patient_id for p in pairs)
    raise ValueError(f"patient {patient_id!r} not in dataset (known: {known})")


def _fnum(value) -> str:
    """One textual form for numbers in CSVs; matches the JSON serialization."""
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# Report files


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report_files(patients: list[PatientResult], out: Path) -> dict:
    """Write report.json and the three CSVs walked from it; returns the
    document."""
    doc = report_document(patients)
    (out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    folds = [(pid, fold, name, scores)
             for pid, patient in doc["patients"].items()
             for fold, variants in patient["folds"].items()
             for name, scores in variants.items()]
    _write_csv(out / "confusion.csv",
               ["patient", "fold", "variant", "row", "col", "count"],
               ([pid, fold, name, r, c, count]
                for pid, fold, name, scores in folds
                for r, row in enumerate(scores["confusion"])
                for c, count in enumerate(row)))
    _write_csv(out / "metrics.csv", ["patient", "fold", "variant", *RATES],
               ([pid, fold, name, *(_fnum(scores["binary"][k]) for k in RATES)]
                for pid, fold, name, scores in folds))
    _write_csv(out / "trend.csv", ["variant", "bin", "accuracy"],
               ([name, key, _fnum(value)]
                for name in VARIANTS
                for key, value in doc["aggregate"][name]["trend"].items()))
    return doc


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    write_config(cfg, out / "config.json")
    entries = []
    for i in range(cfg.patients):
        pid = f"p{i:02d}"
        eeg, ecg = synth_generate(cfg.data, seed=cfg.seed + i, patient_id=pid)
        save_recording(eeg, out, f"{pid}_eeg")
        save_recording(ecg, out, f"{pid}_ecg")
        entries.append({"id": pid, "eeg": f"{pid}_eeg.json",
                        "ecg": f"{pid}_ecg.json"})
        print(f"wrote {pid}: {eeg.channels}-channel EEG + ECG, "
              f"{eeg.samples.shape[1]} samples at {eeg.sample_rate_hz} Hz, "
              f"{len(eeg.annotations)} seizures")
    (out / DATASET_INDEX).write_text(
        json.dumps({"seed": cfg.seed, "patients": entries},
                   indent=2, sort_keys=True) + "\n")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    write_config(cfg, out / "config.json")
    eeg_rec, ecg_rec = _pick_patient(_load_dataset(args.data), args.patient)
    pid = eeg_rec.patient_id
    eeg_w, ecg_w = paired_windows(eeg_rec, ecg_rec, cfg.windowing)
    split = kfold_split(list(eeg_w.values()), cfg.folds, seed=cfg.seed)[0]
    print(f"patient {pid}: {len(eeg_w)} windows "
          f"({len(split.train_ids)} train / {len(split.val_ids)} val / "
          f"{len(split.test_ids)} held out)")
    result = run_patient_fold(eeg_w, ecg_w, split, cfg, fold_seed=cfg.seed)
    save_model(result.eeg_model, out / MODEL_FILES["eeg"])
    save_model(result.ecg_model, out / MODEL_FILES["ecg"])
    save_combiner(result.combiner_params, out / MODEL_FILES["combiner"])
    write_train_report(result.eeg_report, out / "eeg_train.csv")
    write_train_report(result.ecg_report, out / "ecg_train.csv")
    (out / "holdout.json").write_text(json.dumps(
        {"patient": pid, "window_ids": split.test_ids}, sort_keys=True) + "\n")
    for name in VARIANTS:
        b = binary_metrics(result.confusion[name])
        print(f"  {name:>8}: sensitivity={_fnum(b.sensitivity)} "
              f"specificity={_fnum(b.specificity)} accuracy={_fnum(b.accuracy)} "
              f"on the held-out fold")
    return 0


def cmd_cross_validate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    write_config(cfg, out / "config.json")
    pairs = _load_dataset(args.data)
    patients = run_cross_validation(pairs, cfg)
    doc = _write_report_files(patients, out)
    models_dir = out / "models"
    models_dir.mkdir(exist_ok=True)
    for pr in patients:
        for fr in pr.folds:
            stem = f"{pr.patient_id}_fold{fr.fold_index}"
            save_model(fr.eeg_model, models_dir / f"{stem}_eeg.bin")
            save_model(fr.ecg_model, models_dir / f"{stem}_ecg.bin")
            save_combiner(fr.combiner_params, models_dir / f"{stem}_combiner.json")
            write_train_report(fr.eeg_report, models_dir / f"{stem}_eeg_train.csv")
            write_train_report(fr.ecg_report, models_dir / f"{stem}_ecg_train.csv")
    for name in VARIANTS:
        b = doc["aggregate"][name]["binary"]
        print(f"{name:>8}: sensitivity={_fnum(b['sensitivity'])} "
              f"specificity={_fnum(b['specificity'])} "
              f"accuracy={_fnum(b['accuracy'])}")
    print(f"report written to {out / 'report.json'}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    write_config(cfg, out / "config.json")
    model_dir = Path(args.models)
    paths = {k: model_dir / v for k, v in MODEL_FILES.items()}
    for k, p in paths.items():
        if not p.exists():
            raise FileNotFoundError(f"expected {k} weights at {p}; run train first")
    eeg_model = load_model(paths["eeg"])
    ecg_model = load_model(paths["ecg"])
    combiner_params = load_combiner(paths["combiner"])

    holdout_path = model_dir / "holdout.json"
    held_patient, held_ids = None, []
    if holdout_path.exists():
        held_patient, held_ids = _read_json(
            holdout_path, "a held-out window list",
            lambda h: (h["patient"], sorted(h["window_ids"])))
    eeg_rec, ecg_rec = _pick_patient(_load_dataset(args.data),
                                     args.patient or held_patient)
    eeg_w, ecg_w = paired_windows(eeg_rec, ecg_rec, cfg.windowing)
    ids = sorted(eeg_w)
    if held_patient == eeg_rec.patient_id and not args.all_windows:
        ids = [i for i in held_ids if i in eeg_w]
    pairs = [(eeg_w[i], ecg_w[i]) for i in ids]

    trace = run_simulation(cfg.sim, eeg_model, ecg_model, combiner_params, pairs)
    write_trace_jsonl(trace, out / "trace.jsonl")

    sim_pairs = pairs[:trace.n_windows]
    offline = _predictions(eeg_model, ecg_model, combiner_params,
                           [p[0] for p in sim_pairs], [p[1] for p in sim_pairs])
    equivalence = all(
        trace.decisions[w] == offline["combined"][w]
        for w in trace.decisions
    )
    rep = latency_report(trace)
    summary = {**dataclasses.asdict(rep), "equivalence": equivalence}
    (out / "latency.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"simulated {rep.n_windows} windows on patient {eeg_rec.patient_id}: "
          f"{rep.n_fused} fused, {rep.n_dropped} dropped, "
          f"{rep.stimulation_count} stimulation commands")
    print(f"mean latency {rep.mean_latency_s} s, equivalence={equivalence}")
    return 0


def _summary_lines(doc: dict) -> list[str]:
    lines = []
    for name in VARIANTS:
        agg = doc["aggregate"][name]
        b = agg["binary"]
        lines.append(f"{name}: sensitivity={b['sensitivity']} "
                     f"specificity={b['specificity']} accuracy={b['accuracy']}")
        trend = agg["trend"]
        order = [cls.name.lower() for cls in TREND_ORDER]
        lines.append("  trend " + " -> ".join(f"{k}={trend[k]}" for k in order))
    return lines


def cmd_report(args) -> int:
    report_path = Path(args.report_dir) / "report.json"
    if not report_path.exists():
        raise FileNotFoundError(f"expected cross-validation report at {report_path}")
    text = "\n".join(_read_json(report_path, "a cross-validation report",
                                _summary_lines))
    print(text)
    if args.out:
        out = _out_dir(args)
        (out / "summary.txt").write_text(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preictal",
        description="Progressive seizure-prediction pipeline: synthetic "
                    "biosignals, per-sensor CNNs, probability fusion, and a "
                    "closed-loop network simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON config file (partial overrides)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("gen-data", help="synthesize patient recordings")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train both sensor models and the "
                                     "combiner for one patient")
    common(p)
    p.add_argument("--data", required=True, help="directory from gen-data")
    p.add_argument("--patient", help="patient id (default: first)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cross-validate", help="k-fold evaluation of all "
                                              "three predictor variants")
    common(p)
    p.add_argument("--data", required=True, help="directory from gen-data")
    p.set_defaults(func=cmd_cross_validate)

    p = sub.add_parser("simulate", help="closed-loop network simulation over "
                                        "held-out windows")
    common(p)
    p.add_argument("--data", required=True, help="directory from gen-data")
    p.add_argument("--models", required=True, help="directory from train")
    p.add_argument("--patient", help="patient id (default: the trained one)")
    p.add_argument("--all-windows", action="store_true",
                   help="simulate every window, not just the held-out ones")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="print the aggregate cross-validation "
                                      "summary")
    p.add_argument("--report-dir", required=True,
                   help="directory from cross-validate")
    p.add_argument("--out", help="also write summary.txt here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface one clean line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
