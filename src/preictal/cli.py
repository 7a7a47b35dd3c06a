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
from typing import Iterator

from .bansim import latency_report, run_simulation, write_trace_jsonl
from .combiner import load_combiner, save_combiner
from .config import ExperimentConfig, WindowingConfig, load_config, write_config
from .dataset import (Manifest, Sensor, Windows, cut_windows, kfold_split, read_manifest,
                      save_synth, window_timeline)
from .dataset import (  # noqa: F401  (perfbench/spans.py traces them)
    load_recording, save_recording, segment, synth_generate)
from .errors import read_json
from .evaluation import (
    RATES,
    TREND_ORDER,
    VARIANTS,
    FoldResult,
    PatientResult,
    _predictions,  # noqa: F401  (perfbench/spans.py traces it here)
    binary_metrics,
    predictions,
    report_document,
    run_cross_validation,
    run_patient_fold,
    split_seed,
)
from .nn.model import load_model, save_model
from .nn.train import write_train_report

DATASET_INDEX = "dataset.json"
# One fold's directory, as train and cross-validate write it and simulate reads it.
MODEL_FILES = {"eeg": "eeg_model.bin", "ecg": "ecg_model.bin",
               "combiner": "combiner.json", "eeg_train": "eeg_train.csv",
               "ecg_train": "ecg_train.csv", "holdout": "holdout.json"}


# ---------------------------------------------------------------------------
# Shared plumbing


def _resolve_run(args) -> tuple[ExperimentConfig, Path]:
    """The config, with --seed applied, and the --out directory it is echoed into."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out / "config.json")
    return cfg, out


def _read_pair(index_path: Path, pid: str, eeg: Path, ecg: Path) -> list[Manifest]:
    """An entry's EEG and ECG manifests, no sample read.  Each manifest's
    patient and sensor are held to the entry's id and the slot it is listed
    in, naming the index and the manifest, and the two timelines to each
    other, naming both manifests, so one window grid serves both."""
    missing = next((path for path in (eeg, ecg) if not path.is_file()), None)
    if missing:
        raise FileNotFoundError(f"{index_path} lists {missing}, which does not exist")
    manifests = [read_manifest(eeg), read_manifest(ecg)]
    for m, sensor in zip(manifests, (Sensor.EEG, Sensor.ECG)):
        if m.patient_id != pid:
            raise ValueError(f"{index_path} lists {m.path} under id {pid!r}, but that "
                             f"manifest records patient {m.patient_id!r}")
        if m.sensor is not sensor:
            raise ValueError(f"{index_path} lists {m.path} as patient {pid!r}'s "
                             f"{sensor.value} recording, but that manifest records "
                             f"{m.sensor.value}")
    timelines = [(m.sample_rate_hz, m.n_samples, m.annotations) for m in manifests]
    differ = [name for name, a, b in zip(
        ("sample rates", "sample counts", "annotations"), *timelines) if a != b]
    if differ:
        raise ValueError(f"{eeg} and {ecg} of patient {pid!r} do not align: "
                         f"their {', '.join(differ)} differ")
    return manifests


def _patient_id(pid) -> str:
    """A patient id read from a file; ValueError if it is not a string."""
    if not isinstance(pid, str):
        raise ValueError(f"patient id {pid!r} is not a string")
    return pid


def _patients(data_dir: Path | str, patient_id: str | None = None,
              listed_in: Path | None = None
              ) -> Iterator[tuple[int, str, Manifest, Manifest]]:
    """(index position, id, EEG manifest, ECG manifest) per patient of the
    dataset index, or only `patient_id`'s, each read by `_read_pair` when
    reached.  ValueError naming the index if it lists no patients or repeats
    an id.  An unknown `patient_id` is refused naming `listed_in`, the file
    it came from, if any."""
    index_path = Path(data_dir) / DATASET_INDEX
    if not index_path.exists():
        raise FileNotFoundError(f"expected dataset index at {index_path}; "
                                f"run gen-data first")
    entries = read_json(index_path, "a dataset index", lambda index: [
        (_patient_id(entry["id"]), index_path.parent / entry["eeg"],
         index_path.parent / entry["ecg"]) for entry in index["patients"]])
    ids = [pid for pid, _, _ in entries]
    if not ids:
        raise ValueError(f"{index_path} lists no patients")
    if len(set(ids)) < len(ids):
        raise ValueError(f"{index_path} repeats a patient id: {', '.join(ids)}")
    if patient_id not in (None, *ids):
        source = f"{listed_in} lists " if listed_in else ""
        raise ValueError(f"{source}patient {patient_id!r} not in dataset "
                         f"(known: {', '.join(ids)})")
    for p_idx, entry in enumerate(entries):
        if patient_id in (None, entry[0]):
            yield (p_idx, entry[0], *_read_pair(index_path, *entry))


def _read_patients(data_dir: Path | str, windowing: WindowingConfig,
                   patient_id: str | None = None
                   ) -> Iterator[tuple[int, str, Windows, Windows]]:
    """(index position, id, EEG windows, ECG windows) per patient of
    `_patients`, each patient's windows cut when reached."""
    step = (windowing.window_seconds, windowing.stride_seconds)
    for p_idx, pid, *manifests in _patients(data_dir, patient_id):
        yield (p_idx, pid, *(cut_windows(m, *step) for m in manifests))


def _fnum(value) -> str:
    """One textual form for numbers in CSVs; matches the JSON serialization."""
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# Report files


def _save_fold(fold: FoldResult, pid: str, windowing: WindowingConfig, out: Path) -> None:
    """Write a fold's directory: models, training curves, combiner, held-out ids."""
    out.mkdir(parents=True, exist_ok=True)
    for sensor, model in fold.models.items():
        name = sensor.value.lower()
        save_model(model, out / MODEL_FILES[name])
        write_train_report(fold.reports[sensor], out / MODEL_FILES[f"{name}_train"])
    save_combiner(fold.combiner_params, out / MODEL_FILES["combiner"])
    (out / MODEL_FILES["holdout"]).write_text(json.dumps(
        {"patient": pid, "window_ids": fold.split.test_ids,
         **dataclasses.asdict(windowing)}, sort_keys=True) + "\n")


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
    cfg, out = _resolve_run(args)
    entries = []
    for i in range(cfg.patients):
        pid = f"p{i:02d}"
        eeg, ecg = save_synth(cfg.data, cfg.seed + i, out, pid)
        entries.append({"id": pid, "eeg": eeg.path.name, "ecg": ecg.path.name})
        print(f"wrote {pid}: {eeg.channels}-channel EEG + ECG, "
              f"{eeg.n_samples} samples at {eeg.sample_rate_hz} Hz, "
              f"{len(eeg.annotations)} seizures")
    (out / DATASET_INDEX).write_text(
        json.dumps({"seed": cfg.seed, "patients": entries},
                   indent=2, sort_keys=True) + "\n")
    return 0


def cmd_train(args) -> int:
    cfg, out = _resolve_run(args)
    p_idx, pid, eeg, ecg = next(_read_patients(args.data, cfg.windowing, args.patient))
    # The patient's cross-validation fold 0.
    split = kfold_split(eeg.index, eeg.label, cfg.folds, seed=split_seed(cfg, p_idx))[0]
    print(f"patient {pid}: {len(eeg.index)} windows "
          f"({len(split.train_ids)} train / {len(split.val_ids)} val / "
          f"{len(split.test_ids)} held out)")
    result = run_patient_fold(eeg, ecg, split, cfg, p_idx)
    _save_fold(result, pid, cfg.windowing, out)
    for name in VARIANTS:
        b = binary_metrics(result.confusion[name])
        print(f"  {name:>8}: sensitivity={_fnum(b.sensitivity)} "
              f"specificity={_fnum(b.specificity)} accuracy={_fnum(b.accuracy)} "
              f"on the held-out fold")
    return 0


def cmd_cross_validate(args) -> int:
    cfg, out = _resolve_run(args)
    # Unlike a generator expression's loop variable, map holds no patient once
    # handed on.
    patients = run_cross_validation(
        map(lambda row: row[1:], _read_patients(args.data, cfg.windowing)), cfg)
    doc = _write_report_files(patients, out)
    for pr in patients:
        for fr in pr.folds:
            _save_fold(fr, pr.patient_id, cfg.windowing,
                       out / "models" / f"{pr.patient_id}_fold{fr.split.fold_index}")
    for name in VARIANTS:
        b = doc["aggregate"][name]["binary"]
        print(f"{name:>8}: sensitivity={_fnum(b['sensitivity'])} "
              f"specificity={_fnum(b['specificity'])} "
              f"accuracy={_fnum(b['accuracy'])}")
    print(f"report written to {out / 'report.json'}")
    return 0


def _holdout(h: dict) -> tuple[str, list[int], WindowingConfig]:
    """A holdout.json document's patient, sorted window ids and windowing."""
    bad = [i for i in h["window_ids"] if type(i) is not int]
    if bad:
        raise ValueError(f"window_ids must be integers, got {bad[0]!r}")
    ids = sorted(h["window_ids"])
    if not ids:
        raise ValueError("window_ids is empty")
    repeated = [a for a, b in zip(ids, ids[1:]) if a == b]
    if repeated:
        raise ValueError(f"window_ids repeats id {repeated[0]}")
    windowing = WindowingConfig(h["window_seconds"], h["stride_seconds"])
    return _patient_id(h["patient"]), ids, windowing


def cmd_simulate(args) -> int:
    cfg, out = _resolve_run(args)
    model_dir = Path(args.models)
    paths = {k: model_dir / MODEL_FILES[k] for k in ("eeg", "ecg", "combiner", "holdout")}
    for k, p in paths.items():
        if not p.exists():
            raise FileNotFoundError(f"expected {k} file at {p}; --models takes a "
                                    f"fold directory from train or cross-validate")
    eeg_model = load_model(paths["eeg"])
    ecg_model = load_model(paths["ecg"])
    combiner_params = load_combiner(paths["combiner"])
    held_patient, held_ids, held_windowing = read_json(
        paths["holdout"], "a held-out window list", _holdout)

    _, _, *manifests = next(_patients(args.data, held_patient, paths["holdout"]))
    # The replayed ids are picked from the window grid before any sample is
    # read, and only their windows are cut.
    step = (cfg.windowing.window_seconds, cfg.windowing.stride_seconds)
    ids, _ = window_timeline(manifests[0], *step)
    if not args.all_windows:
        # Window ids are stride-grid positions, so they name the same data
        # only at the windowing they were cut at.
        if held_windowing != cfg.windowing:
            raise ValueError(f"{paths['holdout']} was cut at {held_windowing}; the "
                             f"config asks for {cfg.windowing}")
        unknown = sorted(set(held_ids).difference(ids.tolist()))
        if unknown:
            raise ValueError(f"{paths['holdout']} lists {len(unknown)} ids that are "
                             f"not windows of patient {held_patient!r}, the first "
                             f"{unknown[0]}")
        ids = held_ids
    eeg, ecg = (cut_windows(m, *step, ids[:cfg.sim.max_windows]) for m in manifests)
    preds = predictions(eeg_model, ecg_model, combiner_params, eeg.data, ecg.data)
    trace = run_simulation(cfg.sim, combiner_params, eeg.label, eeg.index,
                           preds["eeg_rows"], preds["ecg_rows"])
    write_trace_jsonl(trace, out / "trace.jsonl")
    rep = latency_report(trace)
    equivalence = None  # undefined, like the mean latency, if nothing was fused
    if rep.n_fused:
        # A fusion_decision row's first detail value is its decision.
        equivalence = all(preds["combined"][row[3]] == row[4]
                          for row in trace.events if row[0] == "fusion_decision")
    summary = {**dataclasses.asdict(rep), "equivalence": equivalence}
    (out / "latency.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"simulated {rep.n_windows} windows on patient {held_patient}: "
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
    text = "\n".join(read_json(report_path, "a cross-validation report",
                                _summary_lines))
    print(text)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "summary.txt").write_text(text + "\n")
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
    p.add_argument("--models", required=True,
                   help="a fold directory from train or cross-validate")
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
