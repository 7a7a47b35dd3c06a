#!/usr/bin/env python3
"""End-to-end desk experiment: data -> cross-validation -> simulate -> report.

Produces, under the workspace directory:

    data/                 synthetic recordings (gen-data)
    cv/                   report.json + confusion/metrics/trend CSVs +
                          summary.txt (cross-validate, report)
    cv/models/pXX_foldF/  one directory per fold: eeg_model.bin,
                          ecg_model.bin, combiner.json, eeg_train.csv,
                          ecg_train.csv, holdout.json (cross-validate)
    sim/                  closed-loop trace.jsonl + latency.json over the
                          held-out windows of cv/models/p00_fold0, the
                          first sim.duration_s / sim.window_period_s of
                          them (simulate)

Everything is deterministic in --seed; rerunning overwrites with identical
bytes.  Pass --config to override any subset of the defaults.
"""

import argparse
import sys
from pathlib import Path

from preictal.cli import main as cli_main


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workspace", default="experiment",
                        help="output root (default: ./experiment)")
    parser.add_argument("--config", help="JSON config overrides")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    ws = Path(args.workspace)
    passthrough = []
    if args.config:
        passthrough += ["--config", args.config]
    if args.seed is not None:
        passthrough += ["--seed", str(args.seed)]

    steps = [
        ["gen-data", "--out", str(ws / "data")],
        ["cross-validate", "--data", str(ws / "data"), "--out", str(ws / "cv")],
        ["simulate", "--data", str(ws / "data"),
         "--models", str(ws / "cv" / "models" / "p00_fold0"), "--out", str(ws / "sim")],
        ["report", "--report-dir", str(ws / "cv"), "--out", str(ws / "cv")],
    ]
    for step in steps:
        print(f"==> preictal {' '.join(step)}")
        extra = [] if step[0] == "report" else passthrough
        rc = cli_main(step + extra)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
