#!/usr/bin/env python3
"""Hash every artifact of one end-to-end run, to check two commits for byte identity.

    python3 scripts/artifact_digest.py --config tiny.json --workspace W

Runs the steps of scripts/run_experiment.py into W, then replays patient
p00's windows in id order, the first sim.duration_s / sim.window_period_s
of them, through the models of W/cv/models/p00_fold0 over the
benchmark's lossy link (loss 0.2, 3 retries) into W/sim-lossy, and writes
the sha256 of every file under W except the echoed config.json files to
W.sha256.  The artifacts are data/ (dataset.json and each patient's EEG and
ECG manifest and samples), cv/ (report.json, confusion.csv, metrics.csv,
trend.csv, summary.txt), the six files of every fold directory
cv/models/pXX_foldF/, and sim/ and sim-lossy/ (trace.jsonl, latency.json).
BLAS is pinned to one thread before numpy loads, so float summation order
is fixed, and the checkout's own src/ is imported.  Run it in a checkout of
each commit with the same config, then diff the two .sha256 files; no
output means identical.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from run_experiment import run  # noqa: E402

from preictal.cli import main as cli_main  # noqa: E402

LOSSY = {"link": {"loss_probability": 0.2}, "retry_limit": 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config overrides")
    parser.add_argument("--workspace", required=True, help="output root")
    args = parser.parse_args(argv)
    ws = Path(args.workspace)

    rc = run(["--workspace", str(ws)] + (["--config", args.config]
                                         if args.config else []))
    if rc != 0:
        return rc
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    sim = cfg.setdefault("sim", {})
    sim.setdefault("link", {}).update(LOSSY["link"])
    sim["retry_limit"] = LOSSY["retry_limit"]
    with tempfile.TemporaryDirectory() as tmp:
        lossy = Path(tmp) / "lossy.json"
        lossy.write_text(json.dumps(cfg))
        print("==> preictal simulate --all-windows (lossy link)")
        rc = cli_main(["simulate", "--all-windows", "--config", str(lossy),
                       "--data", str(ws / "data"),
                       "--models", str(ws / "cv" / "models" / "p00_fold0"),
                       "--out", str(ws / "sim-lossy")])
    if rc != 0:
        return rc

    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(ws)}\n"
             for p in sorted(ws.rglob("*"))
             if p.is_file() and p.name != "config.json"]
    digest = ws.parent / f"{ws.name}.sha256"
    digest.write_text("".join(lines))
    print(f"{len(lines)} artifacts hashed into {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
