#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cv-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics of a traced run, whose rounds alternate with untraced ones to give
the tracing overhead.  Lines before it name the host and provenance and
each workload's own metrics.  ``--tiny`` swaps in the small configuration
of acceptance criterion 11 for the harness smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5


def _pin_blas_threads() -> None:
    """Keep OPENBLAS_NUM_THREADS at most nproc (1 when unset); before numpy."""
    nproc = os.cpu_count() or 1
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    except ValueError:
        wanted = 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))


def _provenance() -> dict:
    import platform
    import subprocess

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": commit, "src_lines": src_lines}


def _measure(wl, seconds: float, trace: bool):
    """Set up, then run rounds for `seconds`.

    Returns (setup times, tracer, rounds, scale): rounds holds (traced,
    seconds) per round, traced rounds alternating with untraced ones, and
    scale the mean reference time over each round.
    """
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        t0 = perf_counter()
        if trace:
            with tracer.active(), tracer.op("bench.setup"):
                wl.setup()
        else:
            wl.setup()
        setup_times.append(perf_counter() - t0)
    wl.prepare()
    wl.reference.sample()
    rounds: list[tuple[bool, float]] = []
    scale: list[float] = []
    deadline = perf_counter() + seconds
    while (len(rounds) < max(wl.min_rounds, 2 if trace else 1)
           or perf_counter() < deadline):
        traced = trace and len(rounds) % 2 == 1
        first = len(wl.reference.samples) - 1
        if traced:
            with tracer.active():
                rounds.append((True, wl.round(tracer.op)))
        else:
            rounds.append((False, wl.round(lambda _key: nullcontext())))
        wl.reference.sample()
        scale.append(statistics.mean(wl.reference.samples[first:]))
    return setup_times, tracer, rounds, scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1-10 were used while writing the "
                             "benchmark, 7919 is kept to confirm claims")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the criterion-11 tiny configuration (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "preictal").is_dir():
        print(f"error: no preictal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.tiny)
    try:
        setup_times, tracer, rounds, scale = _measure(wl, args.seconds,
                                                      bool(args.trace))
        wl.close()
        if not wl.completed():
            raise RuntimeError("no operation completed")
        named = wl.named()
        if args.trace:
            rel = [(t, s / k) for (t, s), k in zip(rounds, scale)]
            overhead = 100.0 * (statistics.median(s for t, s in rel if t)
                                / statistics.median(s for t, s in rel if not t) - 1)
            metrics = per_layer_metrics(tracer.spans, overhead)
            tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                **wl.end_to_end(scale),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = _provenance()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={args.tiny} rounds={len(rounds)}")
    print("# host " + json.dumps(host, sort_keys=True))
    named.append(("reference_ms", 1e3 * statistics.median(scale), "ms"))
    for name, value, unit in named:
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "named": named, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
