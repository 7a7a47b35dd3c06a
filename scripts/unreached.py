#!/usr/bin/env python3
"""Print each statement of src/ that no run of the program executes.

    python3 scripts/unreached.py

Under a `sys.settrace` line trace, in a temporary directory, it runs
scripts/artifact_digest.py's steps (gen-data, cross-validate, simulate,
report and the lossy simulate) and `train`, then perfbench's set-up,
`prepare` and one round of each workload, all at perfbench's TINY config.
BLAS is pinned to one thread before numpy loads, and the checkout's own src/
is imported.  It then prints `path:line` for each statement of src/ that has
code, is not a `raise`, and never ran.  A statement ran if any line of its
own (its header, for a compound statement) produced a line event.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "scripts"), str(ROOT / "perfbench")]


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not its nested statements'."""
    body = getattr(node, "body", None)
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    last = body[0].lineno - 1 if body else node.end_lineno
    return range(first, max(first, last) + 1)


def _code_lines(code) -> set[int]:
    """Every line that a code object, or one nested in it, holds code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unreached(executed: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        has_code = _code_lines(compile(text, str(path), "exec"))
        ran = executed.get(str(path), set())
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
                continue
            own = set(_own_lines(node))
            if own & has_code and not own & ran:
                out.append((str(path.relative_to(ROOT)), node.lineno))
    return [f"{p}:{line}" for p, line in sorted(set(out))]


def _run_everything(tmp: Path) -> None:
    import artifact_digest
    from workloads import TINY, WORKLOADS

    from preictal.cli import main as cli_main

    config = tmp / "tiny.json"
    config.write_text(json.dumps(TINY))
    ws = tmp / "ws"
    if artifact_digest.main(["--config", str(config), "--workspace", str(ws)]):
        raise RuntimeError("artifact_digest.py failed")
    if cli_main(["train", "--config", str(config), "--data", str(ws / "data"),
                 "--out", str(tmp / "train")]):
        raise RuntimeError("preictal train failed")
    for name, workload in WORKLOADS.items():
        work = tmp / "perfbench" / name
        work.mkdir(parents=True)
        wl = workload(work, 1, True)
        wl.setup()
        wl.prepare()
        wl.round(lambda _key: contextlib.nullcontext())
        wl.close()


def main() -> int:
    executed: dict[str, set[int]] = {}
    prefix = str(SRC) + os.sep

    def local(frame, event, _arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(calls)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _run_everything(Path(tmp))
        finally:
            sys.settrace(None)
    print("\n".join(unreached(executed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
