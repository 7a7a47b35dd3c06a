"""Error types, and the one reader of outside JSON files, which names the file
in every error it raises."""

import json
from contextlib import contextmanager
from pathlib import Path


class ShapeError(ValueError):
    """Array dimensions do not match what an operation requires."""


@contextmanager
def naming(path: Path, what: str):
    """Re-raise a ValueError, KeyError or TypeError as `path` not being `what`."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        problem = "valid JSON" if isinstance(exc, json.JSONDecodeError) else what
        raise ValueError(f"{path} is not {problem} "
                         f"({type(exc).__name__}: {exc})") from exc


def read_json(path: Path, what: str, extract):
    """`extract` applied to the file's JSON; ValueError naming the file if it
    does not parse or `extract` finds it malformed."""
    with naming(path, what):
        return extract(json.loads(path.read_text()))
