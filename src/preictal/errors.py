"""Error types, and the one reader of outside JSON files, which names the file
in every error it raises."""

import json
from pathlib import Path


class ShapeError(ValueError):
    """Array dimensions do not match what an operation requires."""


def read_json(path: Path, what: str, extract):
    """`extract` applied to the file's JSON; ValueError naming the file if it
    does not parse or `extract` finds it malformed."""
    try:
        return extract(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError) as exc:
        problem = "valid JSON" if isinstance(exc, json.JSONDecodeError) else what
        raise ValueError(f"{path} is not {problem} "
                         f"({type(exc).__name__}: {exc})") from exc
