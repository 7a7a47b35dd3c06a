"""Error types, the one reader of outside JSON files, which names the file in
every error it raises, and the one rule for the type of a value read from one."""

import json
import math
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


def fits(value, default) -> bool:
    """A JSON value must have its default's type, except that an int may
    stand for a float and a list for a tuple; a tuple's elements must each
    fit the default's.  NaN and infinity fit nothing, as they would pass
    every range check."""
    if isinstance(default, tuple):
        return (isinstance(value, (tuple, list)) and len(value) == len(default)
                and all(map(fits, value, default)))
    allowed = (float, int) if type(default) is float else type(default)
    return (isinstance(value, allowed)
            and isinstance(value, bool) == isinstance(default, bool)
            and (not isinstance(value, float) or math.isfinite(value)))
