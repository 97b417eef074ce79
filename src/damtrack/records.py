"""The one place JSON and JSON Lines files are read and written.

Every input file is ASCII. A reader hands each decoded record to a parse
function and turns any KeyError, ValueError or TypeError it raises, or a
bad byte or malformed JSON, into a ValueError naming the file (and the
line, for JSON Lines). A frame index must be a JSON integer and a box field
or score a JSON number: a bool, a fraction or a numeric string is rejected,
not rounded or parsed. A writer removes its partial output if it fails.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from typing import Any, Callable, Iterable, Iterator, TextIO

# UnicodeDecodeError and json.JSONDecodeError are ValueErrors
_BAD_RECORD = (KeyError, ValueError, TypeError)


def read_jsonl(path: str, what: str, parse: Callable[[Any], None]) -> None:
    """Call parse on the record of each non-blank line, in file order."""
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("ascii").strip()
                if line:
                    parse(json.loads(line))
            except _BAD_RECORD as e:
                raise ValueError(
                    f"{path}:{line_no}: bad {what} record ({e!r})") from None


def read_json(path: str, what: str, parse: Callable[[Any], Any]) -> Any:
    """parse applied to the file's one JSON value."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return parse(json.loads(raw.decode("ascii")))
    except _BAD_RECORD as e:
        raise ValueError(f"{path}: bad {what} ({e!r})") from None


def json_int(value: Any, what: str) -> int:
    """value if it is a JSON integer; a bool or anything else raises."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value: Any, what: str) -> float:
    """value as a float if it is a JSON number; a bool or anything else
    raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def write_jsonl(path: str, records: Iterable[Any]) -> None:
    """One compact JSON record per line."""
    with _removed_on_failure(path) as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def write_json(path: str, data: Any) -> None:
    """data indented, with sorted keys, so equal values give equal bytes."""
    with _removed_on_failure(path) as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


@contextmanager
def _removed_on_failure(path: str) -> Iterator[TextIO]:
    """An ASCII file open for writing that is deleted if its writer raises."""
    f = open(path, "w", encoding="ascii")
    try:
        with f:
            yield f
    except BaseException:
        with suppress(OSError):
            os.remove(path)
        raise
