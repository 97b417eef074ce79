"""The one place JSON and JSON Lines files are read and written.

Every input file is ASCII. A reader hands each decoded record to a parse
function and turns any KeyError, ValueError or TypeError it raises, or a
bad byte or malformed JSON, into a ValueError naming the file (and the
line, for JSON Lines). A frame index must be a JSON integer and a box field
or score a JSON number: a bool, a fraction or a numeric string is rejected,
not rounded or parsed. A writer removes its partial output if it fails.

``decode`` is the one reader of a JSON value into a dataclass, the config
and the scenario spec alike. It follows the resolved annotation of each
field: ``int`` takes a JSON integer, ``float`` a finite JSON number (an
integer reads as a float), ``bool`` true or false, ``str`` a string,
``X | None`` null or an X, ``tuple[A, B]`` an array of exactly that many
items, ``tuple[T, ...]`` an array of any length, and a dataclass a flat
JSON object with one key per field (a dataclass marked ``JSON_ARRAY`` takes
an array of its fields in order instead). Unknown keys are rejected, omitted
keys take their defaults, and a missing required key, a wrong type or
length, or a range rule of the dataclass itself raises a ValueError naming
the dotted path of the value, e.g. ``scenario key target.waypoints[1][0]``.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import (Any, Callable, Iterable, Iterator, TextIO, get_args,
                    get_origin, get_type_hints)

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


def decode(kind: Any, value: Any, what: str) -> Any:
    """value read as kind, a dataclass whose fields have the types above;
    what names the value in errors, e.g. "config"."""
    return _decode(kind, value, what, "")


def _decode(kind: Any, value: Any, what: str, path: str) -> Any:
    name = f"{what} key {path}" if path else what
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        keys = [f.name for f in fields(kind)]
        if getattr(kind, "JSON_ARRAY", False):
            items = _decode(tuple[tuple(hints[k] for k in keys)], value,
                            what, path)
            return _construct(kind, name, dict(zip(keys, items)))
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a flat JSON object, one key "
                             f"per field, got {value!r}")
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ValueError(f"unknown {what} keys: "
                             + ", ".join(_child(path, k) for k in unknown))
        for f in fields(kind):
            if (f.name not in value and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ValueError(f"{what} key {_child(path, f.name)} "
                                 "is missing")
        return _construct(kind, name, {
            k: _decode(hints[k], v, what, _child(path, k))
            for k, v in value.items()})
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
        return value
    if kind is int:
        return json_int(value, name)
    if kind is float:
        number = json_number(value, name)
        if not math.isfinite(number):
            raise ValueError(f"{name} must be finite, got {value!r}")
        return number
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
        return value
    args = get_args(kind)
    if get_origin(kind) is UnionType and type(None) in args:
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _decode(inner, value, what, path)
    if get_origin(kind) is tuple:
        # a tuple is what scenario_spec_to_dict and asdict hand back
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a JSON array, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{name} must be a JSON array of {len(args)} "
                             f"items, got {len(value)}")
        return tuple(_decode(a, v, what, f"{path}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    raise TypeError(f"no JSON decoder for {kind!r}")


def _child(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _construct(kind: Any, name: str, kw: dict) -> Any:
    """kind(**kw), with a range rule's error prefixed by the value's name."""
    try:
        return kind(**kw)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


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
