"""JSON at the stage boundaries: record framing, atomic output files and
the one typed-value check.

Corpus, positives, bundles and instances files hold one JSON object per
line; blank lines are ignored and a bad line raises RecordError. Every
value a record reader takes and every config field goes through `typed`,
so a value of the wrong type reads the same everywhere:

    line 3: options[0].donor_sentence: expected int, got string
    negatives.num_negatives: expected int, got string
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import field, fields
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

# JSON names of the Python types `json.loads` produces.
_JSON_NAMES = {type(None): "null", bool: "bool", int: "int", float: "float", str: "string",
               list: "array", dict: "object"}


class RecordError(ValueError):
    """A malformed record, tied to its 1-based input line and, if known, its field path."""

    def __init__(self, line: int, message: str, field: str = ""):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
        self.field = field

    def __reduce__(self):
        # Rebuilt from its parts: an error raised in a pool worker reaches
        # the caller by pickle.
        return type(self), (self.line, self.message, self.field)


def is_a(value: object, kind: type) -> bool:
    """Whether `value` is a JSON `kind`: a bool is no int, and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _fail(path: str, message: str, line: int | None) -> ValueError:
    message = f"{path}: {message}" if path else message
    return ValueError(message) if line is None else RecordError(line, message, path)


def _check_length(values: list, length: int | None, path: str, line: int | None) -> None:
    if length is not None and len(values) != length:
        raise _fail(path, f"expected {length} entries, got {len(values)}", line)


def typed(value, kind: type | tuple, path: str, line: int | None = None):
    """`value` if it is a JSON `kind`, else an error naming `path`.

    A tuple of kinds is a row: an array holding one value of each kind,
    returned as a tuple. The error is a RecordError for a record `line`,
    a ValueError otherwise.
    """
    if isinstance(kind, tuple):
        if type(value) is list and tuple(map(type, value)) == kind:
            return tuple(value)
        row = typed(value, list, path, line)
        _check_length(row, len(kind), path, line)
        return tuple(typed(v, k, f"{path}[{i}]", line) for i, (v, k) in enumerate(zip(row, kind)))
    if is_a(value, kind):
        return value
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    raise _fail(path, f"expected {_JSON_NAMES[kind]}, got {got}", line)


def _join(at: str, key: str) -> str:
    return f"{at}.{key}" if at else key


def require(obj, key: str, kind: type, line: int, at: str = "", *, nullable: bool = False):
    """obj[key], a JSON `kind` (or null if `nullable`); `at` is the field path of obj."""
    try:
        value = obj[key]
    except (KeyError, TypeError):  # obj is no object, or lacks the key
        typed(obj, dict, at, line)
        raise RecordError(line, f"{_join(at, key)}: missing field", _join(at, key)) from None
    # The exact-type shortcuts here and in `require_list` and `typed` pass only
    # values that `is_a` accepts too; they spare the hot corpus reader a call.
    if type(value) is kind or (nullable and value is None):
        return value
    return typed(value, kind, _join(at, key), line)


def require_list(
    obj, key: str, kind: type | tuple, line: int, at: str = "", length: int | None = None
) -> tuple:
    """obj[key] as a tuple: an array of JSON `kind` values, `length` long if given."""
    path = _join(at, key)
    values = require(obj, key, list, line, at)
    if isinstance(kind, tuple) or not {kind}.issuperset(map(type, values)):
        values = [typed(v, kind, f"{path}[{i}]", line) for i, v in enumerate(values)]
    _check_length(values, length, path, line)
    return tuple(values)


def require_map(obj, key: str, kind: type, line: int, at: str = "") -> tuple:
    """obj[key] as sorted (name, value) pairs: an object of JSON `kind` values."""
    path = _join(at, key)
    values = require(obj, key, dict, line, at)
    return tuple(sorted((k, typed(v, kind, f"{path}.{k}", line)) for k, v in values.items()))


# -- config values --

_FIELD_TYPES = {"int": int, "float": float, "str": str}


def bounded(default, *, low=None, high=None, choices: tuple = ()):
    """A config field whose value must lie in [low, high] or be one of `choices`."""
    return field(default=default, metadata={"low": low, "high": high, "choices": choices})


def check_config(config, section: str) -> None:
    """Check every field of a config dataclass against its type and bounds.

    Errors are ValueErrors naming `section.key`. An int given for a float
    field is stored as that float, frozen dataclass or not, so 1 and 1.0
    configure (and hash) alike.
    """
    for f in fields(config):
        path, low, high = f"{section}.{f.name}", f.metadata.get("low"), f.metadata.get("high")
        kind = _FIELD_TYPES[f.type]
        value = typed(getattr(config, f.name), kind, path)
        if kind is float:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{path}: expected finite float, got {value!r}")
            object.__setattr__(config, f.name, value)
        if f.metadata.get("choices") and value not in f.metadata["choices"]:
            choices = ", ".join(map(repr, f.metadata["choices"]))
            raise ValueError(f"{path}: expected one of {choices}, got {value!r}")
        if (low is not None and value < low) or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{path}: expected {_JSON_NAMES[kind]} {bounds}, got {value!r}")


# -- files --


def read_records(
    lines: Iterable[str],
    from_record: Callable[[object, int], T],
    errors: list[RecordError] | None = None,
) -> Iterator[T]:
    """Lazily yield `from_record(obj, line)` for each non-blank line.

    With `errors` given, a bad line is skipped and its RecordError appended
    there (per-line recovery); with `errors=None` the first bad line raises.
    """
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise RecordError(line_no, f"invalid JSON: {exc.msg}") from exc
            record = from_record(obj, line_no)
        except RecordError as err:
            if errors is None:
                raise
            errors.append(err)
            continue
        yield record


# `json.dumps` with any non-default argument builds a new encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def record_line(record: object) -> str:
    """One record as a compact JSON line, newline included."""
    return _encode(record) + "\n"


def write_records(items: Iterable[T], to_record: Callable[[T], object], fp: IO[str]) -> int:
    """Write one compact JSON line per item; returns the number written."""
    n = 0
    for item in items:
        fp.write(record_line(to_record(item)))
        n += 1
    return n


@contextmanager
def open_output(path) -> Iterator[IO[str]]:
    """Write `path` through a temporary file beside it, moved into place on success.

    A failed writer leaves no half-written output: the temporary file is
    removed and any earlier file at `path` stays as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
