"""JSONL records: the line framing of every stage-boundary file.

Corpus, positives, bundles and instances files hold one JSON object per
line; blank lines are ignored and a bad line raises RecordError.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class RecordError(ValueError):
    """A malformed record, tied to its 1-based input line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def require(obj: object, key: str, kind: type, line: int):
    """obj[key], which must be a `kind` (an int field takes no bool)."""
    if not isinstance(obj, dict):
        raise RecordError(line, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise RecordError(line, f"missing field {key!r}")
    value = obj[key]
    if not _is(value, kind):
        raise RecordError(line, f"field {key!r}: expected {kind.__name__}")
    return value


def require_list(obj: object, key: str, kind: type, line: int, length: int | None = None) -> tuple:
    """obj[key] as a tuple; it must be a list of `kind` values, `length` long if given."""
    values = require(obj, key, list, line)
    if not all(_is(v, kind) for v in values):
        raise RecordError(line, f"field {key!r}: expected a list of {kind.__name__}")
    if length is not None and len(values) != length:
        raise RecordError(line, f"field {key!r}: expected {length} entries")
    return tuple(values)


def _is(value: object, kind: type) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


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


def record_line(record: object) -> str:
    """One record as a compact JSON line, newline included."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_records(items: Iterable[T], to_record: Callable[[T], object], fp: IO[str]) -> int:
    """Write one compact JSON line per item; returns the number written."""
    n = 0
    for item in items:
        fp.write(record_line(to_record(item)))
        n += 1
    return n
