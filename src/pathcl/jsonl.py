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


def write_records(items: Iterable[T], to_record: Callable[[T], object], fp: IO[str]) -> int:
    """Write one compact JSON line per item; returns the number written."""
    n = 0
    for item in items:
        fp.write(json.dumps(to_record(item), ensure_ascii=False) + "\n")
        n += 1
    return n
