"""Spans around the public functions of the pathcl layers.

The tracer replaces a function in every `pathcl` module namespace that
holds it, so calls made through `from .x import f` bindings are caught as
well. Each call becomes a span (name, start, end, parent); a span's self
time is its duration minus the time its child spans cover. Generator
functions get one span per resumption, so a lazily consumed reader is
charged only for the time spent inside it.

Forked pool workers inherit the wrapped functions. A worker's spans cannot
be shared with the parent, so a worker keeps running totals instead and
rewrites them to `<trace_dir>/<pid>.json` after every top-level span; the
parent adds those files to its own totals with `merge_worker_totals`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


def maxrss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.owner = self.pid
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[list] = []  # [id, name, start, child_seconds, rss_at_start]
        self.next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.rss_growth_mb: dict[str, float] = defaultdict(float)

    # -- spans --

    def _enter(self, name: str, rss: bool) -> None:
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid = os.getpid()
            self.spans, self.stack = [], []
            for table in (self.self_s, self.total_s, self.counts, self.rss_growth_mb):
                table.clear()
        self.next_id += 1
        self.stack.append(
            [self.next_id, name, time.perf_counter(), 0.0, maxrss_mb() if rss else None]
        )

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s, rss0 = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.counts[name] += 1
        if rss0 is not None:
            self.rss_growth_mb[name] += maxrss_mb() - rss0
        if parent is not None:
            parent[3] += duration
        if self.pid == self.owner:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))
        elif parent is None:
            self._flush_worker_totals()

    @contextlib.contextmanager
    def span(self, name: str, rss: bool = False):
        self._enter(name, rss)
        try:
            yield
        finally:
            self._exit()

    # -- wrapping --

    def wrap(
        self,
        module: str,
        attr: str,
        name: str,
        *,
        rss: bool = False,
        observe: Callable[[object], dict] | None = None,
    ) -> None:
        """Replace `module.attr` everywhere pathcl refers to it with a traced wrapper."""
        original = getattr(sys.modules[module], attr)
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    tracer._enter(name, rss)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._exit()
                    yield item

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer._enter(name, rss)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit()
                if observe is not None:
                    for key, value in observe(result).items():
                        tracer.counts[key] += value
                return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pathcl" or mod_name.startswith("pathcl."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- results --

    def _flush_worker_totals(self) -> None:
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "self_s": self.self_s,
                    "total_s": self.total_s,
                    "counts": self.counts,
                }
            )
        )
        os.replace(tmp, path)

    def merge_worker_totals(self) -> None:
        """Add the totals flushed by forked workers."""
        for path in sorted(self.trace_dir.glob("*.json")):
            data = json.loads(path.read_text())
            for table, key in ((self.self_s, "self_s"), (self.total_s, "total_s"), (self.counts, "counts")):
                for name, value in data[key].items():
                    table[name] += value

    def write_spans(self, path: Path) -> None:
        """Write the owner process's spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for span_id, name, start, end, parent in self.spans:
                fp.write(json.dumps([span_id, name, start, end, parent]) + "\n")
