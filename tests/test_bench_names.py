"""The pathcl names the benchmark harness wraps or calls must exist.

`bench/worker.py` looks its layer functions up by name only when a sample
runs, so a renamed or deleted function would fail every benchmark sample
and nothing earlier. This checks existence only: installing the tracer
would rewrite module globals for the rest of the session.
"""

import importlib
from pathlib import Path

from pathcl import pipeline as pl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_worker_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    wanted = [(module, attr) for module, attr, _ in worker.LAYER_SPANS]
    wanted += [("pathcl.pipeline", attr) for attr, _ in worker.STAGES]
    wanted += [
        ("pathcl.metapath", "extract_positive_instances"),
        ("pathcl.pipeline", "read_bundle_file"),
    ]
    missing = [
        f"{module}.{attr}"
        for module, attr in wanted
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert set(pl.OUTPUT_FILES) >= {"bundles_counterfactual", "instances", "manifest"}
    cfg = pl.PipelineConfig(input="corpus.jsonl", output_dir="out", seed=0, jobs=1)
    assert cfg.jobs == 1
