"""The pathcl names the benchmark harness wraps or calls must exist.

`bench/worker.py` looks its layer functions up by name, and imports the
rest of what it uses inside its functions, only when a sample runs, so a
renamed or deleted name would fail every benchmark sample and nothing
earlier. The name checks test existence only: installing the tracer would
rewrite module globals for the rest of the session. How the traced trainer
path calls those names is checked by running its smoke sample.
"""

import ast
import importlib
import json
import subprocess
import sys
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


def _pathcl_names(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) for each pathcl name `tree` imports or reads off an imported module."""
    modules: dict[str, str] = {}  # local name -> pathcl module
    wanted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pathcl":
            for alias in node.names:
                try:  # a submodule: its attributes are checked where they are read
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    wanted.append((node.module, alias.name))
                else:
                    module = f"{node.module}.{alias.name}"
                    assert modules.setdefault(alias.asname or alias.name, module) == module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pathcl":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            wanted.append((modules[node.value.id], node.attr))
    return wanted


def test_bench_worker_imports_resolve():
    # Every `from pathcl... import X` in the worker and every attribute it
    # reads off an imported pathcl module (`pl.run_pipeline`, ...) must exist.
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    wanted = _pathcl_names(tree)
    names = {f"{module}.{attr}" for module, attr in wanted}
    assert {
        "pathcl.corpus.write_corpus",
        "pathcl.synth.split_corpus",
        "pathcl.metapath.validate_instance",
        "pathcl.pipeline.read_positives",
        "pathcl.pipeline.CounterfactualConfig",
        "pathcl.trainer.TrainConfig",
        "pathcl.trainer.evaluate",
        "pathcl.trainer.train",
    } <= names
    missing = [
        f"{module}.{attr}"
        for module, attr in wanted
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_bench_traced_train_smoke_sample_is_correct():
    # The traced trainer sample calls `total_loss_and_grads` with keyword
    # options and `evaluate` on the training set; a changed signature fails
    # it, and a failed operation marks the run incorrect.
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--smoke", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
