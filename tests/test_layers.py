"""The import layers of `src/pathcl`, read from the source without importing it.

Each module's imports of other pathcl modules, wherever in the file they
stand (a lazy import inside a function counts too), form a graph that must
have no cycle. The modules that say which sentence names which entity and
search its paths (`corpus`, `graph`, `metapath`) sit below the ones that
build negatives, bundles and runs from them.
"""

import ast
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pathcl"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def pathcl_imports(path: Path) -> set[str]:
    """The pathcl modules that the source file at `path` imports."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name.removeprefix("pathcl.") for alias in node.names
                     if alias.name.startswith("pathcl.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "pathcl" and not module.startswith("pathcl."):
                    continue
                module = module.removeprefix("pathcl").removeprefix(".")
            # `from . import x` and `from pathcl import x` name modules.
            names = [module] if module else [alias.name for alias in node.names]
        else:
            continue
        found.update(name for name in names if name in MODULES)
    return found


def import_graph() -> dict[str, set[str]]:
    return {name: pathcl_imports(SRC / f"{name}.py") for name in sorted(MODULES)}


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen: set[str] = set()
    todo = [start]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_import_graph_is_read():
    # The parser sees the imports that are there, relative and lazy alike.
    graph = import_graph()
    assert {"corpus", "graph", "metapath", "negatives", "bundle", "pipeline"} <= MODULES
    assert "corpus" in graph["graph"]
    assert "pipeline" in graph["cli"]  # `from . import pipeline as pl`
    assert {"corpus", "graph", "metapath", "negatives", "bundle"} <= graph["pipeline"]


def test_modules_import_no_cycle():
    graph = import_graph()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' imports '.join(reversed(exc.args[1]))}")


@pytest.mark.parametrize("low", ["corpus", "graph", "metapath"])
def test_lower_layers_import_nothing_above(low):
    above = reachable(import_graph(), low) & {"negatives", "bundle", "pipeline"}
    assert not above, f"{low} imports {sorted(above)}, directly or not"


def test_cli_import_loads_no_process_machinery():
    # `run` forks its workers only when it has more than one to fork, so
    # importing the CLI (every command's start-up) loads neither module.
    probe = (
        "import json, sys, pathcl.cli; "
        "print(json.dumps([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
