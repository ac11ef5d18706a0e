"""Checks on the program's own source.

`src/` keeps only what the program and its benchmark use: a public
function or class that only tests call belongs in the tests, or nowhere,
and a module imports only the names it reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names_used(node: ast.AST) -> set[str]:
    """Every name that `node` reads, calls, imports or takes as an attribute."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.rpartition(".")[2])
    return used


def test_every_public_name_in_src_has_a_caller_in_src_or_bench():
    files = sorted((ROOT / "src" / "pathcl").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    # Each top-level statement of each file, with the names it uses.
    statements = [
        (path, node, _names_used(node))
        for path in files
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = [
        f"{path.name}: {node.name}"
        for path, node, _ in statements
        if path.parent.name == "pathcl"
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in used for _, other, used in statements if other is not node)
    ]
    assert unused == []


def test_every_module_in_src_reads_every_name_it_imports():
    unused = []
    for path in sorted((ROOT / "src" / "pathcl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            # `import a.b` binds `a`.
            if (bound := alias.asname or alias.name.partition(".")[0]) not in read
        ]
    assert unused == []
