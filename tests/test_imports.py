"""No module under src/lsbe or scripts/ imports a name it never uses.

The project runs no linter, so this walks the syntax trees instead.  A
package __init__ exists to re-export, and a name a module lists in
__all__ is its export, so neither counts as unused.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FILES = sorted(
    os.path.relpath(os.path.join(folder, name), ROOT)
    for top in ("src/lsbe", "scripts")
    for folder, _, names in os.walk(os.path.join(ROOT, top))
    for name in names
    if name.endswith(".py") and name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_files_are_found():
    assert "src/lsbe/solver.py" in FILES
    assert "scripts/run_trace_experiment.py" in FILES


@pytest.mark.parametrize("path", FILES)
def test_no_unused_import(path):
    with open(os.path.join(ROOT, path)) as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert not _unused_imports(tree), f"{path}: {_unused_imports(tree)}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "from os import path, sep\nfrom . import kept\n"
                     "__all__ = ['kept']\nnp.zeros(path.sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "sep (line 3)"]
