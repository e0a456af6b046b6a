"""No dead names in src/detourcert: every import is read, every private helper is used.

Only the stdlib ast module is used, so the check needs no linter.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "detourcert"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _loaded_names(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _reads(tree: ast.AST) -> set:
    """Every name a tree reads: loaded names, attribute names and names it imports."""
    names = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_read(module):
    tree = TREES[module]
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    assert sorted(imported - _loaded_names(tree)) == []


def test_every_private_module_name_is_read():
    read = set().union(*map(_reads, TREES.values()))
    unread = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []
