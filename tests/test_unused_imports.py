"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import tangletree

MODULES = sorted(p for p in Path(tangletree.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST):
    """The names in a quoted annotation such as `-> "Graph"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        for inner in ast.walk(ast.parse(node.value, mode="eval")):
            if isinstance(inner, ast.Name):
                yield inner.id


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in tree and never read, in source order."""
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.FunctionDef):
            used.update(_annotation_names(node.returns))
    return sorted((name for name in set(imported) - used), key=imported.index)


def test_checker_finds_an_unused_import():
    source = 'import os, json\nfrom x import y, z as w\nfrom typing import List\ndef f(a: "List") -> int:\n    return y(json)\n'
    assert _unused_imports(ast.parse(source)) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
