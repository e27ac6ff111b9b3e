"""Every module of the package uses each name it imports, every private
module-level name is read somewhere in the package and defined only once,
every method of a private class, and every private method, is read as an
attribute somewhere in the package, and so is every private attribute that
a class stores on self."""

import ast
from pathlib import Path

import pytest

import tangletree

SOURCES = sorted(Path(tangletree.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def _private_definitions(node: ast.stmt) -> list[str]:
    """The private (single-underscore) names a module-level statement binds
    by def, class or assignment."""
    if isinstance(node, ast.FunctionDef | ast.ClassDef):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _dead_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """`module.name` for each private module-level name that nothing else in
    the package reads. A name counts as read when another statement of its
    module reads it and the module does not also import that name (the
    import would then be what those reads mean), or when another module
    imports it from there."""
    imported: set[tuple[str, str]] = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, a.name) for a in node.names)
    dead = []
    for module, tree in modules.items():
        own_imports = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
        }
        reads = [
            {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {name for n in ast.walk(stmt) if isinstance(n, ast.arg) for name in _annotation_names(n.annotation)}
            for stmt in tree.body
        ]
        for i, stmt in enumerate(tree.body):
            for name in _private_definitions(stmt):
                read_here = name not in own_imports and any(name in r for j, r in enumerate(reads) if j != i)
                if not read_here and (module, name) not in imported:
                    dead.append(f"{module}.{name}")
    return sorted(dead)


def _copied_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """Private module-level names defined in more than one module."""
    seen: dict[str, list[str]] = {}
    for module, tree in modules.items():
        for stmt in tree.body:
            for name in _private_definitions(stmt):
                seen.setdefault(name, []).append(module)
    return sorted(name for name, where in seen.items() if len(set(where)) > 1)


def test_checker_finds_dead_and_copied_helpers():
    modules = {
        "a": ast.parse(
            "def _used(): pass\ndef _dead(): pass\ndef _rec(): return _rec()\n"
            "def _lent(): pass\n_K = 1\ndef f():\n    return _used() + _K\n"
        ),
        "b": ast.parse("from .a import _lent\ndef _stable(): pass\ndef g():\n    return _lent(_stable)\n"),
        "c": ast.parse("from .b import _stable\ndef _stable(): pass\ndef h():\n    return _stable()\n"),
    }
    assert _dead_helpers(modules) == ["a._dead", "a._rec", "c._stable"]
    assert _copied_helpers(modules) == ["_stable"]


def test_package_has_no_dead_or_copied_helper():
    modules = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _dead_helpers(modules) == []
    assert _copied_helpers(modules) == []


def _dead_methods(modules: dict[str, ast.Module]) -> list[str]:
    """`module.Class.name` for each method of a private module-level class,
    and each private method of any such class, that no attribute read in
    the package names. Special methods are called by the language, so
    they are left out."""
    read = {
        n.attr
        for tree in modules.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    dead = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
                    continue
                if (cls.name.startswith("_") or f.name.startswith("_")) and f.name not in read:
                    dead.append(f"{module}.{cls.name}.{f.name}")
    return sorted(dead)


def test_checker_finds_dead_methods():
    modules = {
        "a": ast.parse(
            "class _P:\n    def __init__(self): pass\n    def used(self): pass\n    def dead(self): pass\n"
            "class Q:\n    def public(self): pass\n    def _hidden(self): pass\n    def _called(self): pass\n"
            "def f(x):\n    x.dead = 1\n    return x.used() + x._called()\n"
        ),
        "b": ast.parse("class _R:\n    def lent(self): pass\n"),
        "c": ast.parse("from .b import _R\ndef g(r):\n    return r.lent\n"),
    }
    assert _dead_methods(modules) == ["a.Q._hidden", "a._P.dead"]


def test_package_has_no_dead_method():
    modules = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _dead_methods(modules) == []


def _stored_private_attribute(node: ast.AST) -> str | None:
    """The private attribute name that node stores on self, by assignment
    or by `object.__setattr__(self, "_x", ...)`, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        target, name = node.value, node.attr
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
    ):
        target, name = node.args[0], node.args[1].value
    else:
        return None
    if isinstance(target, ast.Name) and target.id == "self" and name.startswith("_") and not name.startswith("__"):
        return name
    return None


def _unread_attributes(modules: dict[str, ast.Module]) -> list[str]:
    """`module.Class._x` for each private attribute that a module-level
    class stores on self and that no attribute read in the package names."""
    read = {
        n.attr
        for tree in modules.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = set()
    for module, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    name = _stored_private_attribute(node)
                    if name is not None and name not in read:
                        unread.add(f"{module}.{cls.name}.{name}")
    return sorted(unread)


def test_checker_finds_unread_attributes():
    modules = {
        "a": ast.parse(
            "class _Antichains:\n    def __init__(self, g, family):\n        self.family = family\n"
            "        self._g = g\n        self._n = len(g)\n        self._wide = 4 * self._n\n"
            "class P:\n    def __post_init__(self):\n        object.__setattr__(self, '_key', 1)\n"
            "        object.__setattr__(self, '_hash', 2)\n        other._loose = 3\n"
        ),
        "b": ast.parse("def f(p):\n    return hash(p._hash)\n"),
    }
    assert _unread_attributes(modules) == ["a.P._key", "a._Antichains._g", "a._Antichains._wide"]


def test_package_has_no_unread_attribute():
    modules = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert _unread_attributes(modules) == []
