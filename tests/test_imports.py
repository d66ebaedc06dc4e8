"""Structure guards over the package source, with the stdlib ``ast`` only:
no module imports a name it never uses (``__init__.py`` is exempt: its
imports are the package's re-exports), no module-level private name goes
unread, and each module imports only the modules its layer allows."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "finiverse"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

#: the package modules each module may import; a module imports only from below
LAYERS = {
    "errors": set(),
    "constants": {"errors"},
    "fields": {"errors"},
    "geometry": {"errors", "fields"},
    "hilbert": {"errors", "fields"},
    "regularization": {"constants", "errors"},
    "cosmology": {"constants", "errors"},
    "cli": {"constants", "cosmology", "errors", "fields", "geometry", "hilbert",
            "regularization"},
    "__init__": {"constants", "cosmology", "errors", "fields", "geometry", "hilbert",
                 "regularization"},
    "__main__": {"cli"},
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (not ``from __future__``) that no other
    node of the module reads, nor ``__all__`` lists."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nfrom typing import List\nsys.exit\n") == [
        "os (line 1)", "List (line 3)"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(trees: dict) -> list[str]:
    """Module-level ``_name``s (not dunders) that no module of ``trees``
    reads: as a name, an attribute or an imported name."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name} (line {node.lineno})" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def package_imports(tree) -> set[str]:
    """The package modules a module imports by relative import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


def test_unread_private_name_is_found():
    trees = {"a": ast.parse("_used = 1\n_CONST = 2\ndef _f(): return _used\n"),
             "b": ast.parse("from .a import _f\nclass _C: pass\n__all__ = []\n")}
    assert unread_private_names(trees) == ["a._CONST (line 2)", "b._C (line 2)"]


def test_every_module_level_private_name_is_read():
    assert unread_private_names(TREES) == []


def test_package_imports_are_found():
    tree = ast.parse("from . import a, b\nfrom .c import d\nfrom os import path\n")
    assert package_imports(tree) == {"a", "b", "c"}


def test_every_module_has_a_layer():
    assert set(TREES) == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layer(module):
    assert package_imports(TREES[module]) <= LAYERS[module]
