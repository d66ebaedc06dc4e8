"""Structure guards over the package source, with the stdlib ``ast`` only:
no module imports a name it never uses (``__init__.py`` is exempt: it
re-exports each library module's ``__all__``), no module-level private
name goes unread, every public name is read by something outside the
library, each module imports only the modules its layer allows, and no
reference oracle under ``tests/`` imports a private name of the package."""

import ast
import importlib
import pathlib
import re
from types import ModuleType

import pytest

from finiverse.errors import FiniverseError

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "finiverse"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

#: the independent oracles the kernels are checked against
REFERENCES = sorted((ROOT / "tests").glob("*_reference.py"))

#: the library modules, whose ``__all__`` lists are the public names
LIBRARY = ("errors", "constants", "fields", "geometry", "hilbert", "regularization", "cosmology")

#: what reads the library: the CLI, the demos, the README's python blocks
#: and the benchmark harness
CONSUMERS = [
    (PACKAGE / "cli.py").read_text(),
    *(path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))),
    *re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S),
    *(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))),
]

#: public names that no consumer needs to read, each with its reason; a
#: FiniverseError subclass passes without a listing, since callers catch it
UNREAD_ALLOWED = {
    "AxiomReport": "verify_field_axioms and check_metric_axioms return it",
    "Line": "enumerate_lines returns a list of them",
    "IncidenceStructure": "incidence_structure returns it",
    "HesseCheck": "check_hesse_property returns it",
    "OrdinaryLineResult": "find_ordinary_line returns it",
    "ORDINARY": "the status of an OrdinaryLineResult that is not COLLINEAR",
    "ScaleFactorTrajectory": "evolve_scale_factor returns it",
    "Constants": "load_config returns it, with CosmologyParams",
    "CosmologyParams": "load_config returns it, with Constants",
    "ENUMERATION_CAP": "the documented cap of enumerate_elements",
    "AXIOM_CHECK_CAP": "the documented cap of the axiom battery",
    "INCIDENCE_CAP": "the documented cap of enumerate_lines",
    "BERNOULLI_MAX": "the documented range of bernoulli",
    "LINEAR_GUARD": "the documented |H0*dt| bound of LinearityWarning",
}

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


def exports(tree) -> list[str]:
    """The names a module's ``__all__`` lists, none when it has none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


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
    used.update(exports(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_exports_each_library_module_all():
    """The public names are the union of the library's ``__all__`` lists
    and the submodules (``cli`` too, once something has imported it)."""
    package = importlib.import_module("finiverse")
    public = {name for name in vars(package) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(package, name), ModuleType)}
    declared = {name for module in LIBRARY for name in exports(TREES[module])}
    assert public - modules == declared
    assert set(LIBRARY) <= modules <= {*LIBRARY, "cli"}
    assert package.__version__


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nfrom typing import List\nsys.exit\n") == [
        "os (line 1)", "List (line 3)"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def read_names(tree) -> set[str]:
    """The names a module reads: as a name, an attribute or an imported name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_names(trees: dict) -> list[str]:
    """Module-level ``_name``s (not dunders) that no module of ``trees``
    reads: as a name, an attribute or an imported name."""
    read = set().union(*map(read_names, trees.values()))
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


def read_by_name(source: str) -> set[str]:
    """``read_names`` of a consumer, plus each part of a string that is a
    dotted name: ``getattr(module, "name")``, ``"hilbert.conjugate"``.
    Prose is no read, and neither is a walk over ``__all__``."""
    tree = ast.parse(source)
    read = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def unread_exports(trees: dict, consumers: list[str], excused) -> list[str]:
    """``module.name`` for each name in a module's ``__all__`` that no
    consumer reads by name and ``excused(module, name)`` does not pass."""
    read = set().union(*map(read_by_name, consumers))
    return [f"{module}.{name}" for module, tree in trees.items() for name in exports(tree)
            if name not in read and not excused(module, name)]


def _excused(module: str, name: str) -> bool:
    value = getattr(importlib.import_module(f"finiverse.{module}"), name)
    return name in UNREAD_ALLOWED or isinstance(value, type) and issubclass(value, FiniverseError)


def test_unread_export_is_found():
    trees = {"a": ast.parse("__all__ = ['f', 'g', 'h', 'k', 'Err', 'prose', 'walked']\n"),
             "b": ast.parse("x = 1\n")}
    consumers = ["import a\na.f()\nfrom a import g\n", "getattr(a, 'h')\nCOUNTS = {'a.k.calls'}\n",
                 '"""Mentions prose in a docstring."""\nfor n in a.__all__: getattr(a, n)\n']
    assert unread_exports(trees, consumers, lambda module, name: name == "Err") == [
        "a.prose", "a.walked"]


def test_every_export_is_read_or_allowed():
    trees = {module: TREES[module] for module in LIBRARY}
    assert unread_exports(trees, CONSUMERS, _excused) == []


def test_every_allowed_name_is_an_unread_export():
    """An allow-list entry that is gone, or that a consumer now reads, goes."""
    listed = {name for module in LIBRARY for name in exports(TREES[module])}
    read = set().union(*map(read_by_name, CONSUMERS))
    assert set(UNREAD_ALLOWED) <= listed - read


def test_package_imports_are_found():
    tree = ast.parse("from . import a, b\nfrom .c import d\nfrom os import path\n")
    assert package_imports(tree) == {"a", "b", "c"}


def test_every_module_has_a_layer():
    assert set(TREES) == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layer(module):
    assert package_imports(TREES[module]) <= LAYERS[module]


def private_imports(tree) -> list[str]:
    """The underscore names a module imports from the package."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "finiverse"
            for alias in node.names if alias.name.startswith("_")]


def test_private_import_is_found():
    tree = ast.parse("from finiverse.geometry import _cross, squared_distance\n"
                     "from finiverse import _x\nfrom os import _exit\nfrom . import _y\n")
    assert private_imports(tree) == ["finiverse.geometry._cross", "finiverse._x"]


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_reference_imports_no_private_name(path):
    """An oracle that borrows a kernel's helper would share its mistakes."""
    assert private_imports(ast.parse(path.read_text())) == []
