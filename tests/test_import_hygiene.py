"""Import hygiene of ``src/drslab``, read with ``ast``.

Every name a module imports is used in that module (``__init__.py`` only
re-exports, and ``from __future__ import annotations`` is a compiler
switch), every module-level ``_private`` name is referenced somewhere in
``src/``, and only ``operators.py``, home of the one array reader
``_points``, calls ``np.asarray`` or ``np.asanyarray``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "drslab"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    """Every name read, and every attribute taken, in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    unused = set(imported_names(tree)) - used_names(tree)
    assert not unused, f"{module} imports {sorted(unused)} without using them"


def test_every_private_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= used_names(tree)
        referenced |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    private = {
        (module, name)
        for module, tree in MODULES.items()
        for name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
    }
    unreferenced = {(module, name) for module, name in private if name not in referenced}
    assert not unreferenced, f"module-level private names nothing references: {sorted(unreferenced)}"


def array_casts(tree):
    """Line numbers of the calls of ``asarray`` or ``asanyarray``, as an
    attribute (``np.asarray``) or a bare imported name, in the tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("asarray", "asanyarray"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"operators.py"}))
def test_only_operators_casts_arrays(module):
    lines = array_casts(MODULES[module])
    assert not lines, f"{module} casts arrays on lines {lines}; read them with operators._points"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_dataclasses(module):
    # every record is an operators.Document: dataclass builds and execs methods at import
    imported = {alias.name.split(".")[0] for node in ast.walk(MODULES[module])
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(MODULES[module])
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "dataclasses" not in imported
