"""Package layout: no definition only tests reach, no third-party import,
no ``dataclasses``."""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import ddlmc

PACKAGE = Path(ddlmc.__file__).parent


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _reads(stmt: ast.stmt, module: str) -> set[str]:
    """Names a top-level statement reads; ``__init__`` also re-exports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and module == "__init__":
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_definition_is_reached_from_the_package():
    # a function or class that no top-level statement of the package but
    # its own reads, and that the package does not export, is code only
    # tests call
    modules = _modules()
    reads = {
        (module, id(stmt)): _reads(stmt, module)
        for module, tree in modules.items()
        for stmt in tree.body
    }
    readers = Counter(name for names in reads.values() for name in names)
    unreached = [
        f"{module}.{stmt.name}"
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and readers[stmt.name] == (stmt.name in reads[module, id(stmt)])
    ]
    assert unreached == []


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import in tree."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_the_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"ddlmc"}
    foreign = {
        f"{module}: {root}"
        for module, tree in _modules().items()
        for root in _imported_roots(tree) - allowed
    }
    assert foreign == set()


def test_the_package_does_not_import_dataclasses():
    """Every CLI call imports the package in a fresh interpreter, and
    ``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``) plus the
    methods it generates per class cost each call about 30 ms; the records
    share ``formula.Record`` instead.  The check reads the source, not
    ``sys.modules``: on Python 3.13 ``argparse`` itself loads ``inspect``."""
    importers = {module for module, tree in _modules().items() if "dataclasses" in _imported_roots(tree)}
    assert importers == set()
