"""Package layout: no definition only tests reach, no third-party import,
no ``dataclasses``, no ``multiprocessing`` or ``concurrent``, and a CLI
call that loads only the modules its command runs."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    # tests call; a module-level dunder (the package's ``__getattr__``) is
    # called by the import system
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
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
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


def test_the_package_does_not_import_multiprocessing_or_concurrent():
    """``forks.fork_map`` forks with ``os.fork`` and sends results over
    pipes as ``marshal`` data.  Importing ``multiprocessing`` or
    ``concurrent.futures`` costs every CLI call about 23 ms and 2.2 MB of
    peak resident set."""
    importers = {
        f"{module}: {root}"
        for module, tree in _modules().items()
        for root in _imported_roots(tree) & {"multiprocessing", "concurrent"}
    }
    assert importers == set()


# The modules every search command runs; ``import ddlmc.cli`` loads these
# and no other ddlmc module.
SEARCH_MODULES = {
    "ddlmc", "ddlmc.cli", "ddlmc.formula", "ddlmc.model", "ddlmc.relprops", "ddlmc.semantics",
    "ddlmc.finder",
}

# Run in a fresh interpreter: pytest has imported every module already, which
# would hide a command that uses a module it does not import.  The process
# may run on two CPUs, so the three tables fork one child each.
_LOADED = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
import ddlmc.cli
before = {m for m in sys.modules if m.split(".")[0] == "ddlmc"}
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ddlmc.cli.main(sys.argv[1:])
after = {m for m in sys.modules if m.split(".")[0] == "ddlmc"}
print(json.dumps({
    "import": sorted(before), "added": sorted(after - before), "code": code, "pickle": "pickle" in sys.modules,
}))
"""


def _fresh(*argv: str) -> dict:
    """The ddlmc modules that ``import ddlmc.cli`` loads in a fresh
    interpreter on two CPUs, those that ``main(argv)`` adds, its exit code
    and whether ``pickle`` is loaded after it."""
    root = PACKAGE.parent.parent
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv, added, code", [
    ("", (), None),
    ("find-model p --max-n 1", (), 0),
    ("eval --model tests/fixtures/two_chain.pm p", (), 1),
    ("collapse --max-n 2", (), 0),
    ("paradox --max-n 2", ("casestudy", "forks"), 1),
    ("correspond --table --max-n 2", ("forks", "schemas"), 1),
    ("lattice --max-n 2", ("forks", "lattice"), 1),
])
def test_a_cli_call_loads_only_the_modules_its_command_runs(argv, added, code):
    loaded = _fresh(*argv.split())
    assert set(loaded["import"]) == SEARCH_MODULES
    assert loaded["added"] == [f"ddlmc.{module}" for module in added]
    assert loaded["code"] == code
    # forked results cross as marshal data: pickle waits for an item that raises
    assert loaded["pickle"] is False


LAZY = {
    "schemas": ("SCHEMAS", "converse_search", "forward_check", "table_sweep"),
    "casestudy": ("run_grid",),
    "lattice": ("Confirmed", "Witness", "lattice_report", "property_implication"),
}


@pytest.mark.parametrize("module, names", LAZY.items())
def test_lazy_exports_are_the_objects_of_their_module(module, names):
    from importlib import import_module

    home = import_module(f"ddlmc.{module}")
    for name in names:
        assert getattr(ddlmc, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        getattr(ddlmc, "nothing")
