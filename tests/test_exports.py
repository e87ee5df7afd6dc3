"""Every exported name resolves, so a deletion cannot leave a dangling export.

The package republishes each library module's ``__all__`` by wildcard
import, so the composed list must stay free of clashes.  Every module,
and every test module, also uses each name it imports, and only
``conftest.py`` imports ``subprocess``.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import spinfid

MODULES = ["spinfid"] + [f"spinfid.{info.name}" for info in pkgutil.iter_modules(spinfid.__path__)]
SOURCES = {
    **{name: Path(importlib.import_module(name).__file__) for name in MODULES[1:]},
    **{f"tests/{path.name}": path for path in sorted(Path(__file__).parent.glob("*.py"))},
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_no_name_exported_by_two_modules():
    # A later wildcard import would silently shadow an earlier module's name.
    owners = Counter(
        attr
        for name in MODULES[1:]
        for attr in getattr(importlib.import_module(name), "__all__", ())
    )
    assert [attr for attr, count in owners.items() if count > 1] == []


def test_package_exports_are_unique():
    assert len(spinfid.__all__) == len(set(spinfid.__all__))


def test_cli_entry_points_are_not_package_exports():
    assert {"main", "build_parser"}.isdisjoint(spinfid.__all__)


@pytest.mark.parametrize("name", SOURCES)
def test_every_imported_name_is_used(name):
    """A deletion must not leave its import behind.

    The benchmark tracer wraps names in the module that calls them, so a
    dead import would also keep such a pin resolving after the call it
    times is gone.  ``__init__`` is exempt: its imports are re-exports.
    """
    tree = ast.parse(SOURCES[name].read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_only_conftest_starts_child_processes():
    """Every child process starts through ``conftest.run_child``, with one environment and timeout."""
    importers = [
        name
        for name, path in SOURCES.items()
        if name.startswith("tests/") and name != "tests/conftest.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(alias.name.partition(".")[0] == "subprocess" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "subprocess")
    ]
    assert importers == []
