"""Every exported name resolves, so a deletion cannot leave a dangling export.

The package republishes each library module's ``__all__`` by wildcard
import, so the composed list must stay free of clashes.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter

import pytest

import spinfid

MODULES = ["spinfid"] + [f"spinfid.{info.name}" for info in pkgutil.iter_modules(spinfid.__path__)]


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
