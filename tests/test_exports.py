"""Every exported name resolves, so a deletion cannot leave a dangling export."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import spinfid

MODULES = ["spinfid"] + [f"spinfid.{info.name}" for info in pkgutil.iter_modules(spinfid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
