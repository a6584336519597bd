"""The public names: every module's ``__all__`` resolves, and the package exposes only those."""

from __future__ import annotations

import importlib
import types

import pytest

import tempcert as tc

MODULES = ["channels", "cli", "documents", "ensembles", "operators", "retrodiction", "sot", "temporal"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"tempcert.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_exposes_only_module_exports():
    exported = {
        id(getattr(module, entry))
        for module in (importlib.import_module(f"tempcert.{name}") for name in MODULES)
        for entry in module.__all__
    }
    public = {
        name: value
        for name, value in vars(tc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public
    stray = [name for name, value in public.items() if id(value) not in exported]
    assert stray == []
