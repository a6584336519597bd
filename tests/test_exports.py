"""The public names: every module's ``__all__`` resolves, and the package exposes exactly the re-exported ones."""

from __future__ import annotations

import importlib
import pkgutil
import types
from collections import Counter

import pytest

import tempcert as tc

MODULES = sorted(info.name for info in pkgutil.iter_modules(tc.__path__))
# The command line and the JSON formats are reached as ``tempcert.cli`` and ``tempcert.documents``;
# every other module's ``__all__`` is star-imported by the package.
NOT_REEXPORTED = {"cli", "documents"}
REEXPORTED = [name for name in MODULES if name not in NOT_REEXPORTED]


def test_modules_are_found():
    assert NOT_REEXPORTED < set(MODULES)
    assert REEXPORTED


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"tempcert.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_exposes_every_reexported_name(name):
    module = importlib.import_module(f"tempcert.{name}")
    missing = [entry for entry in module.__all__ if getattr(tc, entry, None) is not getattr(module, entry)]
    assert missing == []


def test_no_name_is_declared_by_two_reexported_modules():
    # A star import would let the later module's object shadow the earlier one's without an error.
    counts = Counter(entry for name in REEXPORTED for entry in importlib.import_module(f"tempcert.{name}").__all__)
    assert [entry for entry, count in counts.items() if count > 1] == []


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
