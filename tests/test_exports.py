"""Every public export of every curralg module resolves to a real name."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import curralg


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(curralg.__path__)))
def test_all_names_resolve(name):
    module = importlib.import_module(f"curralg.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"curralg.{name}.__all__ names missing attributes: {missing}"
