"""Public-API guard: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import sdhawkes

MODULES = ["sdhawkes"] + [f"sdhawkes.{m.name}"
                          for m in pkgutil.iter_modules(sdhawkes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
