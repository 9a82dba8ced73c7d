"""Every name a module lists in __all__ resolves, so `from lsbe import *`
and `from lsbe.<module> import *` cannot fail on a stale export."""

import importlib
import pkgutil

import pytest

import lsbe

MODULES = ["lsbe"] + [f"lsbe.{info.name}"
                      for info in pkgutil.iter_modules(lsbe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    assert len(set(exported)) == len(exported)
