"""Every name a module of the package exports must exist in it."""

import importlib
import pkgutil

import pytest

import eigenbounds

MODULES = [m.name for m in pkgutil.iter_modules(eigenbounds.__path__,
                                                "eigenbounds.")]


def test_every_module_is_found():
    assert "eigenbounds.problems" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__
            if not hasattr(module, attr)] == []
