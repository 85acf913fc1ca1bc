"""The public names: every module's __all__ resolves, and the package root re-exports them."""

import importlib
import pkgutil

import pytest

import wgclust

MODULES = sorted(m.name for m in pkgutil.iter_modules(wgclust.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"wgclust.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"wgclust.{name}.__all__ names what it does not define: {missing}"


def test_package_root_names_are_public_module_names():
    public = {
        attr
        for name in MODULES
        for attr in getattr(importlib.import_module(f"wgclust.{name}"), "__all__", [])
    }
    root = {
        attr for attr in vars(wgclust)
        if not attr.startswith("_") and attr not in MODULES
    }
    assert root <= public, f"root names no module exports: {sorted(root - public)}"
