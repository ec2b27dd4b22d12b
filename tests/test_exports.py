"""Export lists name only what each module defines."""
import importlib
import inspect
import pkgutil

import pytest

import butterflylab

MODULES = sorted(info.name for info in pkgutil.iter_modules(butterflylab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"butterflylab.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"{name}.__all__ lists missing {attr}"
    exec(f"from butterflylab.{name} import *", {})


def test_package_reexports_are_exported():
    # Each public package name is a submodule or sits in the __all__ of the
    # module that defines it.
    for attr, value in vars(butterflylab).items():
        if attr.startswith("_") or inspect.ismodule(value):
            continue
        assert attr in importlib.import_module(value.__module__).__all__, attr
