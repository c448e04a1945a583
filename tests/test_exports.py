import importlib
import inspect
import pkgutil

import pytest

import seedseg

MODULES = ["seedseg"] + [f"seedseg.{m.name}" for m in pkgutil.iter_modules(seedseg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(name)
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    }
    assert defined <= set(module.__all__), sorted(defined - set(module.__all__))
    assert all(hasattr(module, attr) for attr in module.__all__)
