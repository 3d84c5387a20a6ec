import importlib
import pkgutil

import pytest

import nepsolve

MODULES = ["nepsolve"] + [f"nepsolve.{m.name}" for m in pkgutil.iter_modules(nepsolve.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
