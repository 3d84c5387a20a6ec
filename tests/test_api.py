import importlib
import pkgutil
from pathlib import Path

import pytest

import nepsolve

MODULES = ["nepsolve"] + [f"nepsolve.{m.name}" for m in pkgutil.iter_modules(nepsolve.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/tracing.py wraps these names from outside the package; a
    # refactor that moves one fails here, by name, and not inside a traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    functions = [(mod, attr) for mod, attr, _span in tracing.FUNCTIONS]
    functions.append(("nepsolve.linalg", "make_linear_solver"))
    methods = [(mod, cls, attr) for mod, cls, attr, _span in tracing.METHODS]
    methods.append(("nepsolve.linalg", "KrylovSchurDriver", "run"))
    missing = [f"{mod}.{attr}" for mod, attr in functions if not hasattr(importlib.import_module(mod), attr)]
    # Tracer.install reads a method as vars(cls)[attr]: an inherited one does not count
    missing += [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr in methods
        if attr not in vars(getattr(importlib.import_module(mod), cls, object))
    ]
    assert not missing, f"names that perfbench/tracing.py wraps are gone: {missing}"
