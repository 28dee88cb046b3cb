import importlib
import pkgutil

import pytest

import radialphi

MODULES = sorted(m.name for m in pkgutil.iter_modules(radialphi.__path__))


def test_every_module_listed():
    assert {"classifier", "cli", "criteria", "model", "quadrature"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace: dict = {}
    exec(f"from radialphi.{name} import *", namespace)
    module = importlib.import_module(f"radialphi.{name}")
    assert set(module.__all__) <= set(namespace)
