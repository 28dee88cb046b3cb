import importlib
import pkgutil

import pytest

import radialphi
from radialphi.criteria import CriteriaError
from radialphi.operators import InversionRangeError
from radialphi.quadrature import NumericsError

MODULES = sorted(m.name for m in pkgutil.iter_modules(radialphi.__path__))


def test_every_module_listed():
    assert {"classifier", "cli", "criteria", "model", "quadrature"} <= set(MODULES)


def test_numeric_failures_share_one_base():
    # the CLI maps every numeric failure to exit 2 through this one base
    assert issubclass(InversionRangeError, NumericsError)
    assert issubclass(CriteriaError, NumericsError)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace: dict = {}
    exec(f"from radialphi.{name} import *", namespace)
    module = importlib.import_module(f"radialphi.{name}")
    assert set(module.__all__) <= set(namespace)
