import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_use(capsys):
    # the README's "Library use" block runs as written and prints one line
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(code, {})
    line, = capsys.readouterr().out.splitlines()
    converged, residual, verdict, rule = line.split()
    assert (converged, verdict, rule) == ("True", "both_large", "large_both")
    assert 0.0 <= float(residual) < 1e-6
