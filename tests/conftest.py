import importlib
import pkgutil

import pytest

import crystal_lab
from crystal_lab import PrecisionContext
from crystal_lab.extension_group import _derived

# every module of the package, so that no binding of _derived is missed
MODULES = [importlib.import_module(f"crystal_lab.{info.name}")
           for info in pkgutil.iter_modules(crystal_lab.__path__)]


def checked(cls, *values):
    """_derived through the validating constructor."""
    return cls(*values)


@pytest.fixture(autouse=True)
def derived_records_are_checked(monkeypatch):
    """Every record the package derives unchecked is checked after all.

    Each ``_derived`` call site claims that its operation keeps every
    condition the record's constructor checks; routing the calls through
    the constructor makes every test run check those claims.
    """
    for module in MODULES:
        if getattr(module, "_derived", None) is _derived:
            monkeypatch.setattr(module, "_derived", checked)


@pytest.fixture
def ctx3():
    return PrecisionContext(3, 8, 32)


@pytest.fixture
def ctx5():
    return PrecisionContext(5, 8, 32)
