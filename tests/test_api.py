"""Export lists: every advertised name exists, and none is listed twice."""

import importlib
import pkgutil

import pytest

import cdut

MODULES = ["cdut"] + [
    f"cdut.{info.name}" for info in pkgutil.iter_modules(cdut.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_package_exports_are_unique():
    assert len(cdut.__all__) == len(set(cdut.__all__))
