import importlib
import pkgutil

import pytest

import surfrates

MODULES = sorted(m.name for m in pkgutil.iter_modules(surfrates.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"surfrates.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert missing == []


def test_package_all_unique_and_resolves():
    exported = surfrates.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(surfrates, attr)]
    assert missing == []
