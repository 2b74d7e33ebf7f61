import importlib
import pkgutil

import pytest

import gwve

MODULES = ["gwve"] + sorted(f"gwve.{m.name}" for m in pkgutil.iter_modules(gwve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, "every module declares its public names"
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)
