"""Every name the package and its modules list in __all__ resolves, so a star
import cannot fail on a name whose definition is gone."""

import importlib
import pkgutil

import pytest

import charge_ladder

MODULES = ["charge_ladder"] + [f"charge_ladder.{info.name}"
                               for info in pkgutil.iter_modules(charge_ladder.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
