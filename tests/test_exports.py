"""Every name the package and its modules list in __all__ resolves, so a star
import cannot fail on a name whose definition is gone, and each public name
has one home module."""

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


def test_each_public_name_has_one_home():
    # the package re-exports its modules' names; among the modules, a name
    # listed twice is a definition left behind after a move
    homes = {}
    for name in MODULES[1:]:
        for public in getattr(importlib.import_module(name), "__all__", ()):
            homes.setdefault(public, []).append(name)
    assert {public: where for public, where in homes.items() if len(where) > 1} == {}
