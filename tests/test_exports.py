"""Each library module's ``__all__`` lists exactly its public definitions."""

import importlib
import inspect
import pkgutil

import pytest

import edge_lab

# The command-line entry point is imported by no other module and keeps
# no export list; every other module does.
MODULES = ["edge_lab"] + [f"edge_lab.{m.name}"
                          for m in pkgutil.iter_modules(edge_lab.__path__)
                          if m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_lists_every_public_definition(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    unlisted = sorted(set(defined) - set(exported))
    assert not unlisted, f"public definitions missing from __all__: {unlisted}"
