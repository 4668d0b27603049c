"""The package's exports: every ``__all__`` name exists, and every name
``aeburst`` re-exports is in the ``__all__`` of the module it comes from,
so a deleted function cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import aeburst

MODULES = sorted(info.name for info in pkgutil.iter_modules(aeburst.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"aeburst.{name}")
    assert sorted(n for n in module.__all__ if not hasattr(module, n)) == []


def test_package_reexports_are_in_module_all():
    tree = ast.parse(Path(aeburst.__file__).read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"aeburst.{node.module}")
            stale += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in module.__all__
            ]
    assert stale == []
