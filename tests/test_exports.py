import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hsg

MODULES = sorted(info.name for info in pkgutil.iter_modules(hsg.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hsg.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"hsg.{name}.__all__ names missing objects: {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(Path(hsg.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"hsg.{module}"), name), (module, name)
        assert hasattr(hsg, name), name
