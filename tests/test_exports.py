"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import moyal_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(moyal_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"moyal_lab.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    """Each name ``moyal_lab/__init__.py`` imports is in its module's ``__all__``."""
    tree = ast.parse(Path(moyal_lab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"moyal_lab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(moyal_lab, alias.asname or alias.name) is getattr(module, alias.name)
