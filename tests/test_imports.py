"""Source hygiene: every name a module imports is used in it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import singflow

MODULES = sorted(Path(singflow.__file__).parent.glob("*.py"))


def _unused_imports(source: str):
    """Imported names that no expression reads and ``__all__`` does not
    list, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("import math\nfrom typing import Dict, List\n"
              "from os import sep\n__all__ = ['sep']\nx: List = []\n")
    assert _unused_imports(source) == [(1, "math"), (2, "Dict")]
