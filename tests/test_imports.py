"""Source hygiene: every name a module imports is used in it, no module
imports another's private names, and the names the benchmark harness relies
on exist."""

from __future__ import annotations

import ast
import importlib.util
import json
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


# (importing module, source module, private name) pairs allowed, each with
# its reason.
PRIVATE_IMPORTS_ALLOWED = {
    # The one Gauss-Legendre partial-integral rule: super_family's exponent
    # time map integrates with the same nodes as the wave table.
    ("barriers", "wave", "_gl_partial"),
}


def _private_imports(module: str, source: str):
    """(module, source module, name) for each ``from .other import _name``;
    the package's own attributes (``from . import __version__``) and private
    modules (``from ._scalar import root``) name no private object."""
    return sorted((module, node.module, alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_cross_module_import(path):
    found = _private_imports(path.stem, path.read_text())
    assert [entry for entry in found
            if entry not in PRIVATE_IMPORTS_ALLOWED] == []


def test_the_check_sees_a_private_import():
    source = ("from . import __version__\nfrom ._scalar import root\n"
              "from .wave import WaveProfile, _gl_partial\n"
              "from .solver import _march\n")
    assert _private_imports("barriers", source) == [
        ("barriers", "solver", "_march"), ("barriers", "wave", "_gl_partial")]


# The benchmark harness and its declared metrics, read as text: the names
# they rely on must keep existing, so a rename fails here at once rather
# than only in the benchmark's own self-test.
ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_imports_exist_on_the_package():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "singflow"
             for alias in node.names]
    assert "verify_inequality" in names
    missing = [name for name in names if not hasattr(singflow, name)
               and importlib.util.find_spec(f"singflow.{name}") is None]
    assert missing == []


def test_benchmark_suite_layers_name_the_suite_checks():
    from singflow import suite

    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    prefix = "suite.check_ms."
    declared = [layer["name"][len(prefix):] for layer in layers
                if layer["name"].startswith(prefix)]
    assert sorted(declared) == sorted(name for name, _ in suite.CHECKS)
