"""The package's public surface: every export resolves, none is missing,
and every exported function has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import immse

# Submodule exports the package re-exports under another name.
RENAMED = {("sdp", "solve"): "solve_sdp"}
MODULES = ("linalg", "model", "riccati", "sdp", "design", "validate", "zdsc", "cli")


def test_every_package_export_resolves():
    assert len(set(immse.__all__)) == len(immse.__all__)
    missing = [name for name in immse.__all__ if not hasattr(immse, name)]
    assert not missing


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_export_is_a_package_export(module_name):
    module = importlib.import_module(f"immse.{module_name}")
    for name in module.__all__:
        alias = RENAMED.get((module_name, name), name)
        assert alias in immse.__all__, f"immse.{module_name}.{name} is not exported"
        if module_name != "cli":  # the package's main imports the CLI lazily
            assert getattr(immse, alias) is getattr(module, name)


def _names_used(path: Path) -> set[str]:
    """Every identifier a file reads, as a name or an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_exported_function_has_a_caller_outside_the_tests():
    # An export only tests call is a second copy of some rule or dead
    # code.  Definitions, imports, __all__ and docstrings do not count.
    repo = Path(__file__).resolve().parents[1]
    files = [path for path in (repo / "src" / "immse").glob("*.py") if path.name != "__init__.py"]
    files += [*(repo / "demos").rglob("*.py"), *(repo / "bench").rglob("*.py")]
    used = set().union(*map(_names_used, files))
    unused = [
        name
        for name in immse.__all__
        if inspect.isfunction(getattr(immse, name)) and getattr(immse, name).__name__ not in used
    ]
    assert not unused
