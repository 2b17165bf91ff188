"""The package's public surface: every export resolves, none is missing."""

from __future__ import annotations

import importlib

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
