"""The package's public surface: every export resolves, none is missing,
and every exported function has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

import immse
from test_linalg import _fresh_output

# Submodule exports the package re-exports under another name.
RENAMED = {("sdp", "solve"): "solve_sdp"}
MODULES = ("errors", "linalg", "model", "riccati", "sdp", "design", "validate", "zdsc", "cli")


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


# Run in a fresh interpreter, so that nothing but a bare ``import immse``
# has loaded the solver modules before the package resolves them.
LAZY_PROBE = """
import json, sys, immse
before = sorted(name for name in sys.modules if name.startswith("immse"))
same = immse.sdp.solve is immse.solve_sdp
cached = "solve_sdp" in vars(immse)
try:
    immse.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
listed = {module: sorted(immse._RENAMED.get(name, name) for name in names)
          for module, names in immse._LAZY_EXPORTS.items()}
exports = {module: sorted(getattr(immse, module).__all__) for module in immse._LAZY_EXPORTS}
print(json.dumps([before, same, cached, unknown, listed, exports, sorted(dir(immse))]))
"""


def test_lazy_exports_resolve_on_first_use():
    before, same, cached, unknown, listed, exports, names = json.loads(_fresh_output(LAZY_PROBE))
    assert before == ["immse", "immse.errors", "immse.model"]
    assert same and cached
    assert unknown == "module 'immse' has no attribute 'no_such_name'"
    # A name added to a solver module's __all__ must be added to the map.
    assert listed == exports
    assert set(immse.__all__) <= set(names)


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
