"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import rigidkit

PACKAGE = Path(rigidkit.__file__).resolve().parent


def _nodes():
    """(location, node) for every AST node of every module in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_the_package():
    # internal checks must raise real exceptions so they still run under -O
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_the_package_imports_only_the_standard_library():
    # the runtime package has no dependencies outside the standard library
    found = []
    for where, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{where} {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
