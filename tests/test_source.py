"""Checks on the package source itself."""

import ast
from pathlib import Path

import rigidkit

PACKAGE = Path(rigidkit.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # internal checks must raise real exceptions so they still run under -O
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
