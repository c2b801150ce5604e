"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import rigidkit

PACKAGE = Path(rigidkit.__file__).resolve().parent


def _modules():
    """(relative path, AST) for every module in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE), ast.parse(path.read_text(encoding="utf-8"),
                                                   filename=str(path))


def _nodes():
    """(location, node) for every AST node of every module in the package."""
    for path, tree in _modules():
        for node in ast.walk(tree):
            yield f"{path}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_the_package():
    # internal checks must raise real exceptions so they still run under -O
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_no_assert_statements_in_the_test_helpers():
    # python -O drops every assert that pytest does not rewrite, so the
    # helpers raise real exceptions and the -O run checks what the plain one does
    tests = Path(__file__).resolve().parent
    found = [f"{name}:{node.lineno}" for name in ("oracles.py", "degenerate.py", "conftest.py")
             for node in ast.walk(ast.parse((tests / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_private_function_and_class_is_used_in_the_package():
    # a private module-level definition that no other code of the package
    # names has lost its last caller: it is dead code
    private, used = [], set()
    for path, tree in _modules():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                private.append((f"{path}:{stmt.lineno}", own))
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    assert [f"{where} {name}" for where, name in private if name not in used] == []


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


def test_every_parameter_of_every_def_is_read():
    # a parameter that its body never reads is inert: every caller passes it
    # for nothing (lambdas are exempt, since they fill a fixed signature)
    unread = []
    for where, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{where} {node.name}({p})" for p in params if p not in read]
    assert unread == []
