"""Checks on the source of every wordcones module: the ``>>>`` examples in
its docstrings run, and it has no ``assert`` statement."""

import ast
import doctest
import importlib
import inspect
import pkgutil

import pytest

import wordcones

MODULES = sorted(name for _, name, _ in
                 pkgutil.iter_modules(wordcones.__path__, "wordcones."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("name", ["wordcones"] + MODULES)
def test_module_has_no_assert_statement(name):
    # python -O strips assert statements; a check must raise InvariantError
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} has assert statements on lines {lines}"
