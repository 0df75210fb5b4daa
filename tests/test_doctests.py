"""Checks on the source of every wordcones module: the ``>>>`` examples in
its docstrings run, and it has no ``assert`` statement.  The README's
library example runs too, with the results its comments state."""

import ast
import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

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


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    """The README's python block runs, and each expression in it prints the
    result its comment states, inline or on the line below."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        last = lines[stmt.end_lineno - 1]
        after = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        comment = last.partition("#")[2] or after.strip().removeprefix("#")
        assert repr(value) == comment.strip(), ast.unparse(stmt)
        checked += 1
    assert checked == 4
