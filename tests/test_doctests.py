"""Run the ``>>>`` examples in the docstrings of every wordcones module."""

import doctest
import importlib
import pkgutil

import pytest

import wordcones

MODULES = sorted(name for _, name, _ in
                 pkgutil.iter_modules(wordcones.__path__, "wordcones."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
