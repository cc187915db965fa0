import ast
import importlib
import inspect
from pathlib import Path

import pytest

import recurtest


def test_every_name_in_all_resolves():
    assert len(set(recurtest.__all__)) == len(recurtest.__all__)
    for name in recurtest.__all__:
        assert hasattr(recurtest, name), name


def test_every_public_import_is_in_all():
    # The package imports its public names through one table, which is
    # __all__; its body binds none of them by an import statement.
    assert recurtest.__all__ == ["__version__", *recurtest._EXPORTS]
    tree = ast.parse(Path(recurtest.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported and not imported & set(recurtest.__all__)


@pytest.mark.parametrize("name", sorted(recurtest._EXPORTS))
def test_every_public_name_comes_from_its_module(name):
    module = importlib.import_module(f"recurtest.{recurtest._EXPORTS[name]}")
    value = getattr(recurtest, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        recurtest.nope
