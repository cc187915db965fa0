import ast
from pathlib import Path

import recurtest


def test_every_name_in_all_resolves():
    assert len(set(recurtest.__all__)) == len(recurtest.__all__)
    for name in recurtest.__all__:
        assert hasattr(recurtest, name), name


def test_every_public_import_is_in_all():
    tree = ast.parse(Path(recurtest.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public and public <= set(recurtest.__all__)
