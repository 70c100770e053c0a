"""Every name a module of the package imports is used in that module.

No linter ships with the package's test dependencies, so this reads
each source file with ``ast``.  The package ``__init__`` is exempt for
the names it re-exports through ``__all__``.
"""

import ast
import pathlib

import pytest

import plmarkov

SRC = pathlib.Path(plmarkov.__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(plmarkov.__all__)
    assert sorted(imported - used) == []
