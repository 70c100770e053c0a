"""Every name a module of the package or of its tests imports is used in
that module, every private module-level name is used somewhere in the
package, no module behaves differently under ``python -O``, no search
keeps its state on a ``Complex``, and the package's source stays within
its line budget.

No linter ships with the package's test dependencies, so this reads
each source file with ``ast``.  The package ``__init__`` is exempt for
the names it re-exports through ``__all__``.
"""

import ast
import pathlib

import pytest

import plmarkov

SRC = pathlib.Path(plmarkov.__file__).parent
TESTS = pathlib.Path(__file__).parent

# lines of src/plmarkov/*.py at the start of the round; ROADMAP aim 2
# asks the package not to grow past them
MAX_SOURCE_LINES = 4292


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
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


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def test_every_private_name_is_referenced():
    defined = {}
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name in _private_definitions(tree):
            defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert sorted((f, n) for n, f in defined.items() if n not in referenced) == []


def test_no_check_depends_on_debug_mode():
    """``python -O`` strips ``assert`` statements and makes ``__debug__``
    false; the self-checks raise explicitly, so both modes run them."""
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


# the modules whose data a Complex caches: its own derived tables and
# the homology profile
CACHE_OWNERS = {"complex_core.py", "invariants.py"}


def test_no_search_keeps_its_state_on_a_complex():
    """A search's tables live for one search: outside the modules whose
    data a ``Complex`` caches, no code touches ``_cache``."""
    found = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py")) if path.name not in CACHE_OWNERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
    ]
    assert found == []


def test_source_stays_within_the_line_budget():
    total = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert total <= MAX_SOURCE_LINES
