"""The public surface: ``trispin.__all__`` lists exactly what the package imports.

``__init__.py`` re-exports names from its modules; ``__all__`` must name each
of them once, and nothing else but ``__version__``, so that a function
deleted from its module cannot linger in the list.
"""

import ast
from pathlib import Path

import trispin


def imported_public_names():
    """The names without a leading underscore that ``__init__.py`` imports."""
    tree = ast.parse(Path(trispin.__file__).read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return {name for name in names if not name.startswith("_")}


def test_every_listed_name_resolves():
    missing = [name for name in trispin.__all__ if not hasattr(trispin, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    assert len(trispin.__all__) == len(set(trispin.__all__))


def test_all_lists_the_imported_names():
    assert set(trispin.__all__) == imported_public_names() | {"__version__"}
