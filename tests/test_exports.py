"""The package's export list is exactly what ``lossbench/__init__.py`` imports."""

import ast
from pathlib import Path

import lossbench as lb

INIT = Path(lb.__file__)


def test_all_is_the_set_of_imported_public_names():
    imported = {
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(lb.__all__) == len(set(lb.__all__)), "duplicate names in __all__"
    for name in lb.__all__:
        assert hasattr(lb, name), f"__all__ names {name}, which lossbench does not define"
    assert set(lb.__all__) == public | {"__version__"}
