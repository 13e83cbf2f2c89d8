"""The package exports only names that have a caller."""

import ast
import re
from pathlib import Path

import orlipde

PACKAGE = Path(orlipde.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def exported_names():
    """Names ``orlipde/__init__.py`` re-exports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_export_has_a_caller():
    # a caller is the CLI, the config layer or a test module other than this one
    callers = [PACKAGE / "cli.py", PACKAGE / "config.py"]
    callers += [p for p in sorted(TESTS.glob("test_*.py")) if p.name != Path(__file__).name]
    text = "\n".join(p.read_text() for p in callers)
    names = exported_names()
    assert len(names) > 50
    uncalled = [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not uncalled, f"exported without a caller: {uncalled}"
    assert all(hasattr(orlipde, name) for name in names)
