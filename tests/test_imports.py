"""The library imports only what the README promises: the standard library, numpy and requests."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "aekit").glob("*.py"))
RUNTIME = {"numpy", "requests", "aekit"}


def imported_modules(tree):
    """The top-level name of every module an absolute import in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_is_walked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "gateway.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_requests_or_aekit(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(
        name for name in set(imported_modules(tree))
        if name not in RUNTIME and name not in sys.stdlib_module_names
    )
    assert foreign == []
