"""numpy is the only runtime dependency: every module of the package imports
only the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "gradedgrowth"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gradedgrowth"}


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_found():
    assert len(list(SRC.glob("*.py"))) > 10


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imported_roots(tree) <= ALLOWED, sorted(imported_roots(tree) - ALLOWED)
