"""Every name a module of the package imports is used in that module, and
no module imports a sibling's private (underscore-prefixed) name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equihh"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements (anywhere in the module) that no
    expression reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_names():
    source = "import os\nfrom x import a, b as c\nfrom __future__ import annotations\nprint(a)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_sibling_imports(source):
    """(line, module, name) for each underscore-prefixed name imported from
    another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("equihh")
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, node.module, alias.name))
    return found


def test_checker_finds_private_sibling_names():
    source = (
        "from .equivariant import symmetrize, _shift\n"
        "from equihh.linalg import _echelon\n"
        "from os import _exit\n"
        "from __future__ import annotations\n"
    )
    assert private_sibling_imports(source) == [
        (1, "equivariant", "_shift"),
        (2, "equihh.linalg", "_echelon"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []
