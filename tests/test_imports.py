"""Every name a module of the package imports is used in that module, no
module imports a sibling's private (underscore-prefixed) name, and no
function body imports a module of the package."""

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


def from_package(node):
    """Whether ``node`` is a ``from ... import`` of a module of the package."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").startswith("equihh")
    )


def private_sibling_imports(source):
    """(line, module, name) for each underscore-prefixed name imported from
    another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if from_package(node):
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


def package_imports_in_functions(source):
    """(line, module) for each import of a module of the package inside a
    function or method body, nested ones included, each reported once."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if from_package(node):
                found.add((node.lineno, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                found.update(
                    (node.lineno, alias.name)
                    for alias in node.names
                    if alias.name.split(".")[0] == "equihh"
                )
    return sorted(found)


def test_checker_finds_package_imports_in_functions():
    source = (
        "from .dgcat import Mor\n"
        "import itertools\n"
        "def f():\n"
        "    from .scalars import QQ\n"
        "    import itertools as it\n"
        "    def g():\n"
        "        import equihh.linalg\n"
        "class A:\n"
        "    def m(self):\n"
        "        from equihh.groups import FiniteGroup\n"
        "        from . import errors\n"
    )
    assert package_imports_in_functions(source) == [
        (4, ".scalars"),
        (7, "equihh.linalg"),
        (10, "equihh.groups"),
        (11, "."),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_in_functions(path):
    assert package_imports_in_functions(path.read_text(encoding="utf-8")) == []
