"""Rational scalars are canonical (an int when integral): outside
``scalars``, the package makes a Fraction only as the direct argument of
``rational(...)`` or ``embed(...)``, which make it canonical."""

import ast
from pathlib import Path

import pytest

from test_kernel_gate import _callee

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equihh"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "scalars.py")
CANONICALIZING = ("rational", "embed")


def bare_fractions(source):
    """Line numbers of ``Fraction(...)`` calls that are not a direct
    argument of ``rational(...)`` or ``embed(...)``."""
    tree = ast.parse(source)
    wrapped = {
        id(arg)
        for node in ast.walk(tree)
        if _callee(node) in CANONICALIZING
        for arg in node.args
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _callee(node) == "Fraction" and id(node) not in wrapped
    )


def test_gate_finds_bare_fractions():
    source = (
        "x = Fraction(1, 2)\n"
        "y = fractions.Fraction(3)\n"
        "z = rational(Fraction(x, d))\n"
        "w = field.embed(Fraction(1, n))\n"
        "v = rational(Fraction(1) + Fraction(1, 2))\n"
        "u = f(Fraction(2))\n"
        "t = isinstance(x, Fraction)\n"
    )
    assert bare_fractions(source) == [1, 2, 5, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_fraction(path):
    assert bare_fractions(path.read_text(encoding="utf-8")) == []
