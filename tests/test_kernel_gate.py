"""Every scaled-vector accumulation in the package goes through vec_axpy."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equihh"
MODULES = sorted(PACKAGE.glob("*.py"))


def _callee(node):
    """Name of a called function or method, or None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def copying_accumulations(source):
    """Line numbers of ``vec_add(…, vec_scale(…))``, ``vec_sub(…,
    vec_scale(…))`` and ``x = x ± y.scale(c)`` (or ``x ±= y.scale(c)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _callee(node) in ("vec_add", "vec_sub"):
            if any(_callee(arg) == "vec_scale" for arg in node.args):
                found.append(node.lineno)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            if (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Add, ast.Sub))
                and ast.unparse(value.left) == ast.unparse(node.targets[0])
                and _callee(value.right) == "scale"
            ):
                found.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
            if _callee(node.value) == "scale":
                found.append(node.lineno)
    return sorted(found)


def test_gate_finds_copying_accumulations():
    source = (
        "u = vec_add(u, vec_scale(c, v))\n"
        "w = linalg.vec_sub(w, vec_scale(c, v))\n"
        "out = out + img.scale(c)\n"
        "self.m -= other.scale(2)\n"
        "rhs = a + b.scale(-1)\n"
        "vec_axpy(u, c, v)\n"
        "t = vec_add(a, b)\n"
    )
    assert copying_accumulations(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_accumulate_kernel(path):
    assert copying_accumulations(path.read_text(encoding="utf-8")) == []
