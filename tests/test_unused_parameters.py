"""Every parameter of a function of the package is read by its body."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equihh"
MODULES = sorted(PACKAGE.glob("*.py"))


def _only_raises_not_implemented(fn):
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unused_parameters(source):
    """(line, function, parameter) for every parameter that no expression
    of its function's body reads.  ``self``, ``cls``, names starting with
    ``_``, lambdas and methods that only raise NotImplementedError are
    exempt; a read inside a nested function counts."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _only_raises_not_implemented(fn):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for a in params:
            if a.arg in ("self", "cls") or a.arg.startswith("_") or a.arg in read:
                continue
            out.append((fn.lineno, fn.name, a.arg))
    return sorted(out)


def test_checker_finds_unused_parameters():
    source = (
        "def f(a, b, _c, *rest, key=1, **extra):\n"
        "    def inner(x):\n"
        "        return a + x\n"
        "    return inner\n"
        "class K:\n"
        "    def m(self, y):\n"
        "        raise NotImplementedError\n"
        "    @classmethod\n"
        "    def n(cls, z):\n"
        "        '''doc'''\n"
        "        return lambda w: 0\n"
    )
    assert unused_parameters(source) == [
        (1, "f", "b"),
        (1, "f", "extra"),
        (1, "f", "key"),
        (1, "f", "rest"),
        (9, "n", "z"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []
