"""The library example in README.md runs as written, and its design
notes name only what the package has."""

import importlib
import pkgutil
import re
from pathlib import Path

import equihh

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_readme_dotted_names_resolve():
    """Each backticked dotted name (`module.attr`, `Class.method`) is a
    chain of attributes from a package module or a name in the namespace
    of one, so a rename or deletion leaves no stale design note."""
    modules = {
        name: importlib.import_module(f"equihh.{name}")
        for _, name, _ in pkgutil.iter_modules(equihh.__path__)
    }
    scope = {}
    for module in modules.values():
        scope.update(vars(module))
    scope.update(modules, equihh=equihh)
    text = README.read_text(encoding="utf-8")
    missing = object()
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(\))?`", text))
    assert len(names) >= 21
    for name in names:
        head, *rest = name.split(".")
        value = scope.get(head, missing)
        for attr in rest:
            value = getattr(value, attr, missing)
        assert value is not missing, name
