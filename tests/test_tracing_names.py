"""The layer tracer of the benchmark (bench/tracing.py) wraps functions and
methods of the package by name; every name it lists must resolve where
the tracer looks it up, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()
TRACED = tracing.SPANS + tracing.COUNTERS


@pytest.mark.parametrize("name, attr", TRACED, ids=[name for name, _ in TRACED])
def test_traced_name_resolves_in_its_module(name, attr):
    """A "Class.method" entry is looked up in the class's own ``__dict__``,
    as the tracer replaces it; a plain entry is a callable of the module."""
    module = importlib.import_module(f"{tracing.PACKAGE}.{name.partition('.')[0]}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), attr
    else:
        assert callable(getattr(module, attr, None)), attr
