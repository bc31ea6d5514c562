"""Fuzzing the input boundary: bundled documents with one scalar, key or
unit changed must make `validate`, `hh` and `decompose` exit with a
documented code, print no traceback, and back every failed check (exit 1)
with a witness; with one entry of a keyed list repeated they must exit 2.
E5, the one non-abelian roster, is fuzzed in a test of its own with fewer
examples, as each of its decompose runs takes about half a second; so is
E7, the one document over Q(zeta_3) with representations."""

import contextlib
import io
import json
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from equihh.cli import EXIT_INPUT, EXIT_MATH, EXIT_OK, EXIT_TRUNCATED, main
from equihh.documents import serialize_bundle
from equihh.examples import get_example
from tests_support import cyclic_group_document, cyclotomic_z3_document

DOCUMENTS = {
    "E1": serialize_bundle(get_example("E1")),
    "E2": serialize_bundle(get_example("E2")),
    "Z6": cyclic_group_document(11),
    "E5": serialize_bundle(get_example("E5")),
    "E7": cyclotomic_z3_document(),
}


def sites(node, path=()):
    """("value", path) for every leaf and ("key", path) for every dict key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield "key", path + (key,)
            yield from sites(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from sites(value, path + (i,))
    else:
        yield "value", path


SITES = {name: list(sites(doc)) for name, doc in DOCUMENTS.items()}
LABELS = {
    name: sorted({b["label"] for h in doc["category"]["homs"] for b in h["basis"]})
    for name, doc in DOCUMENTS.items()
}
def keyed_lists(doc):
    """Paths of the non-empty lists of ``doc`` whose entries have distinct
    keys: names, hom pairs, basis labels, differential sources,
    compositions, functor morphisms and theta pairs."""
    cat, action = doc["category"], doc.get("action", {})
    paths = [("category", key) for key in ("objects", "homs", "compositions") if cat.get(key)]
    paths += [
        ("category", "homs", i, key)
        for i, h in enumerate(cat["homs"])
        for key in ("basis", "differential")
        if h.get(key)
    ]
    paths += [("group", "elements")] if "group" in doc else []
    paths += [
        ("action", "functors", g, "morphisms")
        for g, f in action.get("functors", {}).items()
        if f.get("morphisms")
    ]
    paths += [("action", "theta")] if action.get("theta") else []
    return paths + [(key,) for key in ("roster", "covering", "generators") if doc.get(key)]


SCALARS = ["0", "1", "2", "-1", "1/2", "1/0", "x", "", "cyc3:1,0"]
VALUES = SCALARS + [7, -3, None, [], {}, "pt", "s", ["pt"], {"cyclotomic": 0}]


@st.composite
def mutated_documents(draw, names, kinds=("value", "key", "unit")):
    name = draw(st.sampled_from(names))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat":
        entries = doc
        for step in draw(st.sampled_from(keyed_lists(doc))):
            entries = entries[step]
        entries.append(json.loads(json.dumps(draw(st.sampled_from(entries)))))
        return doc
    if kind == "unit":
        x = draw(st.sampled_from(doc["category"]["objects"]))
        label = draw(st.sampled_from(LABELS[name] + ["nope"]))
        doc["category"]["units"][x] = {label: draw(st.sampled_from(SCALARS))}
        return doc
    kind, path = draw(st.sampled_from([s for s in SITES[name] if s[0] == kind]))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if kind == "value":
        parent[path[-1]] = draw(st.sampled_from(VALUES + LABELS[name]))
    else:
        new_key = draw(st.sampled_from(SCALARS + LABELS[name]))
        parent[new_key] = parent.pop(path[-1])
    return doc


def run_cli(argv, text):
    """(exit code, stdout, stderr) of main(argv) with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def witnesses(payload):
    """Every violation listed in a validate report's sections."""
    found = []
    for section in payload.get("sections", {}).values():
        parts = [section] if "ok" in section else section.values()
        for part in parts:
            found.extend(part["violations"])
    return found


# The form of a validation report raised as an error: a subject, a count and
# one "[rule] witness" line per violation.
VIOLATION_ERROR = re.compile(r"error: .+: \d+ violation\(s\)(\n  \[[a-z_-]+\] .+)+\n?")


def decompose_witness(out, err):
    """Whether a decompose run that exited 1 says why: a report whose theorem
    fails, or an ``error:`` line listing the violated rules of an input."""
    if out.strip():
        return json.loads(out)["theorem_holds"] is False
    return VIOLATION_ERROR.fullmatch(err) is not None


def assert_documented_exits(doc):
    text = json.dumps(doc)
    for argv in (
        ["validate", "-"],
        ["hh", "-", "--degrees=-1..0"],
        ["decompose", "-", "--degrees=0..0", "--no-certificates"],
    ):
        code, out, err = run_cli(argv + ["--output", "json"], text)
        assert code in (EXIT_OK, EXIT_MATH, EXIT_INPUT, EXIT_TRUNCATED), (argv, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        if code == EXIT_MATH and argv[0] == "decompose":
            assert decompose_witness(out, err), (argv, out, err)
        elif code == EXIT_MATH:
            assert out.strip() and witnesses(json.loads(out)), (argv, err)


@settings(max_examples=300, deadline=None)
@given(doc=mutated_documents(["E1", "E2", "Z6"]))
def test_mutated_documents_exit_with_a_documented_code(doc):
    assert_documented_exits(doc)


@settings(max_examples=80, deadline=None)
@given(doc=mutated_documents(["E5"]))
def test_mutated_e5_documents_exit_with_a_documented_code(doc):
    assert_documented_exits(doc)


@settings(max_examples=40, deadline=None)
@given(doc=mutated_documents(["E7"]))
def test_mutated_e7_documents_exit_with_a_documented_code(doc):
    assert_documented_exits(doc)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_documents(list(DOCUMENTS), kinds=("repeat",)))
def test_a_repeated_entry_of_a_keyed_list_is_an_input_error(doc):
    text = json.dumps(doc)
    for argv in (["validate", "-"], ["hh", "-", "--degrees=-1..0"], ["decompose", "-", "--degrees=0..0"]):
        code, out, err = run_cli(argv, text)
        assert code == EXIT_INPUT and out == "", (argv, err)
        assert re.fullmatch(r"input error: \S+\[\d+\](\.name)?: repeats .+\n", err), (argv, err)
