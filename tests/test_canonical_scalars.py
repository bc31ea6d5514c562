"""Rational scalars are canonical: an int when integral, a Fraction only
otherwise (``scalars.rational``).  Every constructor and elimination that
makes a rational returns it canonical, a category or functor built from
integral Fractions holds ints, and reports do not depend on how a
document spells an integral coefficient."""

import itertools
import json
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from equihh.cli import main
from equihh.dgcat import DgCategory, DgFunctor, Mor, algebra_category, hull_subcategory
from equihh.documents import canonical_json, serialize_bundle
from equihh.examples import get_example
from equihh.hochschild import build_window
from equihh.linalg import (
    Echelon,
    GradedSpace,
    SparseMatrix,
    matrix_inverse,
    rank_kernel_image,
)
from equihh.scalars import QQ, invert_scalar, parse_scalar, rational
from tests_support import canonical_type

NONZERO = st.integers(-12, 12).filter(bool)
DENOMINATORS = st.integers(1, 6)


def rationals(numerators=st.integers(-12, 12)):
    """p/q with q | p about half the time."""
    return st.one_of(
        st.builds(lambda p, q: Fraction(p * q, q), numerators, DENOMINATORS),
        st.builds(Fraction, numerators, DENOMINATORS),
    )


def assert_canonical(x):
    """x is an int exactly when its value is integral."""
    assert type(x) is canonical_type(x, QQ), repr(x)


def assert_all_canonical(vec):
    for x in vec.values():
        assert_canonical(x)


@given(rationals())
def test_rational_constructors_are_canonical(q):
    assert rational(q) == q
    assert_canonical(rational(q))
    for text in (str(q), f"{q.numerator * 3}/{q.denominator * 3}"):
        got = parse_scalar(text)
        assert got == q
        assert_canonical(got)
    assert QQ.embed(q) == q
    assert_canonical(QQ.embed(q))
    if q:
        for inv in (QQ.inv(q), invert_scalar(q)):
            assert inv == 1 / q
            assert_canonical(inv)


@given(rationals(NONZERO), rationals(NONZERO))
def test_echelon_returns_canonical_scalars(x, y):
    ech = Echelon()
    assert ech.add({0: x, 1: Fraction(1, 2)}, tag="a") is None
    combo = ech.add({0: y, 1: y / (2 * x)}, tag="b")
    assert combo == {"b": 1, "a": -y / x}
    assert_all_canonical(combo)
    got = ech.solve({0: y, 1: y / (2 * x)})
    assert got == {"a": y / x}
    assert_all_canonical(got)


@settings(max_examples=60)
@given(
    st.lists(rationals(), min_size=4, max_size=4),
    st.lists(rationals(NONZERO), min_size=2, max_size=2),
)
def test_kernels_and_inverses_are_canonical(entries, pivots):
    rows = [entries[:2] + [pivots[0]], entries[2:] + [pivots[1]]]
    _, kernel = rank_kernel_image(SparseMatrix.from_rows(rows))
    for vec in kernel:
        assert_all_canonical(vec)
    m = SparseMatrix.from_rows([[pivots[0], entries[0]], [0, pivots[1]]])
    assert all(type(x) is canonical_type(x, QQ) for _, _, x in m.entries())
    inv = matrix_inverse(m)
    assert inv * m == SparseMatrix.identity(2)
    for col in inv.cols:
        assert_all_canonical(col)


def test_field_constants_are_ints():
    assert (QQ.zero, QQ.one) == (0, 1)
    assert (type(QQ.zero), type(QQ.one)) == (int, int)


def test_matrix_constructors_are_canonical():
    m = SparseMatrix.from_rows([[Fraction(2), Fraction(1, 2)], [0, 3]])
    assert [type(x) for row in m.to_rows() for x in row] == [int, Fraction, int, int]
    assert type(m.get(1, 0)) is int
    assert all(type(x) is int for _, _, x in SparseMatrix.identity(3).entries())


def respelled(doc):
    """doc with each integral scalar n spelled "n/1" or "2n/2" in turn;
    labels keep their spelling."""
    spellings = itertools.cycle(["{}/1", "{}/2"])

    def walk(value, key=None):
        if isinstance(value, dict):
            return {k: walk(v, k) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, str) and key != "label" and re.fullmatch(r"-?\d+", value):
            form = next(spellings)
            n = int(value)
            return form.format(n if form.endswith("/1") else 2 * n)
        return value

    return walk(doc)


def report(path, command, capsys):
    assert main([command, "--output", "json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload.pop("runtime_seconds", None)
    return payload


def test_respelled_integral_coefficients_give_the_same_reports(tmp_path, capsys):
    doc = serialize_bundle(get_example("E1"))
    spelled = respelled(doc)
    assert spelled != doc
    assert '/1"' in canonical_json(spelled) and '/2"' in canonical_json(spelled)
    plain, fractional = tmp_path / "E1.json", tmp_path / "E1-fractions.json"
    plain.write_text(canonical_json(doc))
    fractional.write_text(canonical_json(spelled))
    for command in ("hh", "decompose"):
        assert report(fractional, command, capsys) == report(plain, command, capsys)


def fraction_built_category():
    """End(pt) = k·1 ⊕ k·g with g∘g = 2·1, every constant a Fraction."""
    one, g = (0, "1"), (0, "g")
    comp = {
        (one, one): {one: Fraction(1)},
        (one, g): {g: Fraction(1)},
        (g, one): {g: Fraction(1)},
        (g, g): {one: Fraction(2)},
    }
    return DgCategory(
        QQ,
        ["pt"],
        {("pt", "pt"): GradedSpace({0: ["1", "g"]})},
        {},
        {("pt", "pt", "pt"): comp},
        {"pt": {one: Fraction(1)}},
    )


def table_types(cat, triple):
    return {type(c) for entry in cat.comp_table(*triple).values() for c in entry.values()}


def test_fraction_built_category_holds_ints():
    cat = fraction_built_category()
    assert table_types(cat, ("pt", "pt", "pt")) == {int}
    assert type(cat.units["pt"][(0, "1")]) is int
    hull = hull_subcategory(cat, [("pt", "pt")])
    pair = (("pt", "pt"),) * 3
    assert table_types(hull, pair) == {int}
    images = {
        key: Mor("pt", "pt", {key: Fraction(sign)}) for key, sign in [((0, "1"), 1), ((0, "g"), -1)]
    }
    twist = DgFunctor(cat, cat, {"pt": "pt"}, {("pt", "pt"): images}, name="g->-g")
    assert [type(c) for mor in images.values() for c in mor.coeffs.values()] == [int, int]
    win = build_window(cat, twist, -2, 0)
    entries = [x for k in range(win.lo, win.hi) for _, _, x in win.differential(k).entries()]
    assert entries and {type(x) for x in entries} == {int}
    assert any(abs(x) == 2 for x in entries)


def test_non_integral_constant_stays_a_fraction():
    """The half basis of k[Z/2] (h = g/2, h∘h = 1/4): its one non-integral
    constant stays a Fraction, the integral ones are ints."""
    cat = algebra_category(QQ, "pt", [("1", 0), ("h", 0)], {("h", "h"): {"1": "1/4"}})
    table = dict(cat.comp_table("pt", "pt", "pt"))
    quarter = table.pop(((0, "h"), (0, "h")))
    assert quarter == {(0, "1"): Fraction(1, 4)}
    assert type(quarter[(0, "1")]) is Fraction
    assert {type(c) for entry in table.values() for c in entry.values()} == {int}
