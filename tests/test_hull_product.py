"""The blockwise hull product against the hull composition tables.

``dgcat.hull_compose`` reads f∘g for hull morphisms off the base's
composition tables, block by block, where ``DgCategory.compose`` builds
and reads the hull table of the triple; ``dgcat.hull_product`` gives
f∘g for every f of a family in one pass.  On random morphisms of every
``EQCATS`` roster's hull, the cyclotomic one included, and of a hull over
a base with several objects, graded keys, real compositions and a
differential, both give the same coefficients, in the same key order and
with the same scalar types, and the same StructureError on a pair that
does not compose.  A spy on the hull's composition builder shows which
tables a decompose op still builds: none while the equivariant category
is solved and validated or its composition tables are built, only those
the windows over hulls read."""

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equihh.equivariant as equivariant
import equihh.hochschild as hochschild
from equihh.cli import EXIT_OK, main
from equihh.dgcat import (
    Mor,
    hull_compose,
    hull_index,
    hull_product,
    hull_subcategory,
    validate_dgcat,
)
from equihh.documents import parse_document, serialize_bundle
from equihh.errors import StructureError
from equihh.examples import get_example
from equihh.scalars import Cyc
from test_equivariant_tables import EQCATS
from tests_support import typed


def graded_base():
    """x → y → z with Hom(x, y) = {a (0), a' (−1)}, d a' = (3/2)·a,
    Hom(y, z) = {b (0)}, Hom(x, z) = {ba (0), ba' (−1)}, d ba' = (3/2)·ba,
    b∘a = 2·ba and b∘a' = 2·ba' (so Leibniz holds), and End(y) with a
    closed u in degree −1 that composes to zero; u∘a is written as
    0·a', a zero that parsing drops."""
    basis = {
        ("x", "x"): [("1", 0)],
        ("y", "y"): [("1", 0), ("u", -1)],
        ("z", "z"): [("1", 0)],
        ("x", "y"): [("a", 0), ("a'", -1)],
        ("y", "z"): [("b", 0)],
        ("x", "z"): [("ba", 0), ("ba'", -1)],
    }
    differential = {("x", "y"): {"a'": {"a": "3/2"}}, ("x", "z"): {"ba'": {"ba": "3/2"}}}
    homs = []
    for (s, t), labels in basis.items():
        hom = {"source": s, "target": t, "basis": [{"label": lab, "degree": d} for lab, d in labels]}
        if (s, t) in differential:
            hom["differential"] = [
                {"from": lab, "image": img} for lab, img in differential[(s, t)].items()
            ]
        homs.append(hom)
    compositions = [
        {"source": "x", "middle": "y", "target": "z", "first": first, "then": "b", "result": {res: "2"}}
        for first, res in [("a", "ba"), ("a'", "ba'")]
    ]
    compositions.append(
        {"source": "x", "middle": "y", "target": "y", "first": "a", "then": "u", "result": {"a'": "0"}}
    )
    doc = {
        "schema": "equihh-schema-1",
        "name": "graded x→y→z",
        "field": "q",
        "category": {
            "objects": ["x", "y", "z"],
            "homs": homs,
            "compositions": compositions,
            "units": {o: {"1": "1"} for o in "xyz"},
        },
    }
    return parse_document(json.dumps(doc)).base


def graded_hull():
    base = graded_base()
    assert validate_dgcat(base).ok
    tuples = [(), ("x",), ("y",), ("x", "y"), ("y", "z", "x"), ("z", "y"), ("x", "x", "z")]
    return hull_subcategory(base, tuples)


HULLS = {**{name: lambda name=name: EQCATS[name]().ambient for name in EQCATS}, "graded": graded_hull}
_BUILT = {}


def hull(name):
    if name not in _BUILT:
        _BUILT[name] = HULLS[name]()
    return _BUILT[name]


def scalars(field):
    """Canonical scalars of ``field``: ints where integral, a Fraction
    otherwise, and over Q(ζ_m) some irrational ones."""
    out = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    if isinstance(field.one, Cyc):
        z = field.zeta()
        out = [field.embed(c) for c in out] + [z, z * z + field.embed(2)]
    return out


@st.composite
def hull_morphisms(draw, cat, src, tgt):
    keys = list(cat.basis_keys(src, tgt))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=8)) if keys else []
    values = st.sampled_from(scalars(cat.field))
    return Mor(src, tgt, {key: draw(values) for key in chosen})


@st.composite
def composable_families(draw, least=0, most=4):
    """(hull, zs, g, fs) with g: xs → ys and ``least`` to ``most`` f's:
    ys → zs, the objects drawn among those with a nonzero hom where there
    are any."""
    cat = hull(draw(st.sampled_from(sorted(HULLS))))
    xs = draw(st.sampled_from(cat.objects))
    reach = [y for y in cat.objects if cat.hom(xs, y).total_dim()] or cat.objects
    ys = draw(st.sampled_from(reach))
    reach = [z for z in cat.objects if cat.hom(ys, z).total_dim()] or cat.objects
    zs = draw(st.sampled_from(reach))
    fs = draw(st.lists(hull_morphisms(cat, ys, zs), min_size=least, max_size=most))
    return cat, zs, draw(hull_morphisms(cat, xs, ys)), fs


@settings(max_examples=150, deadline=None)
@given(case=composable_families(least=1, most=1))
def test_blockwise_product_equals_the_table_product(case):
    cat, _, g, (f,) = case
    got, want = hull_compose(cat, f, g), cat.compose(f, g)
    assert (got.src, got.tgt) == (want.src, want.tgt)
    assert typed(got.coeffs) == typed(want.coeffs)


@settings(max_examples=100, deadline=None)
@given(case=composable_families())
def test_the_family_product_is_each_table_product(case):
    """One pass of g against a family of f's, the empty family and
    repeated f's included, gives f∘g for each f as the table does."""
    cat, zs, g, fs = case
    by_col = hull_index([f.coeffs.items() for f in fs])
    got = hull_product(cat.base, g.src, g.tgt, zs, g.coeffs.items(), by_col, len(fs))
    assert [typed(prod) for prod in got] == [typed(cat.compose(f, g).coeffs) for f in fs]


@pytest.mark.parametrize("name", sorted(HULLS))
def test_every_basis_pair_of_a_hull_triple_matches(name):
    """Every pair of basis morphisms over the triples of up to four of
    the hull's objects, and each full sum of all keys with a Fraction
    coefficient, against the tables."""
    cat = hull(name)
    objects = cat.objects[:4]
    half = Fraction(1, 2) if not isinstance(cat.field.one, Cyc) else cat.field.embed(Fraction(1, 2))
    products = 0
    for xs, ys, zs in itertools.product(objects, repeat=3):
        gs = [cat.basis_mor(xs, ys, *k) for k in cat.basis_keys(xs, ys)]
        fs = [cat.basis_mor(ys, zs, *k) for k in cat.basis_keys(ys, zs)]
        for f, g in itertools.product(fs, gs):
            got = hull_compose(cat, f, g)
            assert typed(got.coeffs) == typed(cat.compose(f, g).coeffs)
            products += bool(got.coeffs)
        f_all = Mor(ys, zs, {k: half for k in cat.basis_keys(ys, zs)})
        g_all = Mor(xs, ys, {k: half for k in cat.basis_keys(xs, ys)})
        assert typed(hull_compose(cat, f_all, g_all).coeffs) == typed(cat.compose(f_all, g_all).coeffs)
    assert products


@pytest.mark.parametrize("name", sorted(HULLS))
def test_a_pair_that_does_not_compose_is_the_same_structure_error(name):
    cat = hull(name)
    xs, ys = cat.objects[0], cat.objects[-1]
    g, f = Mor(xs, ys, {}), Mor(ys * 2, xs, {})  # ys, the longest object, is not ()
    with pytest.raises(StructureError) as table_error:
        cat.compose(f, g)
    with pytest.raises(StructureError) as blockwise_error:
        hull_compose(cat, f, g)
    assert str(blockwise_error.value) == str(table_error.value)


def test_a_zero_base_value_is_skipped_as_the_hull_table_skips_it():
    """The hull table keeps a base entry's nonzero values only.  Here the
    zero of u∘a, put into the graded base's table in code (parsing drops
    the one the document writes), lands on a' after 1∘a' put the int 1
    there; added with the coefficient 1/2 it would turn that int into a
    Fraction."""
    base = graded_base()
    base.comp_table("x", "y", "y")[((0, "a"), (-1, "u"))] = {(-1, "a'"): 0}
    cat = hull_subcategory(base, [("x",), ("y",)])
    x, y = ("x",), ("y",)
    g = Mor(x, y, {(-1, (0, 0, "a'")): 1, (0, (0, 0, "a")): Fraction(1, 2)})
    f = Mor(y, y, {(0, (0, 0, "1")): 1, (-1, (0, 0, "u")): 1})
    got = hull_compose(cat, f, g)
    assert typed(got.coeffs) == typed(cat.compose(f, g).coeffs)
    assert type(got.coeffs[(-1, (0, 0, "a'"))]) is int


def test_the_parsed_base_composes_to_canonical_scalars():
    """With the written zero of u∘a dropped, the base's own composition of
    the same pair gives the int 1 at a', as the hull does."""
    base = graded_base()
    assert base.comp_table("x", "y", "y")[((0, "a"), (-1, "u"))] == {}
    g = Mor("x", "y", {(-1, "a'"): 1, (0, "a"): Fraction(1, 2)})
    f = Mor("y", "y", {(0, "1"): 1, (-1, "u"): 1})
    got = base.compose(f, g).coeffs
    assert got == {(-1, "a'"): 1, (0, "a"): Fraction(1, 2)} and type(got[(-1, "a'")]) is int


def spy_on_hull_tables(monkeypatch):
    """(built, marked): ``built`` gets (len(table), phase) for each
    composition table a hull made by lift_action builds, as it is built,
    with the innermost phase that a function wrapped by ``marked(fn,
    phase)`` is running (None outside every one)."""
    built, phases = [], []
    make = equivariant.hull_subcategory

    def marked(fn, phase):
        def running(*args, **kwargs):
            phases.append(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                phases.pop()

        return running

    def spied(cat, objects):
        hull_cat = make(cat, objects)
        builder = hull_cat._comp_builder

        def counting(*triple):
            table = builder(*triple)
            built.append((len(table), phases[-1] if phases else None))
            return table

        hull_cat._comp_builder = counting
        return hull_cat

    monkeypatch.setattr(equivariant, "hull_subcategory", spied)
    return built, marked


def test_solving_and_validating_e5_builds_no_hull_table(monkeypatch):
    """Building the equivariant category on E5 (validation, the inverse
    alphas and every hom solve) builds no hull composition table, and
    neither does building every one of its own composition tables, whose
    products are read blockwise off the base.  One ``decompose
    --degrees=0..0`` op on E5 builds 16 hull tables, 3,885 entries in all,
    each one while a window over a hull is built."""
    built, marked = spy_on_hull_tables(monkeypatch)
    eqcat = equivariant.EquivariantCategory
    categories = []
    init, build = eqcat.__init__, eqcat._build

    def building(self, *args, **kwargs):
        categories.append(self)
        init(self, *args, **kwargs)

    def tables_marked(self):
        category = build(self)
        category._comp_builder = marked(category._comp_builder, "equivariant table")
        return category

    monkeypatch.setattr(eqcat, "__init__", marked(building, "equivariant build"))
    monkeypatch.setattr(eqcat, "_build", tables_marked)
    window = hochschild.HochschildWindow
    monkeypatch.setattr(window, "__init__", marked(window.__init__, "window"))
    doc = json.dumps(serialize_bundle(get_example("E5")))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    with contextlib.redirect_stdout(out):
        code = main(["decompose", "-", "--degrees=0..0", "--output", "json"])
    assert code == EXIT_OK
    assert json.loads(out.getvalue())["theorem_holds"] is True
    (eq,) = categories
    for triple in itertools.product(eq.order, repeat=3):
        eq.category.comp_table(*triple)
    assert (len(built), sum(n for n, _ in built)) == (16, 3885)
    assert {phase for _, phase in built} == {"window"}
