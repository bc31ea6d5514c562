"""The additive hull's and the tensor product's tables, read off their
parts' nonzero entries, against the loops that look up every pair of
basis keys and sum from field.zero (``tests_support.reference_*``): equal
tables whose entries have equal scalar types, on every hom pair and
triple."""

import itertools
from fractions import Fraction

import pytest

from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import (
    additive_hull,
    algebra_category,
    disjoint_points_category,
    hull_objects_up_to_cap,
    hull_subcategory,
    tensor_product_many,
)
from equihh.examples import example_e2, example_e5, exterior_category, group_algebra_z2_category
from equihh.scalars import QQ, CyclotomicField
from tests_support import (
    reference_hull_comp_table,
    reference_hull_objects_up_to_cap,
    reference_tensor_comp_table,
    reference_tensor_hom,
    reference_tensor_unit,
)


def assert_same_table(got, ref):
    """Equal tables of coefficient dicts, entry by entry of one type."""
    assert got == ref
    for key, vec in ref.items():
        assert {k: type(c) for k, c in got[key].items()} == {k: type(c) for k, c in vec.items()}


def explicit_zeros(field=QQ):
    """k[g]/(g^2 - 1/2) whose tables write zeros: g∘g = 1/2 + 0·g, and its
    unit 1 + 0·g."""
    products = {("g", "g"): {"1": Fraction(1, 2), "g": 0}}
    cat = algebra_category(field, "pt", [("1", 0), ("g", 0)], products)
    cat.units["pt"] = {**cat.units["pt"], (0, "g"): field.zero}
    return cat


def square_zero_entry():
    """k<1, n>/(n^2) whose table writes n∘n = 0·n, an entry that holds only
    a zero."""
    return algebra_category(QQ, "pt", [("1", 0), ("n", 0)], {("n", "n"): {"n": 0}})


def with_differential():
    """k<1, t, s> with |s| = 1, d t = s/2 and every product of t, s zero."""
    products = {(a, b): {} for a in "ts" for b in "ts"}
    return algebra_category(
        QQ, "pt", [("1", 0), ("t", 0), ("s", 1)], products, differential={"t": {"s": Fraction(1, 2)}}
    )


def e5_ambient():
    """E5's base and the ambient hull its decompose pipeline lifts to."""
    b = example_e5()
    pipe = DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names or None,
        representations=b.representations, degrees=b.degrees,
    )
    return b.action.category, pipe.laction.category


def capped(base):
    return base, additive_hull(base, 2)


def two_points():
    two = example_e2().base
    return two, hull_subcategory(two, [("x1",), ("x2",), ("x1", "x2"), ("x2", "x1")])


HULLS = {
    "E5 ambient": e5_ambient,
    "k[Z/2]": lambda: capped(group_algebra_z2_category()),
    "Λ(u)": lambda: capped(exterior_category(1)),
    "explicit zeros": lambda: capped(explicit_zeros()),
    "n∘n = 0": lambda: capped(square_zero_entry()),
    "two points": two_points,
}


@pytest.mark.parametrize("name", list(HULLS))
def test_hull_tables_match_the_key_pair_scan(name):
    base, hull = HULLS[name]()
    for xs, ys, zs in itertools.product(hull.objects, repeat=3):
        table = hull.comp_table(xs, ys, zs)
        assert_same_table(table, reference_hull_comp_table(base, xs, ys, zs))
        assert all(table.values())


def tensors():
    """Odd factors on both sides of k[Z/2], so products carry Koszul signs,
    and a differential after an odd factor, so its Leibniz terms do."""
    kz2 = group_algebra_z2_category()
    cyc = CyclotomicField(3)
    lam_cyc = algebra_category(cyc, "pt", [("1", 0), ("e", 1)], {("e", "e"): {}})
    yield "Λ(u)⊗k[Z/2]⊗Λ(u), |u| = -1", [exterior_category(-1), kz2, exterior_category(-1)]
    yield "Λ(u)⊗k[Z/2]⊗Λ(u), |u| = 1", [exterior_category(1), explicit_zeros(), exterior_category(1)]
    yield "with a differential", [exterior_category(1), example_e2().base, with_differential()]
    yield "over Q(zeta_3)", [lam_cyc, explicit_zeros(cyc), lam_cyc]
    yield "n∘n = 0", [square_zero_entry(), exterior_category(1)]


TENSORS = dict(tensors())


@pytest.mark.parametrize("name", list(TENSORS))
def test_tensor_tables_match_the_key_pair_scan(name):
    cats = TENSORS[name]
    t = tensor_product_many(cats)
    for xs in t.objects:
        assert_same_table({"unit": t.units[xs]}, {"unit": reference_tensor_unit(cats, xs)})
    for xs, ys in itertools.product(t.objects, repeat=2):
        basis, diff = reference_tensor_hom(cats, xs, ys)
        space = t.hom(xs, ys)
        assert {deg: list(space.labels(deg)) for deg in space.degrees()} == basis
        assert_same_table(t.diff.get((xs, ys), {}), diff)
    for xs, ys, zs in itertools.product(t.objects, repeat=3):
        table = t.comp_table(xs, ys, zs)
        assert_same_table(table, reference_tensor_comp_table(cats, xs, ys, zs))
        assert all(table.values())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_hull_objects_match_the_frontier(n, cap):
    cat = disjoint_points_category(QQ, ["a", "b", "c"][:n])
    assert hull_objects_up_to_cap(cat, cap) == reference_hull_objects_up_to_cap(cat, cap)
