from fractions import Fraction

import pytest

from equihh.dgcat import (
    DgFunctor,
    Mor,
    NatTransform,
    additive_hull,
    algebra_category,
    block_mor,
    block_of,
    disjoint_points_category,
    hull_objects_up_to_cap,
    hull_subcategory,
    identity_functor,
    lift_functor_to_hull,
    tensor_category,
    validate_dgcat,
    validate_functor,
    validate_nat,
)
from equihh.errors import EmptyCategoryError, StructureError
from equihh.examples import example_e1, example_e2
from equihh.hochschild import block_inclusion, block_projection
from equihh.scalars import QQ
from tests_support import identity_nat, zero_mor


def point_category():
    return algebra_category(QQ, "pt", [("1", 0)], {})


def dual_numbers():
    # End = k[e]/(e^2) with |e| = 1, d = 0
    return algebra_category(QQ, "pt", [("1", 0), ("e", 1)], {("e", "e"): {}})


def group_algebra_z2():
    return algebra_category(QQ, "pt", [("1", 0), ("g", 0)], {("g", "g"): {"1": 1}})


def test_point_category_valid():
    assert validate_dgcat(point_category()).ok


def test_dual_numbers_valid():
    assert validate_dgcat(dual_numbers()).ok


def test_group_algebra_valid():
    assert validate_dgcat(group_algebra_z2()).ok


def test_associativity_violation_reported():
    # sabotage: g*g = 1 but (g*g)*g listed inconsistently via a fake table
    cat = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("g", 0)],
        {("g", "g"): {"1": 1, "g": 1}},
    )
    # (g∘g)∘g = g + g∘g = 1 + 2g ; g∘(g∘g) same since commutative: still ok.
    # Break associativity by an asymmetric table instead:
    cat.comp[("pt", "pt", "pt")][((0, "g"), (0, "g"))] = {(0, "1"): Fraction(1)}
    cat2 = algebra_category(QQ, "pt", [("1", 0), ("g", 0), ("h", 0)], {
        ("g", "g"): {"1": 1},
        ("g", "h"): {"h": 1},
        ("h", "g"): {},
        ("h", "h"): {},
    })
    report = validate_dgcat(cat2)
    assert not report.ok
    assert any(v.rule == "associativity" for v in report.violations)


def test_leibniz_checked_with_differential():
    # d(t) = s forces d(t∘t) = s∘t + t∘s; sabotaged product breaks Leibniz
    good = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("t", 0), ("s", 1)],
        {("t", "t"): {}, ("t", "s"): {}, ("s", "t"): {}, ("s", "s"): {}},
        differential={"t": {"s": 1}},
    )
    assert validate_dgcat(good).ok
    bad = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("t", 0), ("s", 1)],
        {("t", "t"): {"t": 1}, ("t", "s"): {}, ("s", "t"): {}, ("s", "s"): {}},
        differential={"t": {"s": 1}},
    )
    report = validate_dgcat(bad)
    assert any(v.rule == "leibniz" for v in report.violations)


def test_identity_functor_valid():
    cat = group_algebra_z2()
    assert validate_functor(identity_functor(cat)).ok


def test_functor_composition_violation():
    cat = group_algebra_z2()
    fun = identity_functor(cat)
    # scale g but not g∘g = 1: breaks F(f∘g) = F(f)F(g)
    fun.mor_map[("pt", "pt")][(0, "g")] = cat.basis_mor("pt", "pt", 0, "g").scale(2)
    report = validate_functor(fun)
    assert any(v.rule == "composition" for v in report.violations)


def test_identity_nat_valid():
    cat = group_algebra_z2()
    fun = identity_functor(cat)
    assert validate_nat(identity_nat(fun)).ok


def test_nat_closedness_violation():
    cat = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("t", 0), ("s", 1)],
        {("t", "t"): {}, ("t", "s"): {}, ("s", "t"): {}, ("s", "s"): {}},
        differential={"t": {"s": 1}},
    )
    fun = identity_functor(cat)
    eps = identity_nat(fun)
    eps.components["pt"] = cat.basis_mor("pt", "pt", 0, "t")  # d(t) = s != 0
    report = validate_nat(eps)
    assert any(v.rule == "closedness" for v in report.violations)


def test_nat_component_with_wrong_endpoints_is_reported_not_composed():
    # E2's theta[s,s] with its component at x1 moved to x2 -> x2: the
    # squares reading that component cannot be composed, so they are
    # skipped and the component is reported once
    from equihh.examples import example_e2

    action = example_e2().action
    theta = action.theta_at("s", "s")
    cat = action.category
    eps = NatTransform(
        theta.src,
        theta.tgt,
        {"x1": cat.unit("x2"), "x2": theta.at("x2")},
        name="theta[s,s]",
    )
    report = validate_nat(eps)
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("structure", "component at x1 has wrong endpoints")
    ]


def test_tensor_point_point():
    t = tensor_category(point_category(), point_category())
    assert len(t.objects) == 1
    assert t.hom(t.objects[0], t.objects[0]).total_dim() == 1
    assert validate_dgcat(t).ok


def test_tensor_group_algebras_dimension():
    t = tensor_category(group_algebra_z2(), group_algebra_z2())
    (obj,) = t.objects
    assert t.hom(obj, obj).total_dim() == 4
    assert validate_dgcat(t).ok


def test_tensor_koszul_sign_odd_odd():
    lam = dual_numbers()
    t = tensor_category(lam, lam)
    (obj,) = t.objects
    e1 = t.basis_mor(obj, obj, 1, ((1, "e"), (0, "1")))  # e⊗1
    e2 = t.basis_mor(obj, obj, 1, ((0, "1"), (1, "e")))  # 1⊗e
    a = t.compose(e1, e2)  # (e⊗1)∘(1⊗e) = e⊗e, no sign
    b = t.compose(e2, e1)  # (1⊗e)∘(e⊗1) = -e⊗e by the Koszul rule
    assert a == b.scale(-1)
    assert not a.is_zero()
    assert validate_dgcat(t).ok


def test_tensor_with_differential_satisfies_leibniz():
    withd = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("t", 0), ("s", 1)],
        {("t", "t"): {}, ("t", "s"): {}, ("s", "t"): {}, ("s", "s"): {}},
        differential={"t": {"s": 1}},
    )
    t = tensor_category(dual_numbers(), withd)
    assert validate_dgcat(t).ok


def test_hull_objects_cap():
    pt = point_category()
    objs = hull_objects_up_to_cap(pt, 2)
    assert objs == [(), ("pt",), ("pt", "pt")]
    with pytest.raises(EmptyCategoryError):
        hull_objects_up_to_cap(pt, 0)


def test_hull_point_cap2_matrices():
    pt = point_category()
    hull = additive_hull(pt, 2)
    two = ("pt", "pt")
    assert hull.hom(two, two).total_dim() == 4
    assert validate_dgcat(hull).ok


def test_hull_two_points_no_cross_homs():
    two = disjoint_points_category(QQ, ["x1", "x2"])
    hull = hull_subcategory(two, [("x1",), ("x2",), ("x1", "x2")])
    s = ("x1", "x2")
    assert hull.hom(s, s).total_dim() == 2
    assert hull.hom(("x1",), ("x2",)).total_dim() == 0
    assert validate_dgcat(hull).ok


def test_hull_functor_lift_valid():
    two = disjoint_points_category(QQ, ["x1", "x2"])
    # base swap functor
    swap_obj = {"x1": "x2", "x2": "x1"}
    mor_map = {}
    for x in ["x1", "x2"]:
        mor_map[(x, x)] = {(0, "1"): two.basis_mor(swap_obj[x], swap_obj[x], 0, "1")}
        other = "x2" if x == "x1" else "x1"
        mor_map[(x, other)] = {}
    swap = DgFunctor(two, two, swap_obj, mor_map, name="swap")
    assert validate_functor(swap).ok
    hull = hull_subcategory(two, [("x1",), ("x2",), ("x1", "x2"), ("x2", "x1")])
    lifted = lift_functor_to_hull(swap, hull, hull)
    assert validate_functor(lifted).ok
    assert lifted.apply_obj(("x1", "x2")) == ("x2", "x1")


def test_hull_of_valid_category_is_valid():
    hull = additive_hull(group_algebra_z2(), 2)
    assert validate_dgcat(hull).ok


def test_invert_morphism():
    cat = group_algebra_z2()
    g = cat.basis_mor("pt", "pt", 0, "g")
    inv = cat.invert(g)
    assert inv is not None
    assert cat.compose(inv, g) == cat.unit("pt")
    u = cat.basis_mor("pt", "pt", 0, "1") + g.scale(2)
    uinv = cat.invert(u)
    assert uinv is not None and cat.compose(u, uinv) == cat.unit("pt")
    proj = (cat.unit("pt") + g).scale(Fraction(1, 2))  # idempotent, not a unit
    assert cat.invert(proj) is None
    assert cat.invert(zero_mor("pt", "pt")) is None


# block layout: E1 (k[Z/2] on one point) and E2 (two objects) hulls, with
# source and target split into parts of different lengths
BLOCK_CASES = {
    "E1": (example_e1, [("pt",), ("pt", "pt")], [("pt", "pt"), ("pt",), ("pt",)]),
    "E2": (example_e2, [("x1",), ("x2", "x1")], [("x2", "x1"), ("x2",)]),
}


def block_case(name):
    builder, src_parts, tgt_parts = BLOCK_CASES[name]
    parts = src_parts + tgt_parts
    objects = set(parts) | {sum(src_parts, ()), sum(tgt_parts, ())}
    return hull_subcategory(builder().base, sorted(objects)), src_parts, tgt_parts


def sample_mor(hull, x, y, seed):
    """A morphism x -> y with a distinct coefficient on every basis key."""
    keys = hull.basis_keys(x, y)
    return Mor(x, y, {key: seed + n for n, key in enumerate(keys)})


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_of_reads_back_block_mor(name):
    hull, src_parts, tgt_parts = block_case(name)
    blocks = {
        (row, col): sample_mor(hull, x, y, 10 * row + col + 1)
        for row, y in enumerate(tgt_parts)
        for col, x in enumerate(src_parts)
    }
    assert any(not b.is_zero() for b in blocks.values())
    whole = block_mor(src_parts, tgt_parts, blocks)
    assert (whole.src, whole.tgt) == (sum(src_parts, ()), sum(tgt_parts, ()))
    assert len(whole.coeffs) == sum(len(b.coeffs) for b in blocks.values())
    for (row, col), block in blocks.items():
        assert block_of(whole, src_parts, tgt_parts, row, col) == block
    # the layout is the hull's own: the block-diagonal of units is the unit
    units = {(k, k): hull.unit(part) for k, part in enumerate(src_parts)}
    assert block_mor(src_parts, src_parts, units) == hull.unit(sum(src_parts, ()))


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_with_wrong_endpoints_is_a_structure_error(name):
    hull, src_parts, tgt_parts = block_case(name)
    wrong = sample_mor(hull, src_parts[1], tgt_parts[0], 1)  # runs from the wrong part
    with pytest.raises(StructureError):
        block_mor(src_parts, tgt_parts, {(0, 0): wrong})
    whole = block_mor(src_parts, tgt_parts, {})
    with pytest.raises(StructureError):
        block_of(whole, tgt_parts, src_parts, 0, 0)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_projection_after_inclusion_is_the_unit(name):
    hull, src_parts, tgt_parts = block_case(name)
    for parts in (src_parts, tgt_parts):
        for i, part in enumerate(parts):
            proj = block_projection(hull, parts, i)
            incl = block_inclusion(hull, parts, i)
            assert hull.compose(proj, incl) == hull.unit(part)
            for j in range(len(parts)):
                if j != i:
                    assert hull.compose(proj, block_inclusion(hull, parts, j)).is_zero()
