from fractions import Fraction

import pytest

from equihh.dgcat import algebra_category, nat_inverse, nat_vertical, validate_dgcat
from equihh.errors import StructureError
from equihh.groups import (
    FiniteGroup,
    Representation,
    character,
    conjugacy_data,
    permutation_action,
    regular_representation,
    sign_representation_s,
    strict_action,
    trivial_action,
    trivial_representation,
    validate_action,
)
from equihh.scalars import QQ, CyclotomicField


def test_cyclic_group_and_classes():
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    data = conjugacy_data(z2)
    assert len(data.classes) == 2
    assert all(len(data.centralizers[g]) == 2 for g in z2.elements)


def test_trivial_group_single_class():
    g = FiniteGroup.cyclic(1)
    assert len(conjugacy_data(g).classes) == 1


def words_closure(group, gens):
    """Every product of generators, grown by multiplying on the left."""
    reached = {group.identity}
    frontier = [group.identity]
    while frontier:
        frontier = [
            y for y in {group.mul(s, x) for s in gens for x in frontier} if y not in reached
        ]
        reached.update(frontier)
    return reached


GENERATED = [
    *((FiniteGroup.cyclic(n), ["e"] if n == 1 else ["r1"]) for n in range(1, 7)),
    (FiniteGroup.symmetric(3), ["132", "213"]),
    (FiniteGroup.symmetric(4), ["1243", "1324", "2134"]),
]


@pytest.mark.parametrize("group, expected", GENERATED, ids=[g.name for g, _ in GENERATED])
def test_generating_set(group, expected):
    """Deterministic, generates the whole group as a monoid, and holds e
    only for the trivial group; beyond it, each generator is new to the
    ones before."""
    gens = group.generating_set()
    assert gens == expected
    assert FiniteGroup(group.elements, group.table).generating_set() == gens
    assert words_closure(group, gens) == set(group.elements)
    assert (group.identity in gens) == (len(group) == 1)
    if len(group) > 1:
        for i, g in enumerate(gens):
            assert g not in words_closure(group, gens[:i])


def test_generating_set_skips_generated_elements():
    """Z/6 listed as e, r2, r4, r3, r1, r5: r2 generates r4, and r3 with
    r2 generates the rest."""
    z6 = FiniteGroup.cyclic(6)
    reordered = FiniteGroup(["e", "r2", "r4", "r3", "r1", "r5"], z6.table)
    assert reordered.generating_set() == ["r2", "r3"]


def test_s3_classes_oracle():
    # oracle: enumerate conjugations by hand -> sizes 1, 3, 2
    s3 = FiniteGroup.symmetric(3)
    data = conjugacy_data(s3)
    sizes = sorted(len(c) for c in data.classes)
    assert sizes == [1, 2, 3]
    orders = sorted(len(data.centralizers[r]) for r in data.representatives)
    assert orders == [2, 3, 6]
    # identity class is the singleton of the identity
    assert data.class_of[s3.identity] == s3.identity


def test_bad_table_rejected():
    with pytest.raises(StructureError):
        FiniteGroup(["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"})


def test_characters():
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    assert character(trivial_representation(z2)) == {"e": 1, "s": 1}
    sign = Representation(z2, 1, {"e": [[1]], "s": [[-1]]}, name="sign")
    assert character(sign) == {"e": 1, "s": -1}
    s3 = FiniteGroup.symmetric(3)
    chi = character(regular_representation(s3))
    data = conjugacy_data(s3)
    values = [chi[r] for r in data.representatives]
    assert sorted(values, reverse=True) == [6, 0, 0]
    assert chi[s3.identity] == 6


def test_cyclotomic_character_of_regular_representation():
    z3 = FiniteGroup.cyclic(3, names=["e", "a", "b"])
    field = CyclotomicField(3)
    chi = character(regular_representation(z3, field=field), conjugacy_data(z3))
    assert chi == {"e": 3, "a": 0, "b": 0}
    assert all(v.field == field for v in chi.values())


def test_sign_representation_s3():
    s3 = FiniteGroup.symmetric(3)
    chi = character(sign_representation_s(s3))
    data = conjugacy_data(s3)
    vals = {r: chi[r] for r in data.representatives}
    assert vals[s3.identity] == 1
    assert set(vals.values()) == {Fraction(1), Fraction(-1)}


def test_trivial_action_valid():
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    act = trivial_action(FiniteGroup.cyclic(2, names=["e", "s"]), cat)
    assert validate_action(act).ok


def test_permutation_action_strict_and_valid():
    cat = algebra_category(QQ, "pt", [("1", 0), ("g", 0)], {("g", "g"): {"1": 1}})
    action, power = permutation_action(cat, 2)
    assert validate_dgcat(power).ok
    assert validate_action(action).ok


def test_permutation_action_koszul_sign():
    lam = algebra_category(QQ, "pt", [("1", 0), ("e", 1)], {("e", "e"): {}})
    action, power = permutation_action(lam, 2)
    swap = action.rho("21")
    (obj,) = power.objects
    ee = power.basis_mor(obj, obj, 2, ((1, "e"), (1, "e")))
    assert swap.apply(ee) == ee.scale(-1)
    one_e = power.basis_mor(obj, obj, 1, ((0, "1"), (1, "e")))
    e_one = power.basis_mor(obj, obj, 1, ((1, "e"), (0, "1")))
    assert swap.apply(one_e) == e_one


def test_permutation_action_composes_strictly():
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    action, power = permutation_action(cat, 3)
    g = action.group
    from equihh.dgcat import compose_functors, functors_equal

    for a in g.elements:
        for b in g.elements:
            comp = compose_functors(action.rho(a), action.rho(b))
            assert functors_equal(comp, action.rho(g.mul(b, a)))


def test_perturbed_theta_rejected():
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    # scaling theta[e, s] contradicts the unit condition
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    act = trivial_action(z2, cat)
    act.theta[("e", "s")].components["pt"] = act.theta[("e", "s")].components["pt"].scale(2)
    report = validate_action(act)
    assert any(v.rule == "condition_i" for v in report.violations)
    # scaling theta[r1, r1] in Z/4 contradicts the coherence square
    z4 = FiniteGroup.cyclic(4)
    act4 = trivial_action(z4, cat)
    act4.theta[("r1", "r1")].components["pt"] = act4.theta[("r1", "r1")].components["pt"].scale(2)
    report4 = validate_action(act4)
    assert any(v.rule == "condition_ii" for v in report4.violations)


def scaled_action_fixture():
    """Non-strict action of Z/2 on the point: all functors identity but
    eta = (1/4)·id and theta[s,s] = id, a consistent 2-cocycle shape."""
    from equihh.dgcat import NatTransform, identity_functor

    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    ident = identity_functor(cat)
    lam = Fraction(1, 4)
    scalars = {("e", "e"): lam, ("e", "s"): lam, ("s", "e"): lam, ("s", "s"): Fraction(1)}
    theta = {}
    for pair, c in scalars.items():
        theta[pair] = NatTransform(
            ident, ident, {"pt": cat.unit("pt").scale(c)}, name=f"theta{pair}"
        )
    eta = NatTransform(ident, ident, {"pt": cat.unit("pt").scale(lam)}, name="eta")
    from equihh.groups import GroupAction

    return GroupAction(z2, cat, {g: ident for g in z2.elements}, theta, eta, name="scaled")


def test_scaled_nonstrict_action_valid():
    act = scaled_action_fixture()
    report = validate_action(act)
    assert report.ok, report.summary()


def test_centralizer_transform_identity_for_trivial():
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    act = trivial_action(z2, cat)
    c = act.centralizer_transform("s", "s")
    assert c.at("pt") == cat.unit("pt")
    scaled = scaled_action_fixture()
    c2 = scaled.centralizer_transform("s", "s")
    # theta[s,s]^{-1} ∘ theta[s,s] = id regardless of scaling
    assert c2.at("pt") == cat.unit("pt")


def test_misplaced_theta_component_is_reported_not_raised():
    # theta[s,s] at x1 must run x1 -> x1; the unit of x2 has the wrong
    # endpoints, and the coherence conditions reading it are skipped
    from equihh.examples import example_e2

    action = example_e2().action
    action.theta[("s", "s")].components["x1"] = action.category.unit("x2")
    report = validate_action(action)
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("structure", "theta[s,s]: component at x1 has wrong endpoints")
    ]


def _conjugation_reference(act, h, g, g2):
    return nat_vertical(nat_inverse(act.theta_at(g, h)), act.theta_at(h, g2))


def test_conjugation_transform_on_lifted_e5():
    from equihh.equivariant import lift_action
    from equihh.examples import example_e5

    act = lift_action(example_e5().action, [("pt",), ("pt", "pt")])
    grp = act.group
    cat = act.category
    for h in grp.elements:
        for g in grp.elements:
            g2 = grp.mul(grp.mul(h, g), grp.inv(h))  # g2·h = h·g
            tau = act.conjugation_transform(h, g, g2)
            ref = _conjugation_reference(act, h, g, g2)
            for x in cat.objects:
                comp = tau.at(x)
                assert comp.src == act.rho(h).apply_obj(act.rho(g2).apply_obj(x))
                assert comp.tgt == act.rho(g).apply_obj(act.rho(h).apply_obj(x))
                assert comp == ref.at(x)
    h, g = "213", "132"
    assert grp.mul(g, h) != grp.mul(h, g)
    with pytest.raises(StructureError):
        act.conjugation_transform(h, g, g)


def test_conjugation_transform_on_scaled_action():
    from tests_support import scaled_action

    act = scaled_action()
    for h in act.group.elements:
        for g in act.group.elements:
            tau = act.conjugation_transform(h, g, g)
            assert tau.at("pt") == _conjugation_reference(act, h, g, g).at("pt")
            assert act.centralizer_transform(h, g).at("pt") == tau.at("pt")
