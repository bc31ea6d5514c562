from fractions import Fraction

import pytest

from equihh.dgcat import Mor, validate_dgcat
from equihh.documents import canonical_json, parse_document, serialize_bundle
from equihh.equivariant import (
    EquivariantCategory,
    EquivariantObject,
    adjunction_maps,
    alpha_inverses,
    lift_action,
    realize_declared,
    rep_tensor,
    sfor_iso,
    symmetrize,
    validate_equivariant,
)
from equihh.errors import CapacityError, StructureError
from equihh.examples import example_e1, example_e2, example_e5
from equihh.groups import regular_representation, trivial_representation, validate_action
from equihh.scalars import QQ
from tests_support import coboundary_action, sfor_iso_natural


def lifted_e1(extra=()):
    b = example_e1()
    tuples = [("pt",), ("pt", "pt")] + list(extra)
    return b, lift_action(b.action, tuples)


def lifted_e2(extra=()):
    b = example_e2()
    tuples = [("x1",), ("x2",), ("x1", "x2")] + list(extra)
    return b, lift_action(b.action, tuples)


def test_e1_declared_objects_valid():
    b, la = lifted_e1()
    for decl in b.declared:
        obj = realize_declared(la, decl)
        assert validate_equivariant(la, obj).ok


def test_trivial_action_identity_alpha_valid():
    b, la = lifted_e1()
    obj = realize_declared(la, b.declared[0])
    assert validate_equivariant(la, obj).ok


def test_e2_swap_symmetrization_valid():
    b, la = lifted_e2()
    s1 = symmetrize(la, ("x1",))
    assert s1.underlying == ("x1", "x2")
    assert validate_equivariant(la, s1).ok


def test_sabotaged_alpha_cocycle_witness():
    b, la = lifted_e2()
    s1 = symmetrize(la, ("x1",))
    alpha = dict(s1.alpha)
    bad = {}
    for key, c in alpha["s"].coeffs.items():
        deg, (i, j, lab) = key
        bad[key] = c * 2 if (i, j) == (0, 1) else c
    from equihh.equivariant import EquivariantObject

    sab = EquivariantObject("bad", s1.underlying, {**alpha, "s": Mor(alpha["s"].src, alpha["s"].tgt, bad)})
    report = validate_equivariant(la, sab)
    assert any(v.rule == "cocycle" for v in report.violations)


def test_symmetrize_forgets_to_sum_of_translates():
    b, la = lifted_e1()
    s = symmetrize(la, ("pt",))
    # For∘S(c) literally equals the direct sum over the group of rho_g(c)
    assert s.underlying == ("pt", "pt")
    b2, la2 = lifted_e2()
    s1 = symmetrize(la2, ("x1",))
    assert s1.underlying == tuple(
        la2.base.rho(h).apply_obj("x1") for h in la2.group.elements
    )


def test_e1_equivariant_category_homs():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    minus = realize_declared(la, b.declared[1])
    spt = symmetrize(la, ("pt",))
    eq = EquivariantCategory(la, [plus, minus, spt])
    cat = eq.category
    assert cat.hom("plus", "plus").total_dim() == 1
    assert cat.hom("plus", "minus").total_dim() == 0
    assert cat.hom("minus", "minus").total_dim() == 1
    assert cat.hom(spt.name, spt.name).total_dim() == 2
    assert cat.hom("plus", spt.name).total_dim() == 1
    assert validate_dgcat(cat).ok


def test_category_validates_its_roster():
    """X with alpha_e = 2·id and alpha_s = id fails the coherence square.
    The homs solved from the generators' conditions alone would give
    Hom(X, plus) dimension 1, against 0 with every element stacked, so
    the category rejects X when built directly too."""
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    unit = la.category.unit(plus.underlying)
    x = EquivariantObject("X", plus.underlying, {"e": unit.scale(2), "s": unit})
    assert not validate_equivariant(la, x).ok
    with pytest.raises(StructureError, match="coherence square"):
        EquivariantCategory(la, [x, plus])


def test_roster_is_validated_before_its_names_are_checked():
    """An invalid object is reported even after a duplicate name."""
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    unit = la.category.unit(plus.underlying)
    x = EquivariantObject("X", plus.underlying, {"e": unit.scale(2), "s": unit})
    with pytest.raises(StructureError, match="coherence square"):
        EquivariantCategory(la, [plus, plus, x])
    with pytest.raises(StructureError, match="duplicate roster name plus"):
        EquivariantCategory(la, [plus, plus])


def test_e2_equivariant_category_homs():
    b, la = lifted_e2()
    s1 = symmetrize(la, ("x1",))
    s2 = symmetrize(la, ("x2",))
    eq = EquivariantCategory(la, [s1, s2])
    assert eq.category.hom(s1.name, s1.name).total_dim() == 1
    assert eq.category.hom(s1.name, s2.name).total_dim() == 1
    assert validate_dgcat(eq.category).ok


def test_empty_roster_category():
    b, la = lifted_e1()
    eq = EquivariantCategory(la, [])
    assert eq.category.objects == []
    assert validate_dgcat(eq.category).ok


def test_rep_tensor_sign_flips_alpha():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    minus = realize_declared(la, b.declared[1])
    sign = b.representations["sign"]
    flipped = rep_tensor(la, sign, plus)
    assert flipped.underlying == ("pt",)
    assert flipped.alpha["s"] == minus.alpha["s"]
    triv = b.representations["trivial"]
    same = rep_tensor(la, triv, plus)
    assert same.alpha["s"] == plus.alpha["s"]
    assert validate_equivariant(la, flipped).ok


def test_rep_tensor_regular_matches_symmetrize_forget_e1():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    reg = b.representations["regular"]
    tensored = rep_tensor(la, reg, plus)
    spt = symmetrize(la, ("pt",))
    assert tensored.underlying == spt.underlying
    assert all(tensored.alpha[g] == spt.alpha[g] for g in la.group.elements)


def test_adjunction_e1():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    minus = realize_declared(la, b.declared[1])
    spt = symmetrize(la, ("pt",))
    eq = EquivariantCategory(la, [plus, minus, spt])
    for oname in ["plus", "minus", spt.name]:
        result = adjunction_maps(eq, ("pt",), oname)
        assert result["chain_map"]
        assert result["mutually_inverse"], oname
        assert result["hom_dimension"] == result["equivariant_hom_dimension"]


def test_adjunction_e2():
    b, la = lifted_e2([("x2", "x1")])
    s1 = symmetrize(la, ("x1",))
    s2 = symmetrize(la, ("x2",))
    eq = EquivariantCategory(la, [s1, s2])
    for c in [("x1",), ("x2",)]:
        for oname in [s1.name, s2.name]:
            result = adjunction_maps(eq, c, oname)
            assert result["chain_map"] and result["mutually_inverse"]


def test_adjunction_capacity_error():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    eq = EquivariantCategory(la, [plus])
    with pytest.raises(CapacityError):
        adjunction_maps(eq, ("pt",), "plus")  # S(pt) not rostered


def test_rep_tensor_functor_capacity_error():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    eq = EquivariantCategory(la, [plus])
    with pytest.raises(CapacityError, match="regular⊗plus is not in the roster"):
        eq.rep_tensor_functor(b.representations["regular"], ["plus"])


def test_sfor_iso_e1():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    minus = realize_declared(la, b.declared[1])
    spt = symmetrize(la, ("pt",))
    reg = b.representations["regular"]
    t_minus = rep_tensor(la, reg, minus)
    eq = EquivariantCategory(la, [plus, minus, spt, t_minus])
    mor, report = sfor_iso(eq, "plus")
    assert report.ok, report.summary()
    assert mor is not None
    mor2, report2 = sfor_iso(eq, "minus")
    assert report2.ok


def test_sfor_iso_natural_e1():
    b, la = lifted_e1()
    plus = realize_declared(la, b.declared[0])
    minus = realize_declared(la, b.declared[1])
    spt = symmetrize(la, ("pt",))
    reg = b.representations["regular"]
    t_minus = rep_tensor(la, reg, minus)
    eq = EquivariantCategory(la, [plus, minus, spt, t_minus])
    isos = {}
    for name in ["plus", "minus"]:
        isos[name], _ = sfor_iso(eq, name)
    # naturality on every basis morphism between plus and minus
    for sn in ["plus", "minus"]:
        for tn in ["plus", "minus"]:
            for key in eq.category.basis_keys(sn, tn):
                phi = Mor(sn, tn, {key: QQ.one})
                assert sfor_iso_natural(eq, phi, isos)


def test_e5_roster_solves():
    b = example_e5()
    la = lift_action(b.action, [("pt",), ("pt", "pt"), ("pt",) * 6])
    objs = [realize_declared(la, d) for d in b.declared]
    for o in objs:
        assert validate_equivariant(la, o).ok
    eq = EquivariantCategory(la, objs)
    # three orthogonal irreducible objects
    for a in b.hh_names:
        for c in b.hh_names:
            expected = 1 if a == c else 0
            assert eq.category.hom(a, c).total_dim() == expected


def test_scaled_action_equivariant_objects():
    from tests_support import scaled_action

    act = scaled_action()
    la = lift_action(act, [("pt",), ("pt", "pt")])
    from equihh.equivariant import EquivariantObject

    good = EquivariantObject(
        "good",
        ("pt",),
        {
            "e": Mor(("pt",), ("pt",), {(0, (0, 0, "1")): Fraction(4)}),
            "s": Mor(("pt",), ("pt",), {(0, (0, 0, "1")): Fraction(2)}),
        },
    )
    assert validate_equivariant(la, good).ok
    naive = EquivariantObject(
        "naive",
        ("pt",),
        {
            "e": Mor(("pt",), ("pt",), {(0, (0, 0, "1")): Fraction(1)}),
            "s": Mor(("pt",), ("pt",), {(0, (0, 0, "1")): Fraction(1)}),
        },
    )
    report = validate_equivariant(la, naive)
    assert any(v.rule == "cocycle" for v in report.violations)


def test_scaled_action_symmetrize_and_adjunction():
    from tests_support import scaled_action

    act = scaled_action()
    la = lift_action(act, [("pt",), ("pt", "pt")])
    s = symmetrize(la, ("pt",))
    assert validate_equivariant(la, s).ok
    eq = EquivariantCategory(la, [s])
    result = adjunction_maps(eq, ("pt",), s.name)
    assert result["chain_map"] and result["mutually_inverse"]


def test_coboundary_action_phi_and_adjunction():
    """On an S3 action whose theta is not symmetric in its two elements,
    phi_g at the point is an equivariant isomorphism for every g, and both
    adjunction correspondences hold."""
    act = coboundary_action()
    assert validate_action(act).ok
    la = lift_action(act, [("pt",), ("pt",) * 6])
    s = symmetrize(la, ("pt",))
    assert validate_equivariant(la, s).ok
    eq = EquivariantCategory(la, [s])
    for g in act.group.elements:
        assert eq.category.invert(eq.phi_component(g, ("pt",))) is not None, g
    result = adjunction_maps(eq, ("pt",), s.name)
    assert result["chain_map"] and result["mutually_inverse"]


def test_alpha_inverse_where_the_square_fails():
    """On E1's lifted action, X with alpha_e = 2·id and alpha_s = id fails
    the coherence square: the square's left inverse of alpha_s, (1/2)·id,
    is no inverse, so invert decides, and X is reported for its square
    only.  A zero alpha_s is still reported not invertible."""
    _, la = lifted_e1()
    pt = ("pt",)
    unit = la.category.unit(pt)
    doubled = EquivariantObject("X", pt, {"e": unit.scale(2), "s": unit})
    for g in ("e", "s"):
        assert alpha_inverses(la, doubled)[g] == la.category.invert(doubled.alpha[g])
    report = validate_equivariant(la, doubled)
    assert report.violations and {v.rule for v in report.violations} == {"cocycle"}
    zero = EquivariantObject("Z", pt, {"e": unit, "s": Mor(pt, pt, {})})
    assert alpha_inverses(la, zero)["s"] is None
    assert "alpha[s] not invertible" in [v.witness for v in validate_equivariant(la, zero).violations]


def test_zero_theta_component():
    """E1 with theta[s,s] = 0 at the point: symmetrize names the theta it
    cannot invert, and the coherence squares of the declared objects fail
    without an inversion."""
    doc = serialize_bundle(example_e1())
    doc["action"]["theta"] = [{"g": "s", "g2": "s", "components": {"pt": {}}}]
    bundle = parse_document(canonical_json(doc))
    la = lift_action(bundle.action, [("pt",), ("pt", "pt")])
    with pytest.raises(StructureError, match=r"theta\[s,s\] is not invertible at \('pt',\)"):
        symmetrize(la, ("pt",))
    for decl in bundle.declared:
        report = validate_equivariant(la, realize_declared(la, decl))
        assert [v.witness for v in report.violations] == ["coherence square fails at (s, s)"]
