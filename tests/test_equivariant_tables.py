"""The table-driven equivariant layer and induced maps against their
morphism-by-morphism references, on the E1, E2 and E5 pipelines: the
same numbers in the same key order and of the same scalar type.  The
category, which stacks the equivariance conditions of a generating set
of G on a validated base, also against the all-element reference on
actions with nontrivial theta or rho, and on one that fails validation.
Also the category's symmetrization pieces on the same pipelines: S(c)'s
roster name and the unit/counit pair I, P."""

import itertools
import re
from fractions import Fraction

import pytest

from equihh import equivariant
from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import (
    DgFunctor,
    Mor,
    NatTransform,
    algebra_category,
    block_mor,
    disjoint_points_category,
    identity_functor,
    validate_dgcat,
)
from equihh.documents import canonical_json, parse_document, serialize_bundle
from equihh.equivariant import (
    EquivariantCategory,
    EquivariantObject,
    lift_action,
    rep_tensor,
    symmetrize,
)
from equihh.errors import StructureError
from equihh.examples import (
    DeclaredObject,
    example_e1,
    example_e2,
    example_e5,
    get_example,
    s3_standard_representation,
)
from equihh.groups import (
    FiniteGroup,
    GroupAction,
    sign_representation_s,
    strict_action,
    trivial_action,
    validate_action,
)
from equihh.linalg import vec_axpy
from equihh.scalars import QQ, Cyc, CyclotomicField
from tests_support import (
    coboundary_action,
    coboundary_weights,
    fraction_comp_table,
    fraction_solve_pair,
    reference_equivariant_comp_table,
    reference_induced_chain,
    reference_restrict,
    reference_solve_pair,
    scaled_action,
    scanning_restrict,
    table_route_comp_table,
    table_route_products,
    typed,
)

BUILDERS = {"E1": example_e1, "E2": example_e2, "E5": example_e5}
_PIPELINES = {}


def pipeline(name):
    if name not in _PIPELINES:
        b = BUILDERS[name]()
        _PIPELINES[name] = DecompositionPipeline(
            b.action,
            b.declared,
            b.generators,
            hh_names=b.hh_names or None,
            representations=b.representations,
            degrees=b.degrees,
        )
    return _PIPELINES[name]


class ReferenceEquivariantCategory(EquivariantCategory):
    """Solves every hom through reference_solve_pair."""

    def _solve_pair(self, src, tgt):
        return reference_solve_pair(self, src, tgt)


def typed_table(table):
    return [(key, typed(vec)) for key, vec in table.items()]


def assert_matches_reference(eq):
    """Solved bases (with their q labels), differentials, units and every
    composition table equal those of the category that stacks every
    element's conditions."""
    ref = ReferenceEquivariantCategory(eq.laction, [eq.roster[n] for n in eq.order])
    got, want = eq.category, ref.category
    assert got.objects == want.objects
    for pair in itertools.product(eq.order, repeat=2):
        assert typed_table(eq._solved[pair]) == typed_table(ref._solved[pair]), pair
        labels = [(deg, list(got.hom(*pair).labels(deg))) for deg in got.hom(*pair).degrees()]
        assert labels == [
            (deg, list(want.hom(*pair).labels(deg))) for deg in want.hom(*pair).degrees()
        ]
        assert typed_table(got.diff.get(pair, {})) == typed_table(want.diff.get(pair, {}))
    assert [typed(got.units[x]) for x in eq.order] == [typed(want.units[x]) for x in eq.order]
    nonzero = 0
    for triple in itertools.product(eq.order, repeat=3):
        table = got.comp_table(*triple)
        assert typed_table(table) == typed_table(
            reference_equivariant_comp_table(eq, *triple)
        ), triple
        nonzero += len(table)
    assert nonzero


def scaled_eqcat():
    """The two equivariant structures alpha_s = ±2 on the point under the
    scaled action (nontrivial theta and eta), with the symmetrization."""
    declared = [
        DeclaredObject(name, ("pt",), {"e": {(0, 0, 0, "1"): Fraction(4)}, "s": {(0, 0, 0, "1"): s}})
        for name, s in [("plus2", Fraction(2)), ("minus2", Fraction(-2))]
    ]
    return DecompositionPipeline(
        scaled_action(), declared, ["pt"], hh_names=["plus2", "minus2"], representations={}
    ).eqcat


def half_basis_eqcat():
    """k[Z/2] on the basis 1, h = g/2, so h∘h = (1/4)·1, under the trivial
    Z/2 action: the sign objects and the symmetrization of the point."""
    base = algebra_category(QQ, "pt", [("1", 0), ("h", 0)], {("h", "h"): {"1": Fraction(1, 4)}})
    la = lift_action(trivial_action(FiniteGroup.cyclic(2, names=["e", "s"]), base), [("pt",), ("pt", "pt")])
    unit = la.category.unit(("pt",))
    signs = [
        EquivariantObject(name, ("pt",), {"e": unit, "s": unit.scale(c)})
        for name, c in [("plus", 1), ("minus", -1)]
    ]
    return EquivariantCategory(la, [*signs, symmetrize(la, ("pt",))])


def coboundary_eqcat():
    """The coboundary S3 action on the point, whose theta is not symmetric
    in its two elements: the point with alpha_g = 1/f(g), its sign and
    standard twists, and the symmetrizations of the point and of pt⊕pt."""
    act = coboundary_action()
    s3 = act.group
    pt = ("pt",)
    la = lift_action(act, [pt, pt * 2, pt * 6, pt * 12])
    unit = la.category.unit(pt)
    f = coboundary_weights(s3)
    weighted = EquivariantObject("f", pt, {g: unit.scale(1 / f[g]) for g in s3.elements})
    return EquivariantCategory(la, [
        weighted,
        rep_tensor(la, sign_representation_s(s3), weighted),
        rep_tensor(la, s3_standard_representation(s3), weighted),
        symmetrize(la, pt),
        symmetrize(la, pt * 2),
    ])


def permuted_points_action():
    """S3 permuting three disjoint points: a strict action whose rho_g
    sends x_i to x_j for p_g(j) = i, so rho_g∘rho_h = rho_{hg}."""
    names = ["x1", "x2", "x3"]
    base = disjoint_points_category(QQ, names)
    s3 = FiniteGroup.symmetric(3)
    functors = {}
    for g in s3.elements:
        perm = s3.perm_of[g]
        obj_map = {names[perm[i]]: names[i] for i in range(3)}
        mor_map = {
            (x, y): {(0, "1"): base.basis_mor(obj_map[x], obj_map[x], 0, "1")} if x == y else {}
            for x, y in itertools.product(names, repeat=2)
        }
        functors[g] = DgFunctor(base, base, obj_map, mor_map, name=f"permute[{g}]")
    return strict_action(s3, base, functors, name="permute points")


def permuted_points_eqcat():
    """Under S3 permuting three points: x1⊕x2⊕x3 with alpha_g the
    permutation of its parts, its sign twist, and the symmetrization of
    x1 (each point twice)."""
    act = permuted_points_action()
    s3 = act.group
    c = ("x1", "x2", "x3")
    sym = tuple(act.rho(h).apply_obj("x1") for h in s3.elements)
    parts = [(x,) for x in c]
    la = lift_action(act, [c, sym, *parts])
    unit = la.category.unit
    alpha = {}
    for g in s3.elements:
        tgt = [(y,) for y in la.rho(g).apply_obj(c)]
        alpha[g] = block_mor(parts, tgt, {(tgt.index(x), i): unit(x) for i, x in enumerate(parts)})
    perm = EquivariantObject("perm", c, alpha)
    return EquivariantCategory(la, [
        perm, rep_tensor(la, sign_representation_s(s3), perm), symmetrize(la, ("x1",)),
    ])


def upper_triangular_category():
    """Upper triangular 2×2 matrices on the basis 1, e11, e12."""
    return algebra_category(
        QQ,
        "pt",
        [("1", 0), ("e11", 0), ("e12", 0)],
        {("e11", "e11"): {"e11": 1}, ("e11", "e12"): {"e12": 1}},
    )


def noncentral_theta_eqcat():
    """Z/2 acting on the upper triangular matrices by identity functors,
    with theta[s,s] = a = 1 + e12 and eta and every other theta a^{-1}.
    a is not central, so theta is not natural and the action fails
    validate_action.  The point with alpha_e = a and alpha_s = ±1 still
    satisfies the coherence square at every pair.  The s condition alone
    puts no constraint on End, while the e condition asks φ to commute
    with a."""
    cat = upper_triangular_category()
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    ident = identity_functor(cat)
    a = Mor("pt", "pt", {(0, "1"): 1, (0, "e12"): 1})
    a_inv = Mor("pt", "pt", {(0, "1"): 1, (0, "e12"): -1})
    comps = {("e", "e"): a_inv, ("e", "s"): a_inv, ("s", "e"): a_inv, ("s", "s"): a}
    theta = {
        pair: NatTransform(ident, ident, {"pt": m}, name=f"theta{pair}")
        for pair, m in comps.items()
    }
    eta = NatTransform(ident, ident, {"pt": a_inv}, name="eta")
    act = GroupAction(z2, cat, {g: ident for g in z2.elements}, theta, eta, name="noncentral")
    la = lift_action(act, [("pt",)])
    unit = la.category.unit(("pt",))
    a_hull = la.theta_at("s", "s").at(("pt",))
    return EquivariantCategory(la, [
        EquivariantObject(name, ("pt",), {"e": a_hull, "s": unit.scale(c)})
        for name, c in [("plus", 1), ("minus", -1)]
    ])


def cyclotomic_z3_eqcat():
    """Z/3 acting trivially on the point over Q(zeta_3): the point with
    alpha_{r_i} = zeta^{ik} for each character k, and the symmetrization
    of the point, whose End splits over the three characters."""
    field = CyclotomicField(3)
    z3 = FiniteGroup.cyclic(3)
    base = algebra_category(field, "pt", [("1", 0)], {})
    la = lift_action(trivial_action(z3, base), [("pt",), ("pt",) * 3])
    unit = la.category.unit(("pt",))
    powers = [field.one, field.zeta(), field.zeta() * field.zeta()]
    chars = [
        EquivariantObject(
            f"chi{k}", ("pt",), {g: unit.scale(powers[i * k % 3]) for i, g in enumerate(z3.elements)}
        )
        for k in range(3)
    ]
    return EquivariantCategory(la, [*chars, symmetrize(la, ("pt",))])


def graded_sign_eqcat():
    """Z/2 acting on the exterior algebra k[u], u in degree -1, by
    u -> -u: the point with alpha_s = ±1 and the symmetrization of the
    point.  Hom(plus, minus) is spanned by u alone and End(S(pt)) has
    homs in degrees 0 and -1, so composites meet several degrees."""
    base = algebra_category(QQ, "pt", [("1", 0), ("u", -1)], {("u", "u"): {}})
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])

    def scaling_u(c):
        images = {(0, "1"): base.unit("pt"), (-1, "u"): base.basis_mor("pt", "pt", -1, "u").scale(c)}
        return DgFunctor(base, base, {"pt": "pt"}, {("pt", "pt"): images}, name=f"u -> {c}u")

    functors = {"e": scaling_u(1), "s": scaling_u(-1)}
    la = lift_action(strict_action(z2, base, functors, name="sign"), [("pt",), ("pt", "pt")])
    unit = la.category.unit(("pt",))
    signs = [
        EquivariantObject(name, ("pt",), {"e": unit, "s": unit.scale(c)})
        for name, c in [("plus", 1), ("minus", -1)]
    ]
    return EquivariantCategory(la, [*signs, symmetrize(la, ("pt",))])


EQCATS = {
    **{name: lambda name=name: pipeline(name).eqcat for name in BUILDERS},
    "graded-sign-z2": graded_sign_eqcat,
    "scaled": scaled_eqcat,
    "half-basis-z2": half_basis_eqcat,
    "coboundary-s3": coboundary_eqcat,
    "permuted-points-s3": permuted_points_eqcat,
    "noncentral-theta-z2": noncentral_theta_eqcat,
    "cyclotomic-z3": cyclotomic_z3_eqcat,
}
VALID = sorted(set(EQCATS) - {"noncentral-theta-z2"})


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_equivariant_category_matches_reference(name):
    assert_matches_reference(EQCATS[name]())


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_alpha_inverse_matches_invert(monkeypatch, name):
    """alpha_inverse equals DgCategory.invert on every roster alpha.  On the
    E1, E2 and E5 pipelines the coherence square proves every alpha_g with
    g != e: invert is called on none of them."""
    eq = EQCATS[name]()
    la = eq.laction
    invert = la.category.invert
    inverted = []
    monkeypatch.setattr(la.category, "invert", lambda f: inverted.append(f) or invert(f))
    for obj in eq.roster.values():
        for g in la.group.elements:
            assert equivariant.alpha_inverses(la, obj)[g] == invert(obj.alpha[g]), (obj.name, g)
    if name in BUILDERS:
        e = la.group.identity
        alphas = [a for obj in eq.roster.values() for g, a in obj.alpha.items() if g != e]
        assert not [f for f in inverted if any(f is a for a in alphas)]


def as_rationals(vec):
    """vec with every rational value read as a Fraction, a cyclotomic one
    with no irrational part included."""
    return {
        k: x if isinstance(x, Cyc) and any(x.coeffs[1:]) else Fraction(x.coeffs[0] if isinstance(x, Cyc) else x)
        for k, x in vec.items()
    }


def exact(mor):
    return {k: (x, type(x)) for k, x in mor.coeffs.items()}


def restrict_cases(eq):
    """(pair, ambient coefficients, in the span) for every product of two
    solved vectors as the hull composition table forms it, each unit, each
    d-image, each product with 1 added at a key that is no vector's free
    key, a vector in a degree with no solved basis, and the sum of the
    first solved vector of each degree, highest degree first, so that its
    degrees appear out of numerical order."""
    cat = eq.ambient
    one = cat.field.one
    for xn, yn, zn in itertools.product(eq.order, repeat=3):
        x, z = eq.roster[xn].underlying, eq.roster[zn].underlying
        free = {next(reversed(vec)) for vec in eq._solved[(xn, zn)].values()}
        for prod in table_route_products(eq, xn, yn, zn).values():
            yield (xn, zn), prod, True
            if prod:
                deg = next(iter(prod))[0]
                outside = [(deg, lab) for lab in cat.hom(x, z).labels(deg) if (deg, lab) not in free]
                if outside:
                    yield (xn, zn), vec_axpy(dict(prod), 1, {outside[0]: one}), False
    for name in eq.order:
        yield (name, name), cat.unit(eq.roster[name].underlying).coeffs, True
    for pair in itertools.product(eq.order, repeat=2):
        x, y = (eq.roster[n].underlying for n in pair)
        for vec in eq._solved[pair].values():
            yield pair, cat.d(Mor(x, y, vec)).coeffs, True
        firsts = {}
        for (deg, _), vec in eq._solved[pair].items():
            firsts.setdefault(deg, vec)
        if len(firsts) > 1:
            total = {}
            for deg in sorted(firsts, reverse=True):
                vec_axpy(total, 1, firsts[deg])
            yield pair, total, True
        solved = {deg for deg, _ in eq._solved[pair]}
        space = cat.hom(x, y)
        for deg in space.degrees():
            if deg not in solved:
                yield pair, {(deg, space.labels(deg)[0]): one}, False


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_restrict_matches_echelon_reference(name):
    """restrict reads coordinates at the free keys and checks the residual;
    Echelon.solve against the flattened basis gives the same coordinates
    with the same scalar types, or None with it, also when every rational
    value comes as a Fraction: an int over Q, an embedded cyclotomic
    scalar over Q(zeta_3).  Only the key order may differ; it is that of
    the scan over every solved vector of each degree that restrict made
    before it read the free keys a morphism holds."""
    eq = EQCATS[name]()
    seen = {True: 0, False: 0}
    for (sn, tn), coeffs, inside in restrict_cases(eq):
        x, y = eq.roster[sn].underlying, eq.roster[tn].underlying
        got = eq.restrict(Mor(x, y, coeffs), sn, tn)
        want = reference_restrict(eq, Mor(x, y, coeffs), sn, tn)
        scanned = scanning_restrict(eq, coeffs, sn, tn)
        assert (None if got is None else typed(got.coeffs)) == (
            None if scanned is None else typed(scanned)
        ), (sn, tn, coeffs)
        if got is None or want is None:
            assert got is want is None and not inside, (sn, tn, coeffs)
        else:
            assert inside and exact(got) == exact(want), (sn, tn, coeffs)
            again = eq.restrict(Mor(x, y, as_rationals(coeffs)), sn, tn)
            assert exact(again) == exact(want), (sn, tn, coeffs)
        seen[inside] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_solved_vectors_are_reduced(name):
    """What restrict relies on: each solved vector has coefficient 1 at
    its last key, and no other vector of its pair and degree is nonzero
    there."""
    eq = EQCATS[name]()
    one = eq.ambient.field.one
    for table in eq._solved.values():
        for (deg, lab), vec in table.items():
            last = next(reversed(vec))
            assert typed({last: vec[last]}) == typed({last: one}), (deg, lab)
            others = [v for (d, l), v in table.items() if d == deg and l != lab]
            assert not any(v.get(last) for v in others), (deg, lab)


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_composition_tables_match_the_hull_table_route(name):
    """Each composition table, whose products are read blockwise off the
    base and restricted at the free keys they hold, equals the route
    through the hull table: every product by compose_terms on the hull
    composition table, restricted by scanning every solved vector of the
    degree.  Equal values and scalar types, tables in the same key order
    and coordinates in the same order."""
    eq = EQCATS[name]()
    nonzero = 0
    for triple in itertools.product(eq.order, repeat=3):
        table = eq.category.comp_table(*triple)
        assert typed_table(table) == typed_table(table_route_comp_table(eq, *triple)), triple
        nonzero += len(table)
    assert nonzero


def test_composite_outside_the_solved_subspace_is_a_structure_error():
    """A solved vector of End(S(pt)) replaced after the build by E_00, which
    does not commute with the swap of S(pt)'s parts: its square leaves the
    span that restrict solves in, and the lazily built table raises
    StructureError naming the triple."""
    eq = half_basis_eqcat()
    s = eq.sym_name(("pt",))
    solved = eq._solved[(s, s)]
    solved[next(iter(solved))] = {(0, (0, 0, "1")): Fraction(1)}
    message = f"composite of ({s},{s},{s}) leaves the solved subspace"
    with pytest.raises(StructureError, match=re.escape(message)):
        eq.category.comp_table(s, s, s)


@pytest.mark.parametrize("name", VALID)
def test_valid_actions_stack_a_generating_set(name):
    """On a validated base only the generators' conditions are stacked:
    two of S3's six elements, one of Z/2's two and one of Z/3's three."""
    eq = EQCATS[name]()
    grp = eq.laction.group
    assert eq._conditions == grp.generating_set()
    assert len(eq._conditions) == {2: 1, 3: 1, 6: 2}[len(grp)]


class GeneratorsOnly(EquivariantCategory):
    """Stacks the generators' conditions whatever the base."""

    def _condition_elements(self):
        return self.laction.group.generating_set()


def solved_dims(eq):
    return {pair: sum(map(len, eq._solve_pair(*map(eq.roster.get, pair)).values()))
            for pair in itertools.product(eq.order, repeat=2)}


def test_invalid_action_stacks_every_element():
    """Where the action fails validate_action the generators' conditions
    can cut out too much: End(plus) has dimension 3 under the s condition
    alone and 2 under both.  The category stacks every element there and
    matches the reference."""
    eq = noncentral_theta_eqcat()
    assert validate_dgcat(eq.laction.base.category).ok
    assert not validate_action(eq.laction.base).ok
    assert eq._conditions == ["e", "s"]
    roster = [eq.roster[n] for n in eq.order]
    assert solved_dims(eq)[("plus", "plus")] == 2
    assert solved_dims(GeneratorsOnly(eq.laction, roster))[("plus", "plus")] == 3
    assert_matches_reference(eq)


@pytest.mark.parametrize("validator", ["validate_dgcat", "validate_action"])
def test_raising_validator_stacks_every_element(monkeypatch, validator):
    """A validator that raises a package error counts as failing."""

    def raising(_):
        raise StructureError("malformed")

    monkeypatch.setattr(equivariant, validator, raising)
    eq = coboundary_eqcat()
    assert eq._conditions == eq.laction.group.elements
    assert_matches_reference(eq)


def test_action_that_was_not_lifted_stacks_every_element():
    eq = coboundary_eqcat()
    del eq.laction.base
    rebuilt = EquivariantCategory(eq.laction, [eq.roster[n] for n in eq.order])
    assert rebuilt._conditions == eq.laction.group.elements


def typed_solved(solved):
    return [(deg, [typed(vec) for vec in basis]) for deg, basis in solved.items()]


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_int_reads_match_fraction_loops(name):
    """The hom solve and the composition tables, which sum the canonical
    tables (ints where integral), against the same loops with every entry
    read as a Fraction: equal values, scalar types and key order.  Solved
    vectors list their keys in hom-key order.  On the half basis of
    k[Z/2] the entry h∘h = 1/4 stays a Fraction."""
    eq = EQCATS[name]()
    roster = [eq.roster[n] for n in eq.order]
    for src, tgt in itertools.product(roster, repeat=2):
        solved = eq._solve_pair(src, tgt)
        assert typed_solved(solved) == typed_solved(
            fraction_solve_pair(eq, src, tgt)
        ), (src.name, tgt.name)
        for deg, basis in solved.items():
            keys = [(deg, lab) for lab in eq.ambient.hom(src.underlying, tgt.underlying).labels(deg)]
            assert [list(vec) for vec in basis] == [
                [k for k in keys if k in vec] for vec in basis
            ], (src.name, tgt.name, deg)
    nonzero = 0
    for triple in itertools.product(eq.order, repeat=3):
        table = eq.category.comp_table(*triple)
        assert typed_table(table) == typed_table(fraction_comp_table(eq, *triple)), triple
        nonzero += len(table)
    assert nonzero
    if name == "half-basis-z2":
        amb = eq.ambient.comp_table(("pt",), ("pt",), ("pt",))
        assert any(type(c) is Fraction for entry in amb.values() for c in entry.values())


def induced_maps(pipe):
    for g in pipe.classes.representatives:
        yield pipe.projection(g)
        yield pipe.inclusion(g)
        yield pipe.projector_map(g)
        for h in pipe.classes.centralizers[g]:
            yield pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h, g)
            yield pipe.centralizer_map(pipe.w_big[g], pipe._rho_big, h, g)


def sampled_columns(n, most=200):
    """All of 0..n-1 up to ``most``, else ``most`` or so evenly spaced
    ones and the last."""
    step = max(1, n // most)
    return sorted(set(range(0, n, step)) | ({n - 1} if n else set()))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_induced_maps_match_reference(name):
    """Every column of E1's and E2's maps; E5's degrees of 4,491 and
    34,225 chains are sampled to keep the test short."""
    columns = 0
    for m in induced_maps(pipeline(name)):
        for k in range(m.src.lo, m.src.hi + 1):
            for j in sampled_columns(m.src.dim(k)):
                got = m.apply_chain(k, j)
                assert typed(got) == typed(reference_induced_chain(m, k, j)), (m.name, k, j)
                columns += bool(got)
    assert columns


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sym_name_names_the_sum_of_translates(name):
    """sym_name(c) is the roster entry on ⊕_h rho_h(c), built here from the
    object maps, with the alphas of S(c)."""
    pipe = pipeline(name)
    for c in pipe.small_objs:
        expected = sum((pipe.laction.rho(h).apply_obj(c) for h in pipe.group.elements), ())
        entry = pipe.eqcat.roster[pipe.eqcat.sym_name(c)]
        assert entry.underlying == expected
        assert entry.signature() == symmetrize(pipe.laction, c).signature()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_counit_after_unit_is_the_group_order(name):
    """P_X∘I_X = Σ_h alpha_h^{-1}∘alpha_h = |G|·id_X on every covering
    object X."""
    pipe = pipeline(name)
    cat = pipe.eqcat.category
    order = cat.field.embed(len(pipe.group))
    for x in pipe.hh_names:
        i_x, p_x = pipe.eqcat.unit_counit(x)
        assert cat.compose(p_x, i_x) == cat.unit(x).scale(order), x


def test_functor_image_of_an_unmapped_key_is_a_structure_error():
    """A document functor's tables are plain dicts: a hom pair or a key
    it does not map is a StructureError, not a KeyError.  The zero
    morphism maps to zero without reading a table."""
    bundle = parse_document(canonical_json(serialize_bundle(get_example("E2"))))
    rho = bundle.action.rho("s")
    assert not hasattr(rho.mor_map, "__missing__")
    assert rho.image("x1", "x1", (0, "1")) == bundle.base.basis_mor("x2", "x2", 0, "1")
    for pair, key in [(("x1", "x2"), (0, "1")), (("x1", "x1"), (0, "ghost"))]:
        with pytest.raises(StructureError) as err:
            rho.image(*pair, key)
        assert not isinstance(err.value, KeyError)
        assert "no action on" in str(err.value)
        with pytest.raises(StructureError):
            rho.apply(Mor(*pair, {key: bundle.base.field.one}))
    assert rho.apply(Mor("x1", "x2", {})).is_zero()
