"""The table-driven equivariant layer and induced maps against their
morphism-by-morphism references, on the E1, E2 and E5 pipelines: the
same numbers in the same key order and of the same scalar type.  Also
the category's symmetrization pieces on the same pipelines: S(c)'s roster
name and the unit/counit pair I, P."""

import itertools
from fractions import Fraction

import pytest

from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import Mor, algebra_category
from equihh.documents import canonical_json, parse_document, serialize_bundle
from equihh.equivariant import (
    EquivariantCategory,
    EquivariantObject,
    build_equivariant_category,
    lift_action,
    symmetrize,
)
from equihh.errors import StructureError
from equihh.examples import DeclaredObject, example_e1, example_e2, example_e5, get_example
from equihh.groups import FiniteGroup, trivial_action
from equihh.linalg import integral_entry
from equihh.scalars import QQ
from tests_support import (
    fraction_comp_table,
    fraction_solve_pair,
    reference_equivariant_comp_table,
    reference_induced_chain,
    reference_solve_pair,
    scaled_action,
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


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equivariant_category_matches_reference(name):
    """Solved bases (with their q labels), differentials, units and every
    composition table."""
    eq = pipeline(name).eqcat
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
    return build_equivariant_category(la, [*signs, symmetrize(la, ("pt",))])


EQCATS = {
    **{name: lambda name=name: pipeline(name).eqcat for name in BUILDERS},
    "scaled": scaled_eqcat,
    "half-basis-z2": half_basis_eqcat,
}


def typed_solved(solved):
    return [(deg, [typed(vec) for vec in basis]) for deg, basis in solved.items()]


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_int_reads_match_fraction_loops(name):
    """The hom solve and the composition tables, which read integral
    entries as ints, against the same loops on the stored field scalars:
    equal values, scalar types and key order.  On the half basis of
    k[Z/2] the entry h∘h = 1/4 is read as it is stored."""
    eq = EQCATS[name]()
    roster = [eq.roster[n] for n in eq.order]
    for src, tgt in itertools.product(roster, repeat=2):
        assert typed_solved(eq._solve_pair(src, tgt)) == typed_solved(
            fraction_solve_pair(eq, src, tgt)
        ), (src.name, tgt.name)
    nonzero = 0
    for triple in itertools.product(eq.order, repeat=3):
        table = eq.category.comp_table(*triple)
        assert typed_table(table) == typed_table(fraction_comp_table(eq, *triple)), triple
        nonzero += len(table)
    assert nonzero
    if name == "half-basis-z2":
        amb = eq.ambient.comp_table(("pt",), ("pt",), ("pt",))
        assert any(integral_entry(entry) is entry for entry in amb.values())


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
    it does not map is a StructureError, not a KeyError."""
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
