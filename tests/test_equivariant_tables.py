"""The table-driven equivariant layer and induced maps against their
morphism-by-morphism references, on the E1, E2 and E5 pipelines: the
same numbers in the same key order and of the same scalar type."""

import itertools

import pytest

from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import Mor
from equihh.documents import canonical_json, parse_document, serialize_bundle
from equihh.equivariant import EquivariantCategory
from equihh.errors import StructureError
from equihh.examples import example_e1, example_e2, example_e5, get_example
from tests_support import (
    reference_equivariant_comp_table,
    reference_induced_chain,
    reference_solve_pair,
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
