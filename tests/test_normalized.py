"""The normalized window against the standard one: same homology, same
certification, and the quotient map between them is a chain map that is
an isomorphism on homology."""

import json

import pytest

from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import identity_functor
from equihh.documents import parse_document
from equihh.errors import InputError
from equihh.examples import (
    example_e2,
    get_example,
    group_algebra_z2_category,
    point_category,
)
from equihh.hochschild import build_window, hh_dimensions
from equihh.linalg import matrix_inverse
from tests_support import (
    NormalizationMap,
    cyclic_group_document,
    negative_degree_exterior_category,
    reference_chains,
)


def e2_full_hull():
    """The E2 hull category: four objects whose units are sums of keys."""
    b = example_e2()
    pipe = DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names or None,
        representations={}, degrees=(-1, 0),
    )
    return pipe.cat_full


def window_cases():
    """(name, category, functor, degree range, bar cap): the bundled
    examples with every functor of their action, three small categories,
    the k[Z/n] ladder and the E2 hull."""
    for name in ["E1", "E2", "E3", "E4", "E5"]:
        b = get_example(name)
        functors = {"id": identity_functor(b.base)}
        if b.action is not None:
            functors.update({g: b.action.rho(g) for g in b.action.group.elements})
        for g, fun in functors.items():
            yield f"{name}:{g}", b.base, fun, (-4, 1), b.bar_cap
    for name, cat in [
        ("point", point_category()),
        ("k[Z/2]", group_algebra_z2_category()),
        ("negative exterior", negative_degree_exterior_category()),
    ]:
        yield name, cat, identity_functor(cat), (-4, 1), None
    for n in (2, 3, 4):
        cat = parse_document(json.dumps(cyclic_group_document(n, n=n))).base
        yield f"ladder k[Z/{n}]", cat, identity_functor(cat), (-4, 1), None
    full = e2_full_hull()
    yield "E2 hull", full, identity_functor(full), (-3, 1), None


CASES = list(window_cases())


def window_pair(cat, fun, lo, hi, cap):
    standard = build_window(cat, fun, lo, hi, bar_cap=cap)
    return standard, build_window(cat, fun, lo, hi, bar_cap=cap, normalized=True)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_normalized_chains_match_reference_enumeration(case):
    """Each degree's chains, in order, equal those of the chain-by-chain
    recursion, which enumerates no pivot in a slot t >= 1."""
    _, cat, fun, (lo, hi), cap = case
    win = build_window(cat, fun, lo, hi, bar_cap=cap, normalized=True)
    want = reference_chains(win)
    assert {k: win.chains_at(k) for k in want} == want


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_normalized_window_has_the_standard_homology(case):
    _, cat, fun, (lo, hi), cap = case
    standard, normal = window_pair(cat, fun, lo, hi, cap)
    assert normal.certification == standard.certification
    assert sum(normal.dim(k) for k in range(lo, hi + 1)) <= sum(
        standard.dim(k) for k in range(lo, hi + 1)
    )
    if standard.certification.exact:
        for k in range(lo + 1, hi):
            assert normal.homology(k)[0] == standard.homology(k)[0], k


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_quotient_map_is_a_chain_map_and_a_homology_isomorphism(case):
    _, cat, fun, (lo, hi), cap = case
    standard, normal = window_pair(cat, fun, lo, hi, cap)
    pi = NormalizationMap(standard, normal, name="pi")
    checked, failures = pi.verify_chain_map()
    assert failures == []
    assert checked == sum(standard.dim(k) for k in range(lo, hi))
    if standard.certification.exact:
        for k in range(lo + 1, hi):
            mat = pi.homology_matrix(k)
            assert mat.nrows == mat.ncols
            assert matrix_inverse(mat) is not None, k


def test_quotient_map_on_sum_units_substitutes_the_pivot():
    # a pivot key in a normalized slot goes to minus the other unit keys
    full = e2_full_hull()
    standard, normal = window_pair(full, identity_functor(full), -2, 1, None)
    sums = {x: p for x, p in normal.pivots.items() if p[1]}
    assert len(sums) == 2
    pi = NormalizationMap(standard, normal)
    hits = 0
    for k in range(-2, 2):
        for j, (objs, keys) in enumerate(standard.chains_at(k)):
            if len(keys) == 2 and objs[0] == objs[1] in sums and keys[1] == sums[objs[0]][0]:
                (rest_key, c), = sums[objs[0]][1].items()
                image = normal._index[k][(objs, (keys[0], rest_key))]
                assert pi.apply_chain(k, j) == {image: c}
                hits += 1
    assert hits


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_normalized_dims_on_seeded_cyclic_documents(seed):
    cat = parse_document(json.dumps(cyclic_group_document(seed))).base
    ident = identity_functor(cat)
    standard = build_window(cat, ident, -4, 1)
    res = hh_dimensions(cat, ident, [-3, -2, -1, 0])
    assert res["window"].pivots == {"pt": ((0, "1"), {})}
    assert res["dims"] == {k: standard.homology(k)[0] for k in range(-3, 1)}
    assert res["dims"] == {-3: 0, -2: 0, -1: 0, 0: 6}
    assert sum(res["window"].dim(k) for k in range(-4, 2)) == 4686
    assert sum(standard.dim(k) for k in range(-4, 2)) == 9330


def test_normalized_window_rejects_a_broken_unit():
    doc = cyclic_group_document(11)
    doc["category"]["units"]["pt"] = {"g1": "1"}
    cat = parse_document(json.dumps(doc)).base
    build_window(cat, identity_functor(cat), -1, 1)  # the standard window does not ask
    with pytest.raises(InputError, match="f∘id != f"):
        build_window(cat, identity_functor(cat), -1, 1, normalized=True)
