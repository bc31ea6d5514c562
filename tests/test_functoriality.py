"""Chain-level functoriality of induced maps: the table pass of
``compose_induced`` against the chain-by-chain comparison it falls back
to, on every composite the decomposition pipeline forms and on composites
built to break it."""

import pytest

import equihh.hochschild as hochschild
from equihh.decomposition import DecompositionPipeline, _fits_budget
from equihh.dgcat import (
    DgFunctor,
    GradedSpace,
    NatTransform,
    disjoint_points_category,
    identity_functor,
)
from equihh.errors import StructureError
from equihh.examples import example_e1, example_e2, example_e5, exterior_category
from equihh.hochschild import InducedMap, build_window, compose_induced, induced_composite
from equihh.scalars import QQ
from tests_support import collapsing_twist, identity_but_e, reversed_window


@pytest.fixture
def table_verdicts(monkeypatch):
    """Every verdict of the table pass that compose_induced reaches."""
    verdicts = []
    table_pass = hochschild._slot_tables_agree

    def recorded(outer, inner, combined):
        verdicts.append(table_pass(outer, inner, combined))
        return verdicts[-1]

    monkeypatch.setattr(hochschild, "_slot_tables_agree", recorded)
    return verdicts


def pipeline_composites(pipe):
    """(outer, inner) of every composite the pipeline passes to
    compose_induced: π∘μ, and where the windows fit the certificate budget
    m_big[h]∘π for each centralizer element h and π[g]∘ι[g2] for each pair
    of classes; then the acceptance suite's m_small[h]∘m_small[h2]."""
    reps = pipe.classes.representatives
    certified = all(_fits_budget(w) for w in [pipe.w_full, *pipe.w_big.values()])
    for g in reps:
        proj = pipe.projection(g)
        yield proj, pipe.mu
        if not certified:
            continue
        for h in pipe.classes.centralizers[g]:
            yield pipe.centralizer_map(pipe.w_big[g], pipe._rho_big, h, g), proj
        for g2 in reps:
            yield proj, pipe.inclusion(g2)
    for g in reps:
        for h in pipe.classes.centralizers[g]:
            m_small = pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h, g)
            for h2 in pipe.classes.centralizers[g]:
                yield m_small, pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h2, g)


@pytest.mark.parametrize(
    "builder, degrees",
    [(example_e1, (-2, 0)), (example_e2, None), (example_e5, None)],
    ids=["E1", "E2", "E5"],
)
def test_table_pass_certifies_every_pipeline_composite(builder, degrees, table_verdicts):
    b = builder()
    pipe = DecompositionPipeline(
        b.action,
        b.declared,
        b.generators,
        hh_names=b.hh_names or None,
        representations=b.representations,
        degrees=degrees or b.degrees,
    )
    pairs = 0
    for outer, inner in pipeline_composites(pipe):
        combined, mismatches = compose_induced(outer, inner)
        assert mismatches == []
        assert hochschild._chain_mismatches(outer, inner, combined) == []
        pairs += 1
    # one table verdict per composite, each a pass: no silent fallback
    assert table_verdicts == [True] * pairs and pairs > 10


def swap_setting(degrees=(-2, 1)):
    """The swap of E2's two points as an induced map on the untwisted
    window: (rho_s, C[s,e])_*."""
    b = example_e2()
    cat = b.base
    win = build_window(cat, identity_functor(cat), *degrees)
    twist = b.action.centralizer_transform("s", "e")
    return cat, b.action.rho("s"), twist, win


def sabotaged_composite():
    """(outer, inner) with inner the swap and outer the swap with its image
    of id_x2 doubled, so that outer's functor psi breaks composition:
    psi(eta∘phi(a0)) = psi(id_x2) = 2·id_x1, but psi(eta)∘psi(phi(a0)) =
    4·id_x1 at slot 0 of every chain at x1."""
    cat, rho_s, twist, win = swap_setting()
    table = {pair: dict(rho_s.mor_map[pair]) for pair in rho_s.mor_map}
    unit_key = (0, "1")
    table[("x2", "x2")][unit_key] = table[("x2", "x2")][unit_key].scale(2)
    psi = DgFunctor(cat, cat, rho_s.obj_map, table, name="swap'")
    return InducedMap(win, win, psi, twist), InducedMap(win, win, rho_s, twist)


def test_sabotaged_functor_fails_table_pass_and_chain_comparison(table_verdicts):
    outer, inner = sabotaged_composite()
    _, mismatches = compose_induced(outer, inner)
    assert table_verdicts == [False]
    assert mismatches
    assert mismatches == hochschild._chain_mismatches(outer, inner, induced_composite(outer, inner))


def test_narrow_middle_window_takes_the_fallback(table_verdicts):
    # the middle window drops degree -2, so inner sends those chains to 0
    # there and the composite differs from the combined map
    _, rho_s, twist, win = swap_setting()
    narrow = build_window(win.category, win.functor, -1, 1)
    inner = InducedMap(win, narrow, rho_s, twist)
    outer = InducedMap(narrow, win, rho_s, twist)
    combined, mismatches = compose_induced(outer, inner)
    assert table_verdicts == [False]
    assert mismatches and {k for k, _ in mismatches} == {-2}
    assert mismatches == hochschild._chain_mismatches(outer, inner, combined)


def test_package_error_in_table_pass_falls_back(monkeypatch):
    outer, inner = sabotaged_composite()

    def raising(*_maps):
        raise StructureError("functor swap' has no action on a key no chain uses")

    monkeypatch.setattr(hochschild, "_slot_tables_agree", raising)
    combined, mismatches = compose_induced(outer, inner)
    assert mismatches and mismatches == hochschild._chain_mismatches(outer, inner, combined)


def one_way_category():
    """E2's two points with one more basis morphism t: x1 -> x2 of degree
    -3 and nothing back, so no object cycle passes through t and no chain
    of any window uses it."""
    cat = disjoint_points_category(QQ, ["x1", "x2"])
    t, one = (-3, "t"), (0, "1")
    cat.homs[("x1", "x2")] = GradedSpace({-3: ["t"]})
    cat.comp[("x1", "x1", "x2")] = {(one, t): {t: QQ.one}}
    cat.comp[("x1", "x2", "x2")] = {(t, one): {t: QQ.one}}
    return cat


def test_key_no_chain_uses_needs_no_table_entry(table_verdicts):
    """outer's functor has no action on t, a key no chain of the source
    window uses: the table pass reads only the keys the chains use, so it
    certifies the composite instead of falling back."""
    cat = one_way_category()
    ident = identity_functor(cat)
    without_t = DgFunctor(
        cat,
        cat,
        dict(ident.obj_map),
        {(x, x): {(0, "1"): cat.unit(x)} for x in cat.objects},
        name="id without t",
    )
    win = build_window(cat, ident, -2, 1)
    units = {x: cat.unit(x) for x in cat.objects}
    inner = InducedMap(win, win, ident, NatTransform(ident, ident, units))
    outer = InducedMap(win, win, without_t, NatTransform(without_t, without_t, units))
    with pytest.raises(StructureError, match="no action"):
        without_t.image("x1", "x2", (-3, "t"))
    combined, mismatches = compose_induced(outer, inner)
    assert table_verdicts == [True]
    assert mismatches == []
    assert hochschild._chain_mismatches(outer, inner, combined) == []


# ---------------------------------------------------------------------------
# composites that only one precondition of the table pass rejects


def identity_induced(src, tgt, phi=None):
    """(phi, 1)_* from ``src`` to ``tgt``, phi the identity of their
    category by default: the twist is the unit of F(c) at each object c."""
    cat, twist = src.category, src.functor
    phi = phi or identity_functor(cat)
    units = {c: cat.unit(twist.apply_obj(c)) for c in cat.objects}
    return InducedMap(src, tgt, phi, NatTransform(phi, phi, units))


def test_middle_window_built_twice_takes_the_fallback(table_verdicts):
    # outer starts at a second build of the middle window, its chains in
    # another order, so outer reads inner's chain indices as other chains
    cat, twist = collapsing_twist()
    win = build_window(cat, twist, -3, 1)
    inner, outer = identity_induced(win, win), identity_induced(reversed_window(win), win)
    combined, mismatches = compose_induced(outer, inner)
    assert table_verdicts == [False]
    assert mismatches and mismatches == hochschild._chain_mismatches(outer, inner, combined)


def test_normalized_middle_window_takes_the_fallback(table_verdicts):
    # inner writes u[1] into a window without identities in slots 1..m
    cat, twist = collapsing_twist()
    win = build_window(cat, twist, -3, 1)
    normalized = build_window(cat, twist, -3, 1, normalized=True)
    inner, outer = identity_induced(win, normalized), identity_induced(normalized, win)
    with pytest.raises(StructureError, match="image chain missing from window"):
        compose_induced(outer, inner)
    assert table_verdicts == [False]


def test_middle_window_without_the_top_degree_takes_the_fallback(table_verdicts):
    # both windows reach bar degree 3; the middle one stops at degree -1,
    # so inner sends the degree-0 chains to 0
    cat, twist = collapsing_twist()
    win, lower = build_window(cat, twist, -3, 0), build_window(cat, twist, -3, -1)
    assert win.certification == lower.certification
    inner, outer = identity_induced(win, lower), identity_induced(lower, win)
    combined, mismatches = compose_induced(outer, inner)
    assert table_verdicts == [False]
    assert mismatches == [(0, 0), (0, 1)] == hochschild._chain_mismatches(outer, inner, combined)


def test_middle_window_with_a_lower_bar_cap_takes_the_fallback(table_verdicts):
    # the same degrees, but the middle window stops at bar degree 1
    ext = exterior_category(1)
    ident = identity_functor(ext)
    win = build_window(ext, ident, -2, 1, bar_cap=2)
    capped = build_window(ext, ident, -2, 1, bar_cap=1)
    inner, outer = identity_induced(win, capped), identity_induced(capped, win)
    with pytest.raises(StructureError, match="image chain missing from window"):
        compose_induced(outer, inner)
    assert table_verdicts == [False]


def test_slot_value_of_another_degree_takes_the_fallback():
    """phi sends e, which only slots 1..m hold, to 1_x of degree 0: the
    slot identities hold (the slot-0 keys keep their images), so only the
    typed reader rejects, and the chain loop reports the term of another
    degree."""
    cat, twist = collapsing_twist()
    phi = identity_but_e(cat, cat.unit("x"), "e->1")
    win = build_window(cat, twist, -3, 1)
    inner, outer = identity_induced(win, win, phi), identity_induced(win, win)
    with pytest.raises(StructureError, match="slot value"):
        hochschild._slot_tables_agree(outer, inner, induced_composite(outer, inner))
    with pytest.raises(StructureError, match=r"has degree -2, not -3"):
        compose_induced(outer, inner)
