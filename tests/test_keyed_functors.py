"""``dgcat.keyed_functor`` and every functor built through it.  A freshly
built functor has an empty morphism table, reading one hom pair fills only
that pair, and each filled table equals the eager {key: image} table of a
reference image: composites, identities, hull lifts, forget, S and T_V on
E5, and the permutation action.  Also ``EquivariantCategory._restricted``,
whose StructureError names what is not equivariant."""

import functools

import pytest

from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import (
    Mor,
    block_mor,
    compose_functors,
    hull_entries,
    hull_subcategory,
    identity_functor,
    keyed_functor,
    lift_functor_to_hull,
    parity_sign,
)
from equihh.equivariant import symmetrize_parts
from equihh.errors import StructureError
from equihh.examples import exterior_category, get_example, group_algebra_z2_category
from equihh.groups import permutation_action


@functools.cache
def pipeline(name):
    b = get_example(name)
    return DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names or None,
        representations=b.representations, degrees=b.degrees,
    )


def pairs(fun):
    return [(x, y) for x in fun.src.objects for y in fun.src.objects]


def assert_fills_lazily(fun):
    """An empty table, and one read fills exactly the pair it reads."""
    assert not fun.mor_map, fun.name
    first = next(p for p in pairs(fun) if next(fun.src.basis_keys(*p), None))
    fun.mor_map[first]
    assert list(fun.mor_map) == [first], fun.name


def assert_tables(fun, reference):
    """Every hom pair's table equals {key: reference(x, y, key)}."""
    for x, y in pairs(fun):
        want = {key: reference(x, y, key) for key in fun.src.basis_keys(x, y)}
        assert fun.mor_map[(x, y)] == want, (fun.name, x, y)


def test_keyed_functor_reads_each_image_once_when_its_pair_is_first_read():
    cat = group_algebra_z2_category()
    calls = []

    def image(x, y, key):
        calls.append(key)
        return Mor(x, y, {key: cat.field.one})

    fun = keyed_functor(cat, cat, {"pt": "pt"}, image, name="probe")
    assert not fun.mor_map and not calls
    g = cat.basis_mor("pt", "pt", 0, "g")
    assert fun.image("pt", "pt", (0, "g")) == g
    assert calls == list(cat.basis_keys("pt", "pt"))
    assert fun.apply(g + cat.unit("pt")) == g + cat.unit("pt")
    assert calls == list(cat.basis_keys("pt", "pt"))


def test_composite_and_identity_tables():
    b = get_example("E2")
    rho = b.action.rho("s")
    twice = compose_functors(rho, rho)
    assert_fills_lazily(twice)
    assert_tables(twice, lambda x, y, key: rho.apply(rho.image(x, y, key)))
    ident = identity_functor(b.base)
    assert_fills_lazily(ident)
    assert_tables(ident, lambda x, y, key: b.base.basis_mor(x, y, *key))


def test_hull_lift_table():
    """The lift of E2's swap to the hull on x1, x2 and both pairs: block
    (i, j) of the image of key (i, j, lab) is the swap's image of lab."""
    b = get_example("E2")
    rho = b.action.rho("s")
    hull = hull_subcategory(b.base, [("x1",), ("x2",), ("x1", "x2"), ("x2", "x1")])
    lifted = lift_functor_to_hull(rho, hull, hull)
    assert_fills_lazily(lifted)

    def reference(xs, ys, key):
        deg, (i, j, lab) = key
        base = rho.apply(b.base.basis_mor(xs[j], ys[i], deg, lab))
        src = [(rho.apply_obj(x),) for x in xs]
        tgt = [(rho.apply_obj(y),) for y in ys]
        block = Mor(src[j], tgt[i], hull_entries(base.coeffs, 0, 0))
        return block_mor(src, tgt, {(i, j): block})

    assert_tables(lifted, reference)


def test_forget_and_symmetrization_tables_on_e5():
    pipe = pipeline("E5")
    eqcat, laction = pipe.eqcat, pipe.laction
    forget = eqcat.forgetful_functor(pipe.cat_full, pipe.cat_big)
    assert_fills_lazily(forget)

    def forgotten(sn, tn, key):
        src, tgt = eqcat.roster[sn].underlying, eqcat.roster[tn].underlying
        return Mor(src, tgt, eqcat._solved[(sn, tn)][key])

    assert_tables(forget, forgotten)
    sym = eqcat.symmetrization_functor(pipe.cat_small)
    assert_fills_lazily(sym)

    def symmetrized(xs, ys, key):
        f = Mor(xs, ys, {key: laction.category.field.one})
        blocks = {(hi, hi): laction.rho(h).apply(f) for hi, h in enumerate(laction.group.elements)}
        amb = block_mor(symmetrize_parts(laction, xs), symmetrize_parts(laction, ys), blocks)
        return eqcat.restrict(amb, eqcat.sym_name(xs), eqcat.sym_name(ys))

    assert_tables(sym, symmetrized)


@pytest.mark.parametrize("rep_name", ["trivial", "regular"])
def test_rep_tensor_table_on_e5(rep_name):
    pipe = pipeline("E5")
    eqcat = pipe.eqcat
    rep = pipe.representations[rep_name]
    tensor = eqcat.rep_tensor_functor(rep, pipe.hh_names)
    assert_fills_lazily(tensor)

    def tensored(sn, tn, key):
        src, tgt = eqcat.roster[sn].underlying, eqcat.roster[tn].underlying
        amb = Mor(src, tgt, eqcat._solved[(sn, tn)][key])
        big = block_mor([src] * rep.dim, [tgt] * rep.dim, {(i, i): amb for i in range(rep.dim)})
        return eqcat.restrict(big, tensor.apply_obj(sn), tensor.apply_obj(tn))

    assert_tables(tensor, tensored)


@pytest.mark.parametrize(
    "category", [group_algebra_z2_category(), exterior_category()], ids=["k[Z/2]", "Λ(e)"]
)
def test_permutation_action_tables(category):
    """swap[21] on the square: a ⊗ b goes to (-1)^{|a||b|} b ⊗ a."""
    action, power = permutation_action(category, 2)
    swap = action.rho("21")
    assert swap.name == "swap[21]"

    def swapped(xs, ys, key):
        deg, (ka, kb) = key
        sign = power.field.one * parity_sign(ka[0] * kb[0])
        return Mor(xs[::-1], ys[::-1], {(deg, (kb, ka)): sign})

    assert_tables(swap, swapped)


def test_restricted_names_what_is_not_equivariant():
    """An ambient basis endomorphism of an E2 roster object outside the
    solved span: ``restrict`` gives None and ``_restricted`` raises,
    naming it; the ambient unit restricts to the roster unit."""
    eqcat = pipeline("E2").eqcat
    amb = eqcat.ambient
    outside = [
        (name, amb.basis_mor(c, c, *key))
        for name in eqcat.order
        for c in [eqcat.roster[name].underlying]
        for key in amb.basis_keys(c, c)
        if eqcat.restrict(amb.basis_mor(c, c, *key), name, name) is None
    ]
    assert outside
    name, mor = outside[0]
    with pytest.raises(StructureError, match=r"^the probe is not equivariant$"):
        eqcat._restricted(mor, name, name, "the probe")
    unit = amb.unit(eqcat.roster[name].underlying)
    assert eqcat._restricted(unit, name, name, "unit") == eqcat.category.unit(name)
