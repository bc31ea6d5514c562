"""``DgCategory.composable``, the one walk over runs of composable basis
morphisms, against the nested loops it replaced: the same runs in the same
order, and validators whose violation lists (rule, witness, order) match
the hand-nested loops kept in ``tests_support`` on bundled bases and on
k[Z/n], each with one composition, differential or functor-image
coefficient changed."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from equihh.dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    hull_subcategory,
    identity_functor,
    tensor_product_many,
    validate_dgcat,
    validate_functor,
    validate_nat,
)
from equihh.documents import parse_document
from equihh.examples import exterior_category, get_example, group_algebra_z2_category
from tests_support import (
    cyclic_group_document,
    leibniz_sabotage_pair,
    reference_validate_dgcat,
    reference_validate_functor,
    reference_validate_nat,
)

EXAMPLES = {name: get_example(name) for name in ("E1", "E2", "E3", "E4", "E5")}
CYCLIC = {n: parse_document(cyclic_group_document(n, n=n)).base for n in (2, 3, 4, 5)}


def nested_runs(cat, n):
    """(objects, keys) of every run of n = 1, 2 or 3 composable basis keys,
    by the validators' old nested loops."""
    keys = cat.basis_keys
    out = []
    for xs in itertools.product(cat.objects, repeat=n + 1):
        if n == 1:
            out += [(xs, (k,)) for k in keys(*xs)]
        elif n == 2:
            for gk in keys(xs[0], xs[1]):
                out += [(xs, (gk, fk)) for fk in keys(xs[1], xs[2])]
        else:
            for hk in keys(xs[0], xs[1]):
                for gk in keys(xs[1], xs[2]):
                    out += [(xs, (hk, gk, fk)) for fk in keys(xs[2], xs[3])]
    return out


def walk_categories():
    z2 = group_algebra_z2_category()
    return {
        **{name: bundle.base for name, bundle in EXAMPLES.items()},
        "hull(k[Z/2])": hull_subcategory(z2, [("pt",), ("pt", "pt"), ()]),
        "hull(E2)": hull_subcategory(EXAMPLES["E2"].base, [("x1",), ("x1", "x2"), ("x2",)]),
        "Λ(u)⊗k[Z/2]": tensor_product_many([exterior_category(), z2]),
    }


def test_composable_walks_the_nested_loops_runs_in_order():
    for name, cat in walk_categories().items():
        for n in (1, 2, 3):
            runs = list(cat.composable(n))
            assert [(xs, keys) for xs, keys, _ in runs] == nested_runs(cat, n), (name, n)
            for xs, keys, mors in runs:
                assert list(mors) == [
                    cat.basis_mor(x, y, *key) for (x, y), key in zip(zip(xs, xs[1:]), keys)
                ]


def test_composable_builds_each_basis_morphism_once_per_walk():
    cat = walk_categories()["hull(E2)"]
    built = []
    basis_mor = cat.basis_mor
    cat.basis_mor = lambda *args: built.append(args) or basis_mor(*args)
    for n in (1, 2, 3):
        built.clear()
        by_key = {}
        for xs, keys, mors in cat.composable(n):
            for pair, key, mor in zip(zip(xs, xs[1:]), keys, mors):
                assert by_key.setdefault((pair, key), mor) is mor
        dims = sum(cat.hom(x, y).total_dim() for x, y in itertools.product(cat.objects, repeat=2))
        assert len(built) == len(set(built)) == dims


# ---------------------------------------------------------------------------
# validators against the nested loops, on perturbed structure


def bases():
    return {
        **{name: bundle.base for name, bundle in EXAMPLES.items()},
        **{f"k[Z/{n}]": cat for n, cat in CYCLIC.items()},
        "Λ(u)": exterior_category(),
        "leibniz": leibniz_sabotage_pair()[0],
    }


BASES = bases()
SCALARS = [0, 1, -1, 2, Fraction(1, 2)]


def copy_category(cat):
    return DgCategory(
        cat.field,
        cat.objects,
        cat.homs,
        {pair: {k: dict(v) for k, v in table.items()} for pair, table in cat.diff.items()},
        {triple: {k: dict(v) for k, v in table.items()} for triple, table in cat.comp.items()},
        cat.units,
    )


def changed(data, vec, space, degree=None):
    """``vec`` with one coefficient changed: an existing term's scalar, or a
    new term on a label of ``space`` (in ``degree``, if given and there)."""
    keys = [(d, lab) for d in space.degrees() for lab in space.labels(d)]
    if degree is not None and any(d == degree for d, _ in keys) and data.draw(st.booleans()):
        keys = [k for k in keys if k[0] == degree]
    key = data.draw(st.sampled_from(sorted(vec) + keys))
    out = dict(vec)
    out[key] = data.draw(st.sampled_from(SCALARS))
    return out


def perturbed_category(data, cat):
    """A copy of ``cat`` with one composition or differential entry changed."""
    out = copy_category(cat)
    triples = sorted(k for k, t in out.comp.items() if t)
    if triples and data.draw(st.booleans()):
        triple = data.draw(st.sampled_from(triples))
        entry = data.draw(st.sampled_from(sorted(out.comp[triple])))
        table = out.comp[triple]
        space = cat.hom(triple[0], triple[2])
        table[entry] = changed(data, table[entry], space, entry[0][0] + entry[1][0])
    else:
        pair = data.draw(st.sampled_from(sorted(out.homs)))
        key = data.draw(st.sampled_from(list(cat.basis_keys(*pair))))
        table = out.diff.setdefault(pair, {})
        table[key] = changed(data, table.get(key, {}), cat.hom(*pair), key[0] + 1)
    return out


def functors_of(name, cat):
    """The identity of ``cat`` and, for a bundled action, every rho_g."""
    funs = [identity_functor(cat)]
    bundle = EXAMPLES.get(name)
    if bundle is not None and bundle.action is not None:
        funs += [bundle.action.rho(g) for g in bundle.group.elements]
    return funs


def perturbed_functor(data, fun):
    """A copy of ``fun`` with one coefficient of one image changed."""
    cat = fun.src
    mor_map = {pair: dict(fun.mor_map[pair]) for pair in cat.homs}
    pair = data.draw(st.sampled_from(sorted(mor_map)))
    key = data.draw(st.sampled_from(sorted(mor_map[pair])))
    img = mor_map[pair][key]
    space = fun.tgt.hom(img.src, img.tgt)
    mor_map[pair][key] = Mor(img.src, img.tgt, changed(data, img.coeffs, space))
    return DgFunctor(cat, fun.tgt, fun.obj_map, mor_map, name=f"{fun.name}'")


def violations(report):
    return report.subject, [(v.rule, v.witness) for v in report.violations]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validators_match_the_nested_loops_on_perturbed_structure(data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    cat = BASES[name]
    if cat.homs and data.draw(st.booleans()):
        bad = perturbed_category(data, cat)
        assert violations(validate_dgcat(bad)) == violations(reference_validate_dgcat(bad))
    fun = data.draw(st.sampled_from(functors_of(name, cat)))
    bad_fun = perturbed_functor(data, fun) if cat.homs else fun
    assert violations(validate_functor(bad_fun)) == violations(reference_validate_functor(bad_fun))
    # the unit transformation fun ⇒ fun, read with its source changed
    units = {x: cat.unit(fun.apply_obj(x)) for x in cat.objects}
    nat = NatTransform(bad_fun, fun, units, name="1")
    assert violations(validate_nat(nat)) == violations(reference_validate_nat(nat))


def test_validators_match_the_nested_loops_on_the_bundled_actions():
    for name, bundle in EXAMPLES.items():
        cat = bundle.base
        assert violations(validate_dgcat(cat)) == violations(reference_validate_dgcat(cat))
        if bundle.action is None:
            continue
        for g in bundle.group.elements:
            fun = bundle.action.rho(g)
            assert violations(validate_functor(fun)) == violations(reference_validate_functor(fun))
        for nat in [*bundle.action.theta.values(), bundle.action.eta]:
            assert violations(validate_nat(nat)) == violations(reference_validate_nat(nat))
