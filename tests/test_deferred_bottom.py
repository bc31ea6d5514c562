"""A standard window builds its bottom degree lo on first chain-level use.

Until then ``dim(lo)`` reads the enumeration's count, and homology at
lo + 1 reads the nonzero columns of d_lo that the face walk kept, in walk
order.  The first ``chains_at(lo)``, index lookup at lo,
``differential(lo)`` or ``column_echelon(lo)`` builds the chains, the
index and d_lo of an eager build.  Normalized windows with a unit pivot,
and windows of one degree, are built eagerly."""

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import equihh.hochschild as hochschild
from equihh.decomposition import DecompositionPipeline, run_checks
from equihh.dgcat import DgCategory, DgFunctor, Mor, NatTransform, identity_functor
from equihh.examples import BUILDERS, exterior_category
from equihh.hochschild import HochschildWindow, InducedMap, build_window
from equihh.linalg import GradedSpace, rank_kernel_image
from equihh.scalars import QQ
from test_equivariant_tables import EQCATS
from tests_support import (
    collapsing_twist,
    columns,
    leibniz_sabotage_pair,
    negative_degree_exterior_category,
    reference_chains,
    reference_total,
    stored,
    typed,
)

DECOMPOSE = ["E1", "E2", "E5"]


def decompose_pipeline(name):
    b = BUILDERS[name]()
    return DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names or None,
        representations=b.representations, degrees=b.degrees,
    )


def pipeline_windows(pipe):
    """The pipeline's windows, each once."""
    windows = [pipe.w_hh, pipe.w_full, *pipe.w_small.values(), *pipe.w_big.values()]
    return list({id(w): w for w in windows}.values())


def rebuilt(win):
    """A fresh build of ``win``, its bottom degree not yet built."""
    return build_window(win.category, win.functor, win.lo, win.hi, bar_cap=win.bar_cap)


def express_all(basis, vectors):
    return [None if c is None else typed(c) for c in map(basis.express, vectors)]


def assert_deferral_is_invisible(win):
    """On a fresh standard window: the count before the build is the
    length after it; the built chains are the reference enumeration's; d_lo
    is the per-chain reference, entry order and scalar types included; and
    homology at lo + 1 read before the build has the representatives and
    class coordinates of homology read after it, on a second fresh build."""
    lo = win.lo
    assert win._deferred is not None
    count = win.dim(lo)
    before = win.homology_basis(lo + 1) if lo + 2 <= win.hi else None
    assert win._deferred is not None
    chains = win.chains_at(lo)
    assert win._deferred is None
    assert len(chains) == count
    assert chains == reference_chains(win)[lo]
    assert columns(win.differential(lo)) == columns(stored(reference_total(win, lo)[0]))
    if before is None:
        return
    other = rebuilt(win)
    other.chains_at(lo)
    after = other.homology_basis(lo + 1)
    assert [typed(rep) for rep in before.reps] == [typed(rep) for rep in after.reps]
    d_up = win.differential(lo + 1)
    units = [{i: 1} for i in range(win.dim(lo + 1))]
    cycles = rank_kernel_image(d_up, win.field)[1]
    vectors = units + cycles + [col for col in win.differential(lo).cols if col]
    assert express_all(before, vectors) == express_all(after, vectors)


@pytest.mark.parametrize("name", DECOMPOSE)
def test_decompose_windows_defer_invisibly(name):
    """Every decompose window of E1, E2 and E5 at its default degrees."""
    for win in pipeline_windows(decompose_pipeline(name)):
        assert_deferral_is_invisible(rebuilt(win))


@pytest.mark.parametrize("name", ["E3", "E4"])
def test_example_windows_defer_invisibly(name):
    """The standard windows of E3 and E4 at their default degrees; the
    normalized windows ``hh`` builds for them have a unit pivot, so they
    are built eagerly."""
    b = BUILDERS[name]()
    lo, hi = b.degrees
    args = (b.base, identity_functor(b.base), lo - 1, hi + 1)
    assert_deferral_is_invisible(build_window(*args, bar_cap=b.bar_cap))
    normalized = build_window(*args, bar_cap=b.bar_cap, normalized=True)
    assert normalized.pivots and normalized._deferred is None
    assert normalized.dim(lo - 1) == len(normalized._chains[lo - 1])


@pytest.mark.parametrize("name", sorted(EQCATS))
def test_equivariant_category_windows_defer_invisibly(name):
    """The untwisted window [-1, 1] of every equivariant category of the
    table tests."""
    cat = EQCATS[name]().category
    assert_deferral_is_invisible(build_window(cat, identity_functor(cat), -1, 1))


def test_windows_with_an_internal_differential_defer_invisibly():
    """The d1 part of a bottom column is kept by chain too: the Leibniz
    category and the collapsing twist, whose slot 0 and slot m differ."""
    good, _ = leibniz_sabotage_pair()
    assert_deferral_is_invisible(build_window(good, identity_functor(good), -2, 2, bar_cap=3))
    cat, twist = collapsing_twist()
    assert_deferral_is_invisible(build_window(cat, twist, -3, 1))
    lam = negative_degree_exterior_category()
    assert_deferral_is_invisible(build_window(lam, identity_functor(lam), -4, 1))
    ext = exterior_category(1)
    assert_deferral_is_invisible(build_window(ext, identity_functor(ext), -3, 1, bar_cap=4))


@st.composite
def path_categories(draw):
    """A truncated path algebra kQ/J^(L+1) of a random quiver on one or two
    vertices, arrows in degree 0 or -1, twisted by scaling each arrow:
    the paths of length at most L are the basis, composition concatenates
    them and is zero past L, and the twist multiplies a path by the
    product of its arrows' scalars."""
    objs = ["v0", "v1"][: draw(st.integers(1, 2))]
    arrows = draw(st.lists(
        st.tuples(st.sampled_from(objs), st.sampled_from(objs), st.sampled_from([0, -1])),
        min_size=1, max_size=2,
    ))
    length = draw(st.integers(1, 2))
    scale = draw(st.lists(st.sampled_from([1, -1, 2]), min_size=len(arrows), max_size=len(arrows)))
    by_arrows = {}  # arrow indices in walk order -> (source, target, degree)
    for n in range(1, length + 1):
        for seq in itertools.product(range(len(arrows)), repeat=n):
            if all(arrows[a][1] == arrows[b][0] for a, b in zip(seq, seq[1:])):
                by_arrows[seq] = (arrows[seq[0]][0], arrows[seq[-1]][1], sum(arrows[a][2] for a in seq))

    def key(seq):
        return (by_arrows[seq][2], "p" + "".join(map(str, seq)))

    one = (0, "1")
    homs, comp, table = {}, {}, {}
    for x in objs:
        homs.setdefault((x, x), {}).setdefault(0, []).append("1")
    for seq, (x, y, deg) in by_arrows.items():
        homs.setdefault((x, y), {}).setdefault(deg, []).append(key(seq)[1])
    for x, y, z in itertools.product(objs, repeat=3):
        entries = {}
        for g in [None, *by_arrows]:
            for f in [None, *by_arrows]:
                g_ends = (x, x) if g is None else by_arrows[g][:2]
                f_ends = (y, y) if f is None else by_arrows[f][:2]
                if g_ends != (x, y) or f_ends != (y, z):
                    continue
                seq = (g or ()) + (f or ())
                if len(seq) > length:
                    continue
                product = one if not seq else key(seq)
                entries[(one if g is None else key(g), one if f is None else key(f))] = {product: 1}
        if entries:
            comp[(x, y, z)] = entries
    for (x, y), space in homs.items():
        table[(x, y)] = {(0, "1"): Mor(x, y, {one: 1})} if x == y else {}
    for seq, (x, y, _) in by_arrows.items():
        c = 1
        for a in seq:
            c *= scale[a]
        table[(x, y)][key(seq)] = Mor(x, y, {key(seq): c})
    cat = DgCategory(
        QQ, objs, {pair: GradedSpace(space) for pair, space in homs.items()}, {}, comp,
        {x: {one: 1} for x in objs},
    )
    return cat, DgFunctor(cat, cat, {x: x for x in objs}, table, name="scale")


@settings(max_examples=40, deadline=None)
@given(path_categories(), st.integers(-3, -1), st.integers(2, 3))
def test_random_path_categories_defer_invisibly(pair, lo, width):
    cat, twist = pair
    win = build_window(cat, twist, lo, lo + width)
    event(f"nonzero bottom columns: {min(len(win._deferred.columns), 10)}")
    assert_deferral_is_invisible(win)


# ---------------------------------------------------------------------------
# what builds the bottom degree, and what does not


def fresh_e1_window():
    return rebuilt(next(iter(decompose_pipeline("E1").w_big.values())))


def identity_induced(src, tgt):
    """(1, 1)_* from ``src`` to ``tgt``, windows of one untwisted category."""
    cat = src.category
    phi = identity_functor(cat)
    return InducedMap(src, tgt, phi, NatTransform(phi, phi, {c: cat.unit(c) for c in cat.objects}))


@pytest.mark.parametrize("use", [
    lambda win: win.chains_at(win.lo),
    lambda win: win.differential(win.lo),
    lambda win: win.column_echelon(win.lo),
    lambda win: win._add_term({}, win.lo, *reference_chains(win)[win.lo][0], 1),
    lambda win: hochschild._KeyWalk(win, [win.lo]),
], ids=["chains_at", "differential", "column_echelon", "index", "key_walk"])
def test_each_chain_level_use_builds_the_bottom_degree(use):
    win = fresh_e1_window()
    assert win._deferred is not None and win.lo not in win._chains
    use(win)
    assert win._deferred is None and win.lo in win._chains and win.lo in win._index


def test_an_image_at_the_bottom_degree_is_found():
    """The identity's induced map from a built window into a fresh one
    writes each bottom chain to itself: the first image builds the target's
    bottom degree and is looked up again."""
    src, tgt = fresh_e1_window(), fresh_e1_window()
    lo = src.lo
    f = identity_induced(src, tgt)
    assert tgt._deferred is not None
    assert all(f.apply_chain(lo, j) == {j: 1} for j in range(src.dim(lo)))
    assert tgt._deferred is None


def test_counts_and_homology_do_not_build_the_bottom_degree():
    win = fresh_e1_window()
    assert [win.dim(k) for k in range(win.lo, win.hi + 1)]
    for k in range(win.lo + 1, win.hi):
        win.homology_basis(k)
    assert win._deferred is not None


def test_one_degree_windows_build_eagerly():
    cat = BUILDERS["E3"]().base
    win = build_window(cat, identity_functor(cat), -2, -2)
    assert win._deferred is None and win.dim(-2) == len(win._chains[-2])


def test_e5_decompose_never_builds_the_large_bottom_degrees(monkeypatch):
    """E5 at its default degrees: the certificates are skipped by the chain
    budget, and only W_hh's bottom degree, which the functoriality proof
    of mu reads, is built; W_full's and every W_big's stay deferred.  On
    E1, where every certificate runs, every window's is built."""
    built = []
    materialize = HochschildWindow._materialize

    def spy(self):
        built.append(self)
        materialize(self)

    monkeypatch.setattr(HochschildWindow, "_materialize", spy)
    pipe = decompose_pipeline("E5")
    assert run_checks(pipe).theorem_holds
    assert [id(w) for w in built] == [id(pipe.w_hh)]
    assert all(w._deferred is not None for w in [pipe.w_full, *pipe.w_big.values()])
    built.clear()
    pipe = decompose_pipeline("E1")
    assert run_checks(pipe).theorem_holds
    assert {id(w) for w in built} == {id(w) for w in pipeline_windows(pipe)}
