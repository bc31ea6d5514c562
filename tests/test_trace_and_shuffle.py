from fractions import Fraction

import pytest

from equihh.dgcat import (
    DgFunctor,
    Mor,
    NatTransform,
    hull_subcategory,
    identity_functor,
    parity_sign,
    tensor_category,
    validate_dgcat,
)
from equihh.examples import (
    example_e2,
    group_algebra_z2_category,
    point_category,
)
from equihh.groups import permutation_action
import equihh.hochschild as hochschild
from equihh.hochschild import (
    HochschildWindow,
    InducedMap,
    TensorWindow,
    build_window,
    shuffle_map,
    verify_trace_decomposition,
)
from equihh.linalg import SparseMatrix, rank_kernel_image, vec_is_zero
from equihh.scalars import QQ
from tests_support import koszul_swap_map, negative_degree_exterior_category, pair_index


def doubled_point_setup(eta_rows):
    """A = diagonal embedding of the point into its 2-fold sum, with an
    arbitrary constant 2x2 twist eta."""
    pt = point_category()
    hull = hull_subcategory(pt, [("pt",), ("pt", "pt")])
    one = ("pt",)
    two = ("pt", "pt")

    def embed_functor(name):
        return DgFunctor(
            pt,
            hull,
            {"pt": one},
            {("pt", "pt"): {(0, "1"): hull.basis_mor(one, one, 0, (0, 0, "1"))}},
            name=name,
        )

    a1 = embed_functor("A1")
    a2 = embed_functor("A2")
    diag_mor = Mor(two, two, {(0, (0, 0, "1")): QQ.one, (0, (1, 1, "1")): QQ.one})
    total = DgFunctor(
        pt, hull, {"pt": two}, {("pt", "pt"): {(0, "1"): diag_mor}}, name="A1⊕A2"
    )
    eta_coeffs = {}
    for i in range(2):
        for j in range(2):
            c = eta_rows[i][j]
            if c:
                eta_coeffs[(0, (i, j, "1"))] = Fraction(c)
    eta = NatTransform(total, total, {"pt": Mor(two, two, eta_coeffs)}, name="eta")
    w_src = build_window(pt, identity_functor(pt), -2, 1)
    w_tgt = build_window(hull, identity_functor(hull), -2, 1)
    eta11 = NatTransform(a1, a1, {"pt": Mor(one, one, {(0, (0, 0, "1")): Fraction(eta_rows[0][0])})}, name="eta11") if eta_rows[0][0] else None
    eta22 = NatTransform(a2, a2, {"pt": Mor(one, one, {(0, (0, 0, "1")): Fraction(eta_rows[1][1])})}, name="eta22") if eta_rows[1][1] else None
    return w_src, w_tgt, total, eta, [(a1, eta11), (a2, eta22)]


def test_trace_decomposition_diagonal():
    w_src, w_tgt, total, eta, summands = doubled_point_setup([[1, 0], [0, 1]])
    total_map = InducedMap(w_src, w_tgt, total, eta)
    matrices_equal, mode = verify_trace_decomposition(total_map, summands, degrees=[-1, 0])
    assert all(matrices_equal.values())
    # the per-summand insertion formula alone does not certify here: the
    # solver adds the off-diagonal terms and fixes the formula's sign at
    # degree 0 (where the formula's dH + Hd is -(f - g) on the bundled
    # examples); where every diagonal twist is None it builds the whole
    # homotopy
    assert mode in ("formula", "formula+solved")


def test_trace_decomposition_without_a_solved_homotopy_fails(monkeypatch):
    # the formula alone does not certify this setting, so a solver that
    # finds nothing leaves the certificate failed
    monkeypatch.setattr(hochschild, "solve_homotopy", lambda cert, name=None: None)
    w_src, w_tgt, total, eta, summands = doubled_point_setup([[1, 0], [0, 1]])
    total_map = InducedMap(w_src, w_tgt, total, eta)
    matrices_equal, mode = verify_trace_decomposition(total_map, summands, degrees=[-1, 0])
    assert all(matrices_equal.values())
    assert mode == "failed"


def test_trace_decomposition_mixed():
    w_src, w_tgt, total, eta, summands = doubled_point_setup([[3, 5], [7, 2]])
    total_map = InducedMap(w_src, w_tgt, total, eta)
    matrices_equal, mode = verify_trace_decomposition(total_map, summands, degrees=[-1, 0])
    assert all(matrices_equal.values())
    assert mode != "failed"


def test_trace_decomposition_offdiagonal_only_gives_zero():
    w_src, w_tgt, total, eta, summands = doubled_point_setup([[0, 1], [1, 0]])
    total_map = InducedMap(w_src, w_tgt, total, eta)
    matrices_equal, mode = verify_trace_decomposition(total_map, summands, degrees=[-1, 0])
    assert all(matrices_equal.values())
    # both diagonal blocks are zero, so the total map vanishes on homology
    assert total_map.homology_matrix(0).is_zero()
    assert mode != "failed"


def test_trace_decomposition_degenerate_single_summand():
    # A2 = 0-ish: one summand only; the lemma degenerates to equality
    pt = point_category()
    hull = hull_subcategory(pt, [("pt",)])
    one = ("pt",)
    a1 = DgFunctor(
        pt, hull, {"pt": one},
        {("pt", "pt"): {(0, "1"): hull.basis_mor(one, one, 0, (0, 0, "1"))}},
        name="A1",
    )
    eta = NatTransform(a1, a1, {"pt": hull.unit(one)}, name="eta")
    w_src = build_window(pt, identity_functor(pt), -2, 1)
    w_tgt = build_window(hull, identity_functor(hull), -2, 1)
    total_map = InducedMap(w_src, w_tgt, a1, eta)
    matrices_equal, mode = verify_trace_decomposition(total_map, [(a1, eta)], degrees=[-1, 0])
    assert all(matrices_equal.values())
    assert mode == "formula"


def test_trace_decomposition_graded_source():
    lam = negative_degree_exterior_category()
    hull = hull_subcategory(lam, [("pt",), ("pt", "pt")])
    one, two = ("pt",), ("pt", "pt")

    def embed(name):
        table = {}
        for key in lam.basis_keys("pt", "pt"):
            deg, lab = key
            table[key] = hull.basis_mor(one, one, deg, (0, 0, lab))
        return DgFunctor(lam, hull, {"pt": one}, {("pt", "pt"): table}, name=name)

    a1, a2 = embed("A1"), embed("A2")
    table = {}
    for key in lam.basis_keys("pt", "pt"):
        deg, lab = key
        table[key] = Mor(two, two, {(deg, (0, 0, lab)): QQ.one, (deg, (1, 1, lab)): QQ.one})
    total = DgFunctor(lam, hull, {"pt": two}, {("pt", "pt"): table}, name="A")
    eta_coeffs = {(0, (0, 0, "1")): Fraction(2), (0, (1, 0, "1")): Fraction(1), (0, (1, 1, "1")): Fraction(3)}
    eta = NatTransform(total, total, {"pt": Mor(two, two, eta_coeffs)}, name="eta")
    eta11 = NatTransform(a1, a1, {"pt": Mor(one, one, {(0, (0, 0, "1")): Fraction(2)})}, name="eta11")
    eta22 = NatTransform(a2, a2, {"pt": Mor(one, one, {(0, (0, 0, "1")): Fraction(3)})}, name="eta22")
    w_src = build_window(lam, identity_functor(lam), -3, 0)
    w_tgt = build_window(hull, identity_functor(hull), -3, 0)
    total_map = InducedMap(w_src, w_tgt, total, eta)
    matrices_equal, mode = verify_trace_decomposition(
        total_map, [(a1, eta11), (a2, eta22)], degrees=[-2, -1]
    )
    assert all(matrices_equal.values())
    assert mode != "failed"


# ---------------------------------------------------------------------------
# shuffle / Kunneth


def test_shuffle_zero_zero_case():
    pt = point_category()
    w = build_window(pt, identity_functor(pt), -2, 0)
    t = tensor_category(pt, pt)
    tw, tgt, sh = shuffle_map(w, w, t, -2, 0)
    # f0[] ⊗ g0[] -> (f0⊗g0)[]
    vec = sh.apply_chain(0, 0)
    assert len(vec) == 1
    (obj,) = t.objects
    chain = tgt.chains_at(0)[list(vec)[0]]
    assert chain.bar_degree == 0


def test_shuffle_one_one_formula():
    kz2 = group_algebra_z2_category()
    w = build_window(kz2, identity_functor(kz2), -3, 0)
    t = tensor_category(kz2, kz2)
    tw, tgt, sh = shuffle_map(w, w, t, -3, 0)
    # pick x = g[g], y = g[g] at degree -1 each
    kx = None
    for i, ch in enumerate(w.chains_at(-1)):
        if ch.keys == ((0, "g"), (0, "g")):
            kx = i
    assert kx is not None
    pos = pair_index(tw, -2, -1, kx, kx)
    vec = sh.apply_chain(-2, pos)
    # two shuffles of one f against one g, opposite signs
    assert len(vec) == 2
    assert sorted(vec.values()) == [Fraction(-1), Fraction(1)]
    chains = [tgt.chains_at(-2)[i] for i in vec]
    for ch in chains:
        assert ch.bar_degree == 2
        labels = [key[1] for key in ch.keys]
        assert labels[0] == ((0, "g"), (0, "g"))
        assert {labels[1], labels[2]} == {((0, "g"), (0, "1")), ((0, "1"), (0, "g"))}


def test_shuffle_is_chain_map_group_algebra():
    kz2 = group_algebra_z2_category()
    w = build_window(kz2, identity_functor(kz2), -3, 0)
    t = tensor_category(kz2, kz2)
    tw, tgt, sh = shuffle_map(w, w, t, -3, 0)
    checked, failures = sh.verify_chain_map()
    assert checked > 0 and failures == []


def test_shuffle_is_chain_map_graded():
    lam = negative_degree_exterior_category()
    w = build_window(lam, identity_functor(lam), -3, 0)
    t = tensor_category(lam, lam)
    assert validate_dgcat(t).ok
    tw, tgt, sh = shuffle_map(w, w, t, -3, 0)
    checked, failures = sh.verify_chain_map()
    assert checked > 0 and failures == []


def kunneth_bijection(cat_a, cat_b, degrees, window_range):
    wa = build_window(cat_a, identity_functor(cat_a), *window_range)
    wb = build_window(cat_b, identity_functor(cat_b), *window_range)
    t = tensor_category(cat_a, cat_b)
    tw, tgt, sh = shuffle_map(wa, wb, t, *window_range)
    out = {}
    for k in degrees:
        m = sh.homology_matrix(k)
        rank, kernel = rank_kernel_image(m)
        out[k] = (m.nrows, m.ncols, rank, len(kernel))
    return out


def test_kunneth_bijection_point_point():
    res = kunneth_bijection(point_category(), point_category(), [-1, 0], (-2, 1))
    assert res[0] == (1, 1, 1, 0)
    assert res[-1] == (0, 0, 0, 0)


def test_kunneth_bijection_group_algebras():
    kz2 = group_algebra_z2_category()
    res = kunneth_bijection(kz2, kz2, [-1, 0], (-2, 1))
    assert res[0] == (4, 4, 4, 0)  # 2*2 = 4, bijective
    assert res[-1] == (0, 0, 0, 0)


def test_kunneth_bijection_mixed():
    b = example_e2()
    kz2 = group_algebra_z2_category()
    res = kunneth_bijection(b.base, kz2, [-1, 0], (-2, 1))
    assert res[0] == (4, 4, 4, 0)  # 2*2 = 4
    assert res[-1] == (0, 0, 0, 0)


def test_shuffle_s2_equivariance_on_homology():
    kz2 = group_algebra_z2_category()
    w = build_window(kz2, identity_functor(kz2), -2, 1)
    action, power = permutation_action(kz2, 2)
    tw = TensorWindow(w, w, -2, 1)
    tgt = build_window(power, identity_functor(power), -2, 1)
    from equihh.hochschild import ShuffleMap

    sh = ShuffleMap(tw, tgt)
    swap = koszul_swap_map(tw, tw)
    tau = InducedMap(
        tgt,
        tgt,
        action.rho("21"),
        action.centralizer_transform("21", action.group.identity),
        name="tau*",
    )
    lhs = tau.homology_matrix(0) * sh.homology_matrix(0)
    rhs = sh.homology_matrix(0) * swap.homology_matrix(0)
    assert lhs == rhs


@pytest.mark.parametrize(
    "category, chains, unsigned_differing",
    [
        (point_category, 10, 0),
        (group_algebra_z2_category, 196, 12),
        (negative_degree_exterior_category, 37, 3),
    ],
    ids=["point", "k[Z2]", "exterior-odd"],
)
def test_shuffle_commutes_with_the_swap_on_chains(category, chains, unsigned_differing):
    """Sh∘τ = (swap)_*∘Sh on every chain of C(C)⊗C(C) in degrees -3..1,
    with τ(x⊗y) = (-1)^{|x||y|} y⊗x and swap the transposition of
    permutation_action(C, 2): the shuffle product is graded-commutative
    (Loday, Cyclic Homology, §4.2), so the identity holds on chains, not
    only on homology.  Without the Koszul sign it fails on some chains."""
    base = category()
    w = build_window(base, identity_functor(base), -3, 1)
    action, power = permutation_action(base, 2)
    tw = TensorWindow(w, w, -3, 1)
    tgt = build_window(power, identity_functor(power), -3, 1)
    sh = hochschild.ShuffleMap(tw, tgt)
    tau = koszul_swap_map(tw, tw)
    swap_star = InducedMap(
        tgt, tgt, action.rho("21"), action.centralizer_transform("21", action.group.identity)
    )
    degrees = range(-3, 2)
    assert sum(tw.dim(k) for k in degrees) == chains

    def unsigned_tau(k, j):
        ka = tw.chains_at(k)[j][0]
        return {p: parity_sign(ka * (k - ka)) * c for p, c in tau.apply_chain(k, j).items()}

    def differing(swap):
        return hochschild._differing_chains(
            tw,
            degrees,
            lambda k, j: sh.apply_vec(k, swap(k, j)),
            lambda k, j: swap_star.apply_vec(k, sh.apply_chain(k, j)),
        )

    assert differing(tau.apply_chain) == []
    assert len(differing(unsigned_tau)) == unsigned_differing
