import itertools
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from equihh.decomposition import DecompositionPipeline
from equihh.dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    algebra_category,
    identity_functor,
    parity_sign,
    tensor_category,
    validate_dgcat,
)
from equihh.errors import InputError, StructureError, TruncationError, WindowError
from equihh.examples import (
    example_e1,
    example_e2,
    exterior_category,
    get_example,
    group_algebra_z2_category,
    point_category,
)
from equihh.groups import permutation_action
import equihh.hochschild as hochschild
from equihh.hochschild import (
    Chain,
    ChainMap,
    ColumnMap,
    HochschildWindow,
    HomotopyCertificate,
    InducedMap,
    LinearComboMap,
    build_window,
    compose_induced,
    conjugate_transport,
    hh_dimensions,
    solve_homotopy,
)
from equihh.linalg import P, Echelon, SparseMatrix, rank_mod_p, vec_is_zero
from equihh.scalars import QQ, CyclotomicField, Cyc
from tests_support import (
    MatrixWindow,
    assert_classes_match_reference,
    assert_elimination_matches_reference,
    centralizer_action_map,
    full_elimination_basis,
    identity_nat,
    leibniz_sabotage_pair,
    negative_degree_exterior_category,
    normalized_columns,
    reference_certify,
    reference_chains,
    reference_columns,
    reference_d1_chain,
    reference_d2_chain,
    reference_homology,
    reference_matrix,
    reference_object_cycles,
    reference_rank_mod_p,
    reference_vec_add,
    reference_vec_scale,
    typed,
    verify_d_squared,
    verify_sign_identities,
)


# ---------------------------------------------------------------------------
# independent oracle: HH_0 of a degree-0 category as the cokernel of the
# twisted commutator relations, computed directly on dense data


def oracle_hh0(cat, functor):
    """dim of (⊕_c Hom(c, F c)) / <a0∘a1 - F(a1)∘a0>, brute force."""
    gens = []  # flat basis of the degree-0 target space
    index = {}
    for c in cat.objects:
        fc = functor.apply_obj(c)
        for key in cat.basis_keys(c, fc):
            if key[0] == 0:
                index[(c, key)] = len(gens)
                gens.append((c, key))
    ech = Echelon()
    rank = 0
    for c0 in cat.objects:
        for c1 in cat.objects:
            fc0 = functor.apply_obj(c0)
            for k0 in cat.basis_keys(c1, fc0):
                if k0[0] != 0:
                    continue
                a0 = cat.basis_mor(c1, fc0, *k0)
                for k1 in cat.basis_keys(c0, c1):
                    if k1[0] != 0:
                        continue
                    a1 = cat.basis_mor(c0, c1, *k1)
                    lhs = cat.compose(a0, a1)  # c0 -> F(c0)
                    rhs = cat.compose(functor.apply(a1), a0)  # c1 -> F(c1)
                    vec = {}
                    for key, v in lhs.coeffs.items():
                        vec[index[(c0, key)]] = v
                    for key, v in rhs.coeffs.items():
                        i = index[(c1, key)]
                        vec[i] = vec.get(i, QQ.zero) - v
                    if ech.add(vec) is None:
                        rank += 1
    return len(gens) - ech.rank


def window_for(cat, degrees=(-2, 0), cap=None):
    return build_window(cat, identity_functor(cat), degrees[0], degrees[1], bar_cap=cap)


def test_point_window_exact_and_dims():
    pt = point_category()
    res = hh_dimensions(pt, identity_functor(pt), [-2, -1, 0])
    assert res["certification"].exact
    assert res["dims"] == {0: 1, -1: 0, -2: 0}
    assert oracle_hh0(pt, identity_functor(pt)) == 1


def test_group_algebra_hh0_matches_oracle():
    kz2 = group_algebra_z2_category()
    ident = identity_functor(kz2)
    res = hh_dimensions(kz2, ident, [-2, -1, 0])
    assert res["certification"].exact
    assert res["dims"][0] == oracle_hh0(kz2, ident) == 2
    assert res["dims"][-1] == 0 and res["dims"][-2] == 0


def test_twisted_swap_hh0_zero():
    b = example_e2()
    ident = identity_functor(b.base)
    rho_s = b.action.rho("s")
    res = hh_dimensions(b.base, rho_s, [-1, 0])
    assert res["dims"][0] == 0
    assert oracle_hh0(b.base, rho_s) == 0
    res_id = hh_dimensions(b.base, ident, [-1, 0])
    assert res_id["dims"][0] == 2 == oracle_hh0(b.base, ident)


def test_exterior_truncation_flag_and_error():
    lam = exterior_category(1)
    win = build_window(lam, identity_functor(lam), -2, 0, bar_cap=6)
    assert not win.certification.exact
    assert win.certification.describe() == "TruncatedAt(6)"
    with pytest.raises(TruncationError):
        build_window(lam, identity_functor(lam), -2, 0)  # no cap


def test_negative_exterior_certified_all_windows():
    lam = negative_degree_exterior_category()
    win = build_window(lam, identity_functor(lam), -4, 0)
    assert win.certification.exact
    # HH dims 1 in each degree <= 0 within the window (divided powers tail)
    res = hh_dimensions(lam, identity_functor(lam), [-3, -2, -1, 0])
    assert res["dims"] == {0: 1, -1: 1, -2: 1, -3: 1}


def test_d_squared_and_sign_identities_graded():
    lam = exterior_category(1)
    win = build_window(lam, identity_functor(lam), -3, 1, bar_cap=8)
    count, bad = verify_d_squared(win)
    assert not bad and count > 100
    assert verify_sign_identities(win) == []
    neg = negative_degree_exterior_category()
    win2 = build_window(neg, identity_functor(neg), -5, 0)
    count2, bad2 = verify_d_squared(win2)
    assert not bad2 and count2 > 20
    assert verify_sign_identities(win2) == []


def test_window_error_and_structural_error():
    pt = point_category()
    win = window_for(pt, (-1, 0))
    with pytest.raises(WindowError):
        win.homology_basis(0)  # needs degree +1 stored
    other = group_algebra_z2_category()
    with pytest.raises(StructureError):
        build_window(pt, identity_functor(other), -1, 0)


def test_empty_degree_ranges_are_input_errors():
    base = example_e1().base
    ident = identity_functor(base)
    with pytest.raises(InputError, match=r"degree range 0\.\.-3 is empty"):
        build_window(base, ident, 0, -3)
    with pytest.raises(InputError, match=r"degree list \[\] is empty"):
        hh_dimensions(base, ident, [])


def test_identity_induced_map_is_identity():
    kz2 = group_algebra_z2_category()
    ident = identity_functor(kz2)
    win = window_for(kz2, (-2, 0))

    m = InducedMap(win, win, ident, identity_nat(ident), name="id*")
    checked, failures = m.verify_chain_map()
    assert not failures and checked > 0
    h = m.homology_matrix(-1)
    assert h == SparseMatrix(0, 0) or h.is_zero()
    h0 = m.homology_matrix(0) if False else None
    # homology at 0 needs degree 1 stored; rebuild wider
    win2 = window_for(kz2, (-1, 1))
    m2 = InducedMap(win2, win2, ident, identity_nat(ident), name="id*")
    assert m2.homology_matrix(0) == SparseMatrix.identity(2)


def test_compose_induced_chain_level_equality():
    b = example_e2()
    cat = b.base
    rho_s = b.action.rho("s")
    win_id = window_for(cat, (-2, 1))

    swap_map = InducedMap(win_id, win_id, rho_s, b.action.centralizer_transform("s", "e"), name="swap*")
    combined, mismatches = compose_induced(swap_map, swap_map)
    assert mismatches == []
    assert combined.homology_matrix(0) == SparseMatrix.identity(2)


def test_swap_action_on_hh_is_transposition():
    b = example_e2()
    cat = b.base
    win = window_for(cat, (-1, 1))
    c_se = b.action.centralizer_transform("s", "e")
    m = centralizer_action_map(win, b.action.rho("s"), c_se)
    h = m.homology_matrix(0)
    assert h == SparseMatrix.from_rows([[0, 1], [1, 0]])
    checked, failures = m.verify_chain_map()
    assert not failures


def test_centralizer_right_action_law():
    # S2 permutation action on k[Z/2]^{⊗2}: M(h) M(h2) = M(h2 h) on homology
    action, power = permutation_action(group_algebra_z2_category(), 2)
    win = build_window(power, identity_functor(power), -1, 1)
    maps = {}
    for h in action.group.elements:
        maps[h] = centralizer_action_map(
            win, action.rho(h), action.centralizer_transform(h, action.group.identity)
        )
    h0 = {h: maps[h].homology_matrix(0) for h in action.group.elements}
    g = action.group
    for a in g.elements:
        for b2 in g.elements:
            assert h0[a] * h0[b2] == h0[g.mul(b2, a)]


def test_conjugate_transport_certificate():
    # transport the swap-induced map along the nontrivial automorphism
    # alpha = -id of the identity functor on k[Z/2]
    kz2 = group_algebra_z2_category()
    ident = identity_functor(kz2)
    win = window_for(kz2, (-3, 1), cap=None)
    from equihh.dgcat import NatTransform

    base_map = InducedMap(win, win, ident, identity_nat(ident), name="id*")
    alpha = NatTransform(ident, ident, {"pt": kz2.unit("pt").scale(Fraction(-1))}, name="-1")
    transported, cert = conjugate_transport(base_map, alpha, ident)
    assert cert.check(), cert.failures[:3]
    assert transported.homology_matrix(-1).is_zero()
    assert transported.homology_matrix(0) == base_map.homology_matrix(0)


def test_conjugate_transport_identity_alpha_trivial():
    kz2 = group_algebra_z2_category()
    ident = identity_functor(kz2)
    win = window_for(kz2, (-2, 1))

    base_map = InducedMap(win, win, ident, identity_nat(ident), name="id*")
    transported, cert = conjugate_transport(base_map, identity_nat(ident), ident)
    assert cert.check()
    for k in [-1, 0]:
        assert transported.homology_matrix(k) == base_map.homology_matrix(k)


class Identity(ChainMap):
    def _compute(self, k, idx):
        return {idx: Fraction(1)}


def test_homotopy_certificate_lists_failures():
    # C^-1 -(id)-> C^0, C^1 = Q: id ≃ 0 in degree 0 through H_0 = id
    win = MatrixWindow({-1: 1, 0: 1, 1: 1}, {-1: [[1]]})
    ident, zero = Identity(win, win), LinearComboMap(win, win, [])
    good = HomotopyCertificate(ident, zero, ColumnMap(win, win, {0: [{0: Fraction(1)}]}))
    assert good.check() and good.failures == [] and good.checked_degrees == [0]
    for wrong in ({}, {0: Fraction(2)}):
        bad = HomotopyCertificate(ident, zero, ColumnMap(win, win, {0: [wrong]}))
        assert not bad.check()
        assert bad.failures == [(0, 0)] and bad.checked_degrees == [0]


def test_closed_form_certification_matches_the_bar_degree_loop():
    """The bound on the bar degrees that reach a window gives the
    Certification, bar degrees and TruncationError text of the loop over
    bar degrees, on every range a <= b of hom degrees in -6..3, window
    lo <= hi in -25..5 and cap; b = 1 with lo > 1 has no bar degree."""
    cases = 0
    for a, b in itertools.combinations_with_replacement(range(-6, 4), 2):
        category = SimpleNamespace(min_max_degree=lambda a=a, b=b: (a, b))
        for lo, hi in itertools.combinations_with_replacement(range(-25, 6), 2):
            for cap in (None, 0, 1, 3, 7):
                win = SimpleNamespace(category=category, lo=lo, hi=hi, bar_cap=cap)
                try:
                    want = reference_certify((a, b), lo, hi, cap)
                except TruncationError as error:
                    want = str(error)
                try:
                    got = HochschildWindow._certify(win)
                except TruncationError as error:
                    got = str(error)
                assert got == want, (a, b, lo, hi, cap)
                cases += 1
    assert cases == 136_400
    empty = SimpleNamespace(min_max_degree=lambda: (None, None))
    win = SimpleNamespace(category=empty, lo=-1, hi=0, bar_cap=None)
    assert HochschildWindow._certify(win) == reference_certify((None, None), -1, 0, None)


def test_empty_category_window_is_exact_and_zero():
    cat = DgCategory(QQ, ["a"], {}, {}, {}, {"a": {}})
    res = hh_dimensions(cat, identity_functor(cat), [-1, 0])
    assert res["dims"] == {-1: 0, 0: 0}
    assert res["certification"].describe() == "Exact"


# ---------------------------------------------------------------------------
# table-driven d1/d2 against the per-chain Mor reference


def cyclic_group_algebra(n, field=QQ):
    names = [f"g{i}" for i in range(n)]
    products = {(names[i], names[j]): {names[(i + j) % n]: 1} for i in range(n) for j in range(n)}
    return algebra_category(field, "pt", [(g, 0) for g in names], products, unit="g0")


def cyclotomic_windows():
    """k[Z/3] over Q(zeta_3), untwisted and twisted by the character
    automorphism g_i -> zeta^i g_i."""
    field = CyclotomicField(3)
    cat = cyclic_group_algebra(3, field)
    zeta = field.zeta()
    twist = {
        (0, f"g{i}"): Mor("pt", "pt", {(0, f"g{i}"): c})
        for i, c in enumerate([field.one, zeta, zeta * zeta])
    }
    character = DgFunctor(cat, cat, {"pt": "pt"}, {("pt", "pt"): twist}, name="chi")
    return [build_window(cat, identity_functor(cat), -3, 1), build_window(cat, character, -3, 1)]


def square_zero_twist():
    """The square-zero algebra k<1, a, b>/(a, b)^2 in degree 0, twisted by
    the automorphism a -> a + 2b, b -> b: the twist face reads an image of
    two terms, one of them with coefficient 2."""
    cat = algebra_category(QQ, "pt", [("1", 0), ("a", 0), ("b", 0)], {})
    images = {(0, "1"): {(0, "1"): 1}, (0, "a"): {(0, "a"): 1, (0, "b"): 2}, (0, "b"): {(0, "b"): 1}}
    table = {
        key: Mor("pt", "pt", {k: Fraction(c) for k, c in img.items()}) for key, img in images.items()
    }
    return cat, DgFunctor(cat, cat, {"pt": "pt"}, {("pt", "pt"): table}, name="a+2b")


def two_object_twist():
    """Two copies x, y of the square-zero algebra k<1, a, b>/(a, b)^2 with
    no morphisms between them, twisted by a -> a + 2b on End(x) and by
    a -> a - b on End(y): the key (0, "a") sits in slot m of the cycles of
    both objects and has a different image on each hom pair."""
    one = algebra_category(QQ, "x", [("1", 0), ("a", 0), ("b", 0)], {})
    objs = ["x", "y"]
    cat = DgCategory(
        QQ, objs, {(o, o): one.hom("x", "x") for o in objs}, {},
        {(o, o, o): dict(one.comp[("x", "x", "x")]) for o in objs},
        {o: dict(one.units["x"]) for o in objs},
    )
    images = {"x": {"a": 1, "b": 2}, "y": {"a": 1, "b": -1}}
    table = {
        (o, o): {
            (0, lab): Mor(o, o, {(0, k): Fraction(c) for k, c in (images[o] if lab == "a" else {lab: 1}).items()})
            for lab in ("1", "a", "b")
        }
        for o in objs
    }
    return cat, DgFunctor(cat, cat, {o: o for o in objs}, table, name="a+2b|a-b")


def example_windows():
    for name in ["E1", "E2", "E3", "E4", "E5"]:
        b = get_example(name)
        lo, hi = b.degrees
        yield build_window(b.base, identity_functor(b.base), lo - 1, hi + 1, bar_cap=b.bar_cap)


def ladder_windows():
    for n in (2, 3, 4):
        yield window_for(cyclic_group_algebra(n), (-4, 1))


def reference_windows():
    yield from example_windows()
    e2 = example_e2()
    for g in e2.group.elements:
        yield build_window(e2.base, e2.action.rho(g), -3, 1)
    for b in (example_e1(), example_e2()):
        pipe = DecompositionPipeline(
            b.action, b.declared, b.generators, hh_names=b.hh_names or None,
            representations={}, degrees=(-1, 0),
        )
        yield pipe.w_hh
        yield pipe.w_full
        yield from pipe.w_small.values()
        yield from pipe.w_big.values()
    yield window_for(exterior_category(1), (-3, 1), cap=4)
    yield window_for(negative_degree_exterior_category(), (-4, 1))
    good, _ = leibniz_sabotage_pair()
    yield window_for(good, (-2, 2), cap=3)
    yield from ladder_windows()
    for cat, twist in (square_zero_twist(), two_object_twist()):
        yield build_window(cat, twist, -3, 1)
        yield build_window(cat, twist, -3, 1, normalized=True)


def columns(mat):
    return [typed(col) for col in mat.cols]


def stored(mat):
    """A reference matrix as a window stores it: each integral Fraction
    entry becomes an int, every other entry is unchanged."""
    out = SparseMatrix(mat.nrows, mat.ncols)
    out.cols = [
        {i: x.numerator if type(x) is Fraction and x.denominator == 1 else x for i, x in col.items()}
        for col in mat.cols
    ]
    return out


def reference_total(win, k):
    """d2 + (-1)^m d1 of degree k, column by column on the reference path."""
    d1 = reference_matrix(win, k, reference_d1_chain)
    d2 = reference_matrix(win, k, reference_d2_chain)
    total = SparseMatrix(d2.nrows, d2.ncols)
    for j, chain in enumerate(win.chains_at(k)):
        sign = parity_sign(chain.bar_degree)
        total.cols[j] = reference_vec_add(d2.cols[j], reference_vec_scale(sign, d1.cols[j]))
    return total, d1.nnz()


def test_table_differentials_match_mor_reference():
    d1_nonzero = 0
    for win in reference_windows():
        for k in range(win.lo, win.hi):
            want, nnz = reference_total(win, k)
            assert columns(win.differential(k)) == columns(stored(want)), (win.category.objects, k)
            d1_nonzero += nnz
    assert d1_nonzero  # the Leibniz category has an internal differential


def test_elimination_matches_two_pass_reference():
    """Differentials, kernels, echelons and homology reps of the E1-E5
    windows, the k[Z/n] ladder and two windows over Q(zeta_3) equal the
    two-pass path entry by entry, in key order and in scalar type (the
    reference differential stored as the window stores it); every entry
    of a differential is an int over Q and a Cyc over Q(zeta_3), and
    every entry of a kernel vector and a rep is a Fraction over Q and a
    Cyc over Q(zeta_3)."""
    windows = [*example_windows(), *ladder_windows(), *cyclotomic_windows()]
    for win in windows:
        scalar = Fraction if win.field == QQ else Cyc
        entry_type = int if win.field == QQ else Cyc
        for k in range(win.lo, win.hi):
            total = win.differential(k)
            assert columns(total) == columns(stored(reference_total(win, k)[0]))
            assert all(type(x) is entry_type for _, _, x in total.entries())
            assert_elimination_matches_reference(total, win.field)
        for k in range(win.lo + 1, win.hi):
            reps, ech = reference_homology(win, k)
            got = win.homology_basis(k)
            assert [typed(v) for v in got.reps] == [typed(v) for v in reps]
            if got._ech is None:  # certified acyclic: there is no echelon
                assert_classes_match_reference(win, k, got, ech)
                continue
            assert list(got._ech.pivots.items()) == list(ech.pivots.items())
            assert normalized_columns(got._ech, win.field) == reference_columns(ech)
            assert all(type(x) is scalar for rep in got.reps for x in rep.values())


def quarter_z2():
    """k[Z/2] on the basis u = 1, h = g/2, twisted by g -> -g: h·h = u/4 is
    its one non-integral structure constant."""
    products = {("h", "h"): {"u": Fraction(1, 4)}}
    cat = algebra_category(QQ, "pt", [("u", 0), ("h", 0)], products, unit="u")
    table = {(0, lab): Mor("pt", "pt", {(0, lab): Fraction(c)}) for lab, c in [("u", 1), ("h", -1)]}
    return cat, DgFunctor(cat, cat, {"pt": "pt"}, {("pt", "pt"): table}, name="sign")


def test_non_integral_entries_stay_fractions():
    """A column that reads the entry h·h = u/4 keeps its Fraction entries;
    a column that reads only integral entries holds ints.  Values and key
    order equal the Mor reference."""
    cat, sign = quarter_z2()
    win = build_window(cat, sign, -3, 1)
    h = (0, "h")
    fractional = 0
    for k in range(win.lo, win.hi):
        got = win.differential(k)
        want = reference_total(win, k)[0]
        assert [list(col.items()) for col in got.cols] == [list(col.items()) for col in want.cols]
        for chain, col in zip(win.chains_at(k), got.cols):
            keys = chain.keys  # the faces multiply cyclically adjacent slots
            reads_quarter = len(keys) > 1 and any(a == b == h for a, b in zip(keys, keys[1:] + keys[:1]))
            types = {type(x) for x in col.values()}
            if reads_quarter and col:
                assert Fraction in types, chain
                fractional += any(x.denominator != 1 for x in col.values())
            elif not reads_quarter:
                assert types <= {int}, chain
    assert fractional


def test_api_outputs_keep_field_scalars():
    """Reps, class coordinates, homology matrices and chain-map images are
    field scalars on every reference window, though the differentials hold
    ints."""
    for win in [*reference_windows(), *cyclotomic_windows()]:
        scalar = Fraction if win.field == QQ else Cyc
        ident = identity_functor(win.category)
        ident_map = InducedMap(win, win, ident, identity_nat(win.functor), name="id*")
        doubled = LinearComboMap(win, win, [(win.field.one, ident_map)] * 2)
        for k in range(win.lo, win.hi + 1):
            for j in range(win.dim(k)):
                for m in (ident_map, doubled):
                    assert all(type(x) is scalar for x in m.apply_chain(k, j).values())
        for k in range(win.lo + 1, win.hi):
            basis = win.homology_basis(k)
            vecs = [*basis.reps, *win.differential(k - 1).cols, {0: 1} if win.dim(k) else {}]
            for vec in vecs:
                coords = basis.express(vec)
                assert coords is None or all(type(x) is scalar for x in coords.values())
            assert all(type(x) is scalar for rep in basis.reps for x in rep.values())
            assert all(type(x) is scalar for _, _, x in ident_map.homology_matrix(k).entries())


def test_window_chain_budget(monkeypatch):
    """A window may enumerate WINDOW_CHAIN_BUDGET chains; one more is a
    TruncationError."""
    kz2 = group_algebra_z2_category()
    win = window_for(kz2, (-2, 0))
    total = sum(win.dim(k) for k in range(win.lo, win.hi + 1))
    monkeypatch.setattr(hochschild, "WINDOW_CHAIN_BUDGET", total)
    assert window_for(kz2, (-2, 0)).dim(-2) == win.dim(-2)
    monkeypatch.setattr(hochschild, "WINDOW_CHAIN_BUDGET", total - 1)
    with pytest.raises(TruncationError, match=f"more than {total - 1} chains"):
        window_for(kz2, (-2, 0))


def test_budget_is_checked_before_a_cycle_is_built(monkeypatch):
    """k[Z/6] at degree -3 is one object cycle of 6^4 = 1,296 chains: over
    a budget of 1,000 it is the window's TruncationError, raised before
    any chain is built; at a budget of 1,296 the window is built."""
    started = []

    class Probe(HochschildWindow):
        def _enumerate(self):
            started.append(self)
            return super()._enumerate()

    cat = cyclic_group_algebra(6)
    monkeypatch.setattr(hochschild, "WINDOW_CHAIN_BUDGET", 1000)
    message = "window [-3, -3] has more than 1000 chains; narrow the degrees"
    with pytest.raises(TruncationError, match=re.escape(message)):
        Probe(cat, identity_functor(cat), -3, -3)
    assert started[0]._chains == {-3: []}
    monkeypatch.setattr(hochschild, "WINDOW_CHAIN_BUDGET", 6**4)
    assert window_for(cat, (-3, -3)).dim(-3) == 6**4


def test_chains_match_reference_enumeration():
    """Each degree's chains, in order, equal those of the chain-by-chain
    recursion, on the reference windows (two of them normalized) and over
    Q(zeta_3)."""
    for win in [*reference_windows(), *cyclotomic_windows()]:
        want = reference_chains(win)
        assert {k: win.chains_at(k) for k in want} == want, win.category.objects


def test_object_cycles_match_reference_recursion():
    """The object cycles built level by level equal, in order, those of the
    recursion over c1, ..., cm, at every bar degree of the reference
    windows (E1's and E2's pipeline windows among them) and of E5's
    pipeline windows."""
    pipe = e5_pipeline()
    e5 = [pipe.w_hh, pipe.w_full, *pipe.w_small.values(), *pipe.w_big.values()]
    checked = 0
    for win in [*reference_windows(), *{id(w): w for w in e5}.values()]:
        for m in win.bar_degrees:
            want = list(reference_object_cycles(win, m))
            assert win._object_cycles(m) == want, (win.category.objects, m)
            checked += bool(want)
    assert checked


def test_wide_degree_window_builds_only_what_reaches_it():
    """The exterior algebra on u (|u| = -1) at [-15, -14] certifies bar
    degrees 7..15, whose cycles hold 2^(m+1) key tuples, 130,816 in all,
    against 2,584 chains in the window.  Enumeration and the face walk keep
    only the key tuples that can reach the window, so the build's peak
    memory stays within 2 kB a chain."""
    lam = negative_degree_exterior_category()
    tracemalloc.start()
    try:
        win = build_window(lam, identity_functor(lam), -15, -14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert win.bar_degrees == list(range(7, 16))
    chains = win.dim(-15) + win.dim(-14)
    assert chains == 2584
    assert {k: win.chains_at(k) for k in (-15, -14)} == reference_chains(win)
    assert peak < 2000 * chains


def test_twist_images_are_read_only_for_chains_with_a_column():
    """A twist that leaves e (|e| = 1) unmapped: on the window [-2, -1] the
    chains with e in slot m lie in the top degree, which has no column, so
    the window is built; on [-1, 0] the chain 1[1|e] has a column, and its
    twist face names the missing image."""
    cat = exterior_category(1)
    table = {("pt", "pt"): {(0, "1"): cat.unit("pt")}}
    partial = DgFunctor(cat, cat, {"pt": "pt"}, table, name="no e")
    win = build_window(cat, partial, -2, -1, bar_cap=2)
    assert Chain(("pt",) * 3, ((0, "1"), (0, "1"), (1, "e"))) in win.chains_at(-1)
    for k in range(win.lo, win.hi):
        assert columns(win.differential(k)) == columns(stored(reference_total(win, k)[0]))
    with pytest.raises(StructureError, match=re.escape("functor no e has no action on (1, 'e')")):
        build_window(cat, partial, -1, 0, bar_cap=2)


def test_face_on_a_chain_missing_from_the_window():
    """a∘a = z with z outside the basis: a d2 face that multiplies a with a
    (of a[a], 1[a|a], ...) lands on a chain holding z, of a window degree,
    which the window does not hold.  Which such face is met first depends
    on the order the faces are walked in."""
    cat = algebra_category(QQ, "pt", [("1", 0), ("a", 0)], {("a", "a"): {"z": 1}})
    message = r"image chain missing from window: Chain\(\('pt',.*\(0, 'z'\)"
    with pytest.raises(StructureError, match=message):
        window_for(cat, (-2, 0))


def test_face_of_another_degree():
    """A twist sending a (degree 0) to b (degree 1): the twist face of 1[a],
    of degree -1, writes the chain b of degree 1 into degree 0."""
    cat = algebra_category(QQ, "pt", [("1", 0), ("a", 0), ("b", 1)], {})
    table = {
        ("pt", "pt"): {
            (0, "1"): cat.unit("pt"),
            (0, "a"): Mor("pt", "pt", {(1, "b"): QQ.one}),
            (1, "b"): Mor("pt", "pt", {(1, "b"): QQ.one}),
        }
    }
    shift = DgFunctor(cat, cat, {"pt": "pt"}, table, name="a->b")
    message = "term Chain(('pt',), ((1, 'b'),)) has degree 1, not 0"
    with pytest.raises(StructureError, match=re.escape(message)):
        build_window(cat, shift, -1, 0, bar_cap=1)


def test_chain_index_accepts_plain_pairs():
    win = window_for(group_algebra_z2_category(), (-2, 0))
    for k in range(win.lo, win.hi + 1):
        for i, chain in enumerate(win.chains_at(k)):
            assert win._index[k][(chain.objects, chain.keys)] == i
            assert repr(chain) == f"Chain({chain.objects}, {chain.keys})"


# ---------------------------------------------------------------------------
# early stop of boundary elimination


def unit_vectors(n):
    return [{i: Fraction(1)} for i in range(n)] + [{i: Fraction(i + 1) for i in range(n)}]


def boundary_adds(monkeypatch):
    """Count the boundary columns added to homology echelons."""
    calls = []
    add = hochschild.Echelon.add

    def counting(self, vec, tag=None):
        if tag is None:
            calls.append(vec)
        return add(self, vec, tag=tag)

    monkeypatch.setattr(hochschild.Echelon, "add", counting)
    return calls


@pytest.mark.parametrize(
    "dims, rows, k, adds",
    [
        # exact at 0: the ranks mod P certify it, so no boundary is added
        ({-1: 3, 0: 2, 1: 2, 2: 1}, {-1: [[1, 2, -1], [-1, -2, 1]], 0: [[1, 1], [0, 0]], 1: [[0, 0]]}, 0, 0),
        # H^1 is one-dimensional: the echelon never reaches the cycles; the
        # two boundaries are equal, so the second is skipped
        ({-1: 3, 0: 2, 1: 2, 2: 1}, {-1: [[1, 2, -1], [-1, -2, 1]], 0: [[1, 1], [0, 0]], 1: [[0, 0]]}, 1, 1),
        # d∘d != 0: the second boundary is no cycle, so every one is added
        ({-1: 3, 0: 2, 1: 1}, {-1: [[1, 1, 0], [-1, 0, 1]], 0: [[1, 1]]}, 0, 3),
        # a zero, a repeated and a negated boundary are skipped: v, v, -v, w
        # and 0 add v and w only
        ({-1: 5, 0: 3, 1: 1}, {-1: [[0, 1, 1, -1, 0], [0, 1, 1, -1, 0], [0, 0, 0, 0, 1]]}, 0, 2),
        # d∘d != 0 with a repeated boundary: a, a, b and a + b add a, b and
        # a + b, every distinct column, although a + b lies in their span
        ({-1: 4, 0: 2, 1: 1}, {-1: [[1, 1, 0, 1], [0, 0, 1, 1]], 0: [[1, 1]]}, 0, 3),
    ],
)
def test_early_stop_matches_full_elimination(monkeypatch, dims, rows, k, adds):
    win = MatrixWindow(dims, rows)
    want = full_elimination_basis(win, k)
    calls = boundary_adds(monkeypatch)
    got = win.homology_basis(k)
    assert len(calls) == adds
    assert (got._ech is None) == (adds == 0)
    assert got.reps == want.reps
    if got._ech is not None:
        assert got._ech.columns == want._ech.columns
        assert got._ech.combos == want._ech.combos
    for vec in unit_vectors(dims[k]) + win.differential(k - 1).cols:
        assert got.express(vec) == want.express(vec)


def e5_pipeline():
    b = get_example("E5")
    return DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names or None,
        representations=b.representations, degrees=(0, 0),
    )


def test_skipped_boundaries_match_full_elimination_on_e5(monkeypatch):
    """E5 at 0..0: at degree 0 of W_full and W_big (one window, shared by
    every class under the trivial action), most boundary columns are zero
    or repeat one up to sign; skipping them leaves the reps, echelon
    columns and combinations of adding every column."""
    pipe = e5_pipeline()
    calls = boundary_adds(monkeypatch)
    assert len({id(w) for w in pipe.w_big.values()}) == 1
    for win in [pipe.w_full, pipe.w_big["123"]]:
        cols = win.differential(-1).cols
        distinct = {frozenset(c.items()) for c in cols if c}
        calls.clear()
        got = win.homology_basis(0)
        assert 0 < len(calls) <= len(distinct) < len(cols)
        want = full_elimination_basis(win, 0)
        assert got._ech is not None and got.reps
        assert [typed(v) for v in got.reps] == [typed(v) for v in want.reps]
        assert got._ech.columns == want._ech.columns
        assert got._ech.combos == want._ech.combos
        assert got._ech.pivots == want._ech.pivots


# ---------------------------------------------------------------------------
# acyclic degrees certified by ranks mod P


def certified_degrees(win):
    return [k for k in range(win.lo + 1, win.hi) if win.homology_basis(k)._ech is None]


def test_certified_homology_matches_reference():
    """On every homology degree of the reference and cyclotomic windows,
    the reps equal the exact reference path's and express agrees with
    it.  Over Q the certificate fires exactly on the acyclic degrees with
    d∘d = 0; over Q(zeta_3) it never fires."""
    fired = 0
    for win in [*reference_windows(), *cyclotomic_windows()]:
        rational = win.category.field == QQ
        for k in range(win.lo + 1, win.hi):
            reps, ech = reference_homology(win, k)
            got = win.homology_basis(k)
            assert [typed(v) for v in got.reps] == [typed(v) for v in reps]
            assert_classes_match_reference(win, k, got, ech)
            d_k = win.differential(k)
            closed = (d_k * win.differential(k - 1)).is_zero()
            assert (got._ech is None) == (rational and closed and not reps)
            fired += got._ech is None
    assert fired
    for win in ladder_windows():
        assert certified_degrees(win) == [-3, -2, -1]


@pytest.mark.parametrize("entry", [P, Fraction(1, P)], ids=["unlucky-prime", "denominator-p"])
def test_certificate_falls_back_when_p_fails(entry):
    # 0 -> Q -(entry)-> Q -> 0 in degrees 0, 1 is acyclic over Q, but the
    # entry is 0 mod P or has no image mod P
    win = MatrixWindow({-1: 0, 0: 1, 1: 1, 2: 0}, {0: [[entry]]})
    assert rank_mod_p(win.differential(0)) == (0 if entry == P else None)
    assert certified_degrees(win) == []
    assert [win.homology(k)[0] for k in (0, 1)] == [0, 0]
    assert win.homology_basis(0).express({0: Fraction(1)}) is None
    assert win.homology_basis(1).express({0: Fraction(1)}) == {}


def test_nonzero_square_is_never_certified():
    # d_{-1}: e -> e0 and d_0 = (1 0): the ranks mod P add up to dim C_0,
    # but d_0 d_{-1} != 0 and the cycle e1 is no boundary
    win = MatrixWindow({-2: 0, -1: 1, 0: 2, 1: 1, 2: 0}, {-1: [[1], [0]], 0: [[1, 0]]})
    assert rank_mod_p(win.differential(-1)) + rank_mod_p(win.differential(0)) == 2
    assert 0 not in certified_degrees(win)
    assert win.homology(0) == (1, [{1: Fraction(1)}])


def test_rank_mod_p_matches_lowest_row_reference():
    """On every differential of the reference windows (the k[Z/n] ladder
    and the E1 and E2 pipeline windows among them), of E5's pipeline
    windows and of the cyclotomic windows (None on both sides), the
    fresh-row pivot rule gives the rank of the lowest-row reference, in
    full and up to the stop that ``_acyclic_mod_p`` passes."""
    pipe = e5_pipeline()
    e5 = [pipe.w_hh, pipe.w_full, *pipe.w_small.values(), *pipe.w_big.values()]
    windows = [*reference_windows(), *{id(w): w for w in e5}.values(), *cyclotomic_windows()]
    for win in windows:
        ranks = {}
        for k in range(win.lo, win.hi):
            ranks[k] = rank_mod_p(win.differential(k))
            assert ranks[k] == reference_rank_mod_p(win.differential(k))
        for k in range(win.lo + 1, win.hi):
            if ranks[k] is not None:
                need = win.differential(k).ncols - ranks[k]
                d_prev = win.differential(k - 1)
                assert rank_mod_p(d_prev, stop=need) == reference_rank_mod_p(d_prev, stop=need)


def test_each_differential_is_ranked_once(monkeypatch):
    """hh on k[Z/6] at -3..0 ranks each differential mod P once: degree
    k+1 compares the full rank of d_k kept at degree k with its need, and
    only d_{-4}, below the first degree asked for, is ranked with a stop."""
    calls = []

    def spy(matrix, stop=None):
        calls.append((matrix, stop))
        return rank_mod_p(matrix, stop)

    monkeypatch.setattr(hochschild, "rank_mod_p", spy)
    cat = cyclic_group_algebra(6)
    res = hh_dimensions(cat, identity_functor(cat), [-3, -2, -1, 0])
    assert res["dims"] == {0: 6, -1: 0, -2: 0, -3: 0}
    win = res["window"]
    degree = {id(win.differential(k)): k for k in range(win.lo, win.hi)}
    ranked = [(degree[id(matrix)], stop is not None) for matrix, stop in calls]
    assert sorted(ranked) == [(-4, True), (-3, False), (-2, False), (-1, False), (0, False)]


class IdentityMap(ChainMap):
    def _compute(self, k, idx):
        return {idx: Fraction(1)}


def identity_versus_zero(win):
    """The certificate of id ≃ 0 on ``win`` with H = 0."""
    zero = LinearComboMap(win, win, [])
    return HomotopyCertificate(IdentityMap(win, win), zero, ColumnMap(win, win, {}))


def test_solver_uses_the_unknowns_above_the_top_degree():
    # 0 -> Q -(1)-> Q -> 0 in degrees 1, 2 is acyclic; the solved degrees
    # stop at 1, where C_0 = 0, so only H_2: C_2 -> C_1 can give dH + Hd = id
    win = MatrixWindow({-1: 0, 0: 0, 1: 1, 2: 1}, {1: [[1]]})
    cert = identity_versus_zero(win)
    assert not cert.check()
    solved = solve_homotopy(cert)
    assert solved.apply_chain(1, 0) == {} and solved.apply_chain(2, 0) == {0: 1}
    assert HomotopyCertificate(cert.f, cert.g, solved).check()


def test_solver_finds_no_homotopy_where_homology_differs():
    # id and 0 differ on H_0 = Q, so no H solves dH + Hd = id
    win = MatrixWindow({-1: 0, 0: 1, 1: 0}, {})
    assert solve_homotopy(identity_versus_zero(win)) is None
