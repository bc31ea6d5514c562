"""Shared fixtures for the test suite."""

import itertools
import random
from fractions import Fraction
from math import gcd

from equihh.dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    algebra_category,
    block_mor,
    hull_entries,
    hull_subcategory,
    identity_functor,
    parity_sign,
)
from equihh.errors import TruncationError
from equihh.groups import FiniteGroup, GroupAction, regular_representation
from equihh.hochschild import (
    Certification,
    Chain,
    ChainMap,
    HomologyBasis,
    HomotopyCertificate,
    InducedMap,
    InsertionHomotopy,
    WindowBase,
    build_window,
)
from equihh.linalg import (
    P,
    Echelon,
    GradedSpace,
    SparseMatrix,
    _mod_p,
    _sub_mod_p,
    rank_kernel_image,
    vec_axpy,
    vec_is_zero,
)
from equihh.scalars import QQ, Cyc, invert_scalar


def scaled_action():
    """Non-strict Z/2 action on the point: identity functors but
    eta = (1/4)·id, theta[s,s] = id and every theta touching e = (1/4)·id,
    a consistent coherence datum that exercises nontrivial theta/eta."""
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    ident = identity_functor(cat)
    lam = Fraction(1, 4)
    scalars = {
        ("e", "e"): lam,
        ("e", "s"): lam,
        ("s", "e"): lam,
        ("s", "s"): Fraction(1),
    }
    theta = {
        pair: NatTransform(ident, ident, {"pt": cat.unit("pt").scale(c)}, name=f"theta{pair}")
        for pair, c in scalars.items()
    }
    eta = NatTransform(ident, ident, {"pt": cat.unit("pt").scale(lam)}, name="eta")
    return GroupAction(z2, cat, {g: ident for g in z2.elements}, theta, eta, name="scaled")


def coboundary_weights(group):
    """f(e) = 1 and f = 2, 3, ... on the other elements in order: the
    cochain whose coboundary is coboundary_action's theta."""
    f = {g: Fraction(i + 1) for i, g in enumerate(group.elements)}
    f[group.identity] = Fraction(1)
    return f


def coboundary_action():
    """Non-strict S3 action on the point: identity functors, eta = id and
    theta[g,g2] = f(g)·f(g2)/f(g2·g) for f = coboundary_weights(S3).  S3
    is not abelian, so theta[g,g2] != theta[g2,g] for some pairs: a
    formula that reads theta with its arguments swapped gives a different
    morphism.  The point with alpha_g = chi(g)/f(g) is an equivariant
    object for every representation chi."""
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    s3 = FiniteGroup.symmetric(3)
    ident = identity_functor(cat)
    f = coboundary_weights(s3)
    theta = {
        (g, g2): NatTransform(
            ident,
            ident,
            {"pt": cat.unit("pt").scale(f[g] * f[g2] / f[s3.mul(g2, g)])},
            name=f"theta[{g},{g2}]",
        )
        for g, g2 in itertools.product(s3.elements, repeat=2)
    }
    eta = NatTransform(ident, ident, {"pt": cat.unit("pt")}, name="eta")
    return GroupAction(s3, cat, {g: ident for g in s3.elements}, theta, eta, name="coboundary")


# -- helpers only the tests use ----------------------------------------------


def negative_degree_exterior_category():
    """Exterior generator in degree -1: certified windows in every range."""
    return algebra_category(QQ, "pt", [("1", 0), ("u", -1)], {("u", "u"): {}})


def leibniz_sabotage_pair():
    """A pair (good, bad) of tensor-style categories where the bad one has
    one composition sign flipped; the differential makes Leibniz fail."""
    good = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("x", 1), ("t", 0), ("s", 1), ("xt", 1), ("xs", 2)],
        {
            ("x", "x"): {}, ("t", "t"): {}, ("s", "s"): {}, ("t", "s"): {}, ("s", "t"): {},
            ("x", "t"): {"xt": 1}, ("t", "x"): {"xt": 1},
            ("x", "s"): {"xs": 1}, ("s", "x"): {"xs": -1},
            ("x", "xt"): {}, ("xt", "x"): {}, ("t", "xt"): {}, ("xt", "t"): {},
            ("s", "xt"): {}, ("xt", "s"): {}, ("x", "xs"): {}, ("xs", "x"): {},
            ("t", "xs"): {}, ("xs", "t"): {}, ("s", "xs"): {}, ("xs", "s"): {},
            ("xt", "xt"): {}, ("xt", "xs"): {}, ("xs", "xt"): {}, ("xs", "xs"): {},
        },
        differential={"t": {"s": 1}, "xt": {"xs": -1}},
    )
    bad = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("x", 1), ("t", 0), ("s", 1), ("xt", 1), ("xs", 2)],
        {
            ("x", "x"): {}, ("t", "t"): {}, ("s", "s"): {}, ("t", "s"): {}, ("s", "t"): {},
            ("x", "t"): {"xt": 1}, ("t", "x"): {"xt": 1},
            ("x", "s"): {"xs": 1}, ("s", "x"): {"xs": 1},  # flipped Koszul sign
            ("x", "xt"): {}, ("xt", "x"): {}, ("t", "xt"): {}, ("xt", "t"): {},
            ("s", "xt"): {}, ("xt", "s"): {}, ("x", "xs"): {}, ("xs", "x"): {},
            ("t", "xs"): {}, ("xs", "t"): {}, ("s", "xs"): {}, ("xs", "s"): {},
            ("xt", "xt"): {}, ("xt", "xs"): {}, ("xs", "xt"): {}, ("xs", "xs"): {},
        },
        differential={"t": {"s": 1}, "xt": {"xs": -1}},
    )
    return good, bad


def collapsing_twist():
    """(Q, F): objects x and y, End(x) = k{1, e} with |e| = -1 and e∘e = 0,
    End(y) = k{1}, Hom(x, y) = k{u} and nothing back; the twist F sends
    both objects to y, u and the units to 1_y and e to 0.  A slot-0 key
    a0: c1 -> F(c0) ends at y, so e, an endomorphism of x, never reaches
    slot 0, while the chain u[e] holds it in slot 1."""
    one, e, u = (0, "1"), (-1, "e"), (0, "u")
    homs = {
        ("x", "x"): GradedSpace({0: ["1"], -1: ["e"]}),
        ("y", "y"): GradedSpace({0: ["1"]}),
        ("x", "y"): GradedSpace({0: ["u"]}),
    }
    comp = {
        ("x", "x", "x"): {(one, one): {one: QQ.one}, (one, e): {e: QQ.one}, (e, one): {e: QQ.one}},
        ("x", "x", "y"): {(one, u): {u: QQ.one}},
        ("x", "y", "y"): {(u, one): {u: QQ.one}},
        ("y", "y", "y"): {(one, one): {one: QQ.one}},
    }
    cat = DgCategory(QQ, ["x", "y"], homs, {}, comp, {x: {one: QQ.one} for x in "xy"})
    to_y = {
        ("x", "x"): {one: cat.unit("y"), e: Mor("y", "y", {})},
        ("y", "y"): {one: cat.unit("y")},
        ("x", "y"): {u: cat.unit("y")},
    }
    return cat, DgFunctor(cat, cat, {"x": "y", "y": "y"}, to_y, name="F")


def identity_but_e(cat, image, name):
    """The identity of ``collapsing_twist``'s category but for e -> image."""
    table = {pair: dict(identity_functor(cat).mor_map[pair]) for pair in cat.homs}
    table[("x", "x")][(-1, "e")] = image
    return DgFunctor(cat, cat, {"x": "x", "y": "y"}, table, name=name)


# the bottom entries of projecting_cut's slot maps, on a basis morphism a
def same(a):
    return a.coeffs


def zero(a):
    return {}


def doubled(a):
    """a -> 2a: a chain map that is not multiplicative."""
    return {key: 2 * c for key, c in a.coeffs.items()}


def graded(a):
    """a -> 2^{-|a|}·a: multiplicative, but not a chain map (du = 1)."""
    return {key: c * 2 ** -key[0] for key, c in a.coeffs.items()}


def doubled_v(a):
    """v -> 2v, the other keys fixed: no chain map (dv = x)."""
    return {key: c * (2 if key[1] == "v" else 1) for key, c in a.coeffs.items()}


def projecting_cut(m_bottom=same, t_bottom=same, first_bottom=zero):
    """An insertion homotopy whose cut is not invertible.

    From the window [-3, 0] of Λ = k[u, x]/(u², x²) (|u| = |x| = -1,
    du = 1, v = ux = -xu, dv = x) to that of the hull object (pt, pt),
    both untwisted: T and M send a to diag(a, t_bottom(a)) and diag(a,
    m_bottom(a)), the cut and both twists are the projection e11, and
    first(a0) = diag(a0, first_bottom(a0)).  e11 hides the bottom entries
    from naturality and from the slot-0 identities, so each bottom map
    breaks only the identities that read it without e11: d-compatibility,
    multiplicativity, first(a0 a1) = first(a0)∘middle(a1).  v reaches
    slot 0 only in the chain v of the lowest checked degree, -2, and no
    checked pair multiplies to it, so first reads it only for d first.
    Every identity holds with the defaults."""
    lam = algebra_category(
        QQ,
        "pt",
        [("1", 0), ("u", -1), ("x", -1), ("v", -2)],
        {
            ("u", "x"): {"v": 1}, ("x", "u"): {"v": -1}, ("u", "u"): {}, ("x", "x"): {},
            ("u", "v"): {}, ("v", "u"): {}, ("x", "v"): {}, ("v", "x"): {}, ("v", "v"): {},
        },
        differential={"u": {"1": 1}, "v": {"x": 1}},
    )
    pp = ("pt", "pt")
    pair = hull_subcategory(lam, [pp])
    e11 = Mor(pp, pp, hull_entries({(0, "1"): QQ.one}, 0, 0))

    def diagonal(bottom):
        return lambda a: Mor(
            pp, pp, {**hull_entries(a.coeffs, 0, 0), **hull_entries(bottom(a), 1, 1)}
        )

    def functor(bottom, name):
        value = diagonal(bottom)
        table = {key: value(lam.basis_mor("pt", "pt", *key)) for key in lam.basis_keys("pt", "pt")}
        return DgFunctor(lam, pair, {"pt": pp}, {("pt", "pt"): table}, name=name)

    src = build_window(lam, identity_functor(lam), -3, 0)
    tgt = build_window(pair, identity_functor(pair), -3, 0)
    big_t, big_m = functor(t_bottom, "T"), functor(m_bottom, "M")
    f = InducedMap(src, tgt, big_t, NatTransform(big_t, big_t, {"pt": e11}))
    g = InducedMap(src, tgt, big_m, NatTransform(big_m, big_m, {"pt": e11}))
    first = diagonal(first_bottom)
    h = InsertionHomotopy(
        src, tgt, lambda a0, c0: first(a0), big_m.apply, lambda c: e11, big_t.apply
    )
    return HomotopyCertificate(f, g, h)


def reversed_window(win):
    """A second build of the window ``win``, with each degree's chains
    listed in reverse order: the same complex on another basis order."""
    other = build_window(win.category, win.functor, win.lo, win.hi, bar_cap=win.bar_cap)
    cycles = other._enumerate()
    for k, chains in other._chains.items():
        chains.reverse()
        other._index[k] = {chain: i for i, chain in enumerate(chains)}
    other._d.update(other._differentials(cycles))
    return other


def zero_mor(x, y):
    return Mor(x, y, {})


def identity_nat(fun, name="1"):
    comps = {x: fun.tgt.unit(fun.apply_obj(x)) for x in fun.src.objects}
    return NatTransform(fun, fun, comps, name=name)


def transpose(mat):
    out = SparseMatrix(mat.ncols, mat.nrows)
    for i, j, x in mat.entries():
        out.cols[i][j] = x
    return out


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def split_differential(win, k):
    """(d1, d2) of degree k: d1 on the reference path and d2 the rest of
    the window's total differential d2 + (-1)^m d1.  The reference d2
    multiplies every slot coefficient and takes seconds on long chains."""
    d1 = reference_matrix(win, k, reference_d1_chain)
    total = win.differential(k)
    d2 = SparseMatrix(d1.nrows, d1.ncols)
    for j, chain in enumerate(win.chains_at(k)):
        sign = parity_sign(chain.bar_degree)
        d2.cols[j] = reference_vec_sub(total.cols[j], reference_vec_scale(sign, d1.cols[j]))
    return d1, d2


def verify_sign_identities(win):
    """d2^2 = 0 and d1 d2 = d2 d1 on all stored composable degrees, with
    d1 and d2 from split_differential."""
    issues = []
    d1, d2 = {}, {}
    for k in range(win.lo, win.hi):
        d1[k], d2[k] = split_differential(win, k)
    for k in range(win.lo, win.hi - 1):
        if not (d2[k + 1] * d2[k]).is_zero():
            issues.append(("d2_squared", k))
        if not d1[k + 1] * d2[k] == d2[k + 1] * d1[k]:
            issues.append(("d1_d2_commute", k))
    return issues


def verify_d_squared(win):
    """(instances checked, list of violations (degree, column)) of
    d∘d = 0 on the stored degrees of a window."""
    bad = []
    count = 0
    for k in range(win.lo, win.hi - 1):
        prod = win.differential(k + 1) * win.differential(k)
        count += win.dim(k)
        for j, col in enumerate(prod.cols):
            if not vec_is_zero(col):
                bad.append((k, j))
    return count, bad


def pair_index(tw, k, ka, i, j):
    """Position of the chain (ka, i, j) of a tensor window in degree k."""
    return tw._index[k].get((ka, i, j))


def koszul_swap_map(tw, tw_swapped):
    """x⊗y -> (-1)^{|x||y|} y⊗x between tensor windows."""

    class _Swap(ChainMap):
        def _compute(self, k, idx):
            ka, i, j = self.src.chains_at(k)[idx]
            kb = k - ka
            pos = pair_index(self.tgt, k, kb, j, i)
            if pos is None:
                return {}
            return {pos: self.src.field.one * parity_sign(ka * kb)}

    return _Swap(tw, tw_swapped, name="koszul swap")


def centralizer_action_map(window, rho_h, c_transform, name=None):
    """(rho_h, C_{h,g})_* as an endo chain map of a twisted window."""
    return InducedMap(window, window, rho_h, c_transform, name=name or f"({rho_h.name})*")


def sfor_iso_natural(eqcat, phi, iso_by_name):
    """One naturality square of the comparison isomorphism, exactly:
    iso_tgt ∘ T_reg(φ) = S(For(φ)) ∘ iso_src."""
    laction = eqcat.laction
    cat = eqcat.category
    reg = regular_representation(laction.group, field=eqcat.ambient.field)
    sn, tn = phi.src, phi.tgt
    t_reg = eqcat.rep_tensor_functor(reg, source_names=[sn, tn] if sn != tn else [sn])
    amb = eqcat.embed(phi, sn, tn)
    images = [laction.rho(h).apply(amb) for h in laction.group.elements]
    s_amb = block_mor(
        [img.src for img in images],
        [img.tgt for img in images],
        {(hi, hi): img for hi, img in enumerate(images)},
    )
    s_for_phi = eqcat.restrict(
        s_amb,
        eqcat.sym_name(eqcat.roster[sn].underlying),
        eqcat.sym_name(eqcat.roster[tn].underlying),
    )
    lhs = cat.compose(iso_by_name[tn], t_reg.apply(phi))
    rhs = cat.compose(s_for_phi, iso_by_name[sn])
    return lhs == rhs


# -- reference paths for the fast window code -------------------------------
#
# The two-pass vector arithmetic below multiplies by every scalar, ±1
# included, and copies on every update.  It is the reference that the
# unit-aware, in-place vec_axpy is compared against.


def reference_vec_add(u, v):
    out = dict(u)
    for k, x in v.items():
        y = out.get(k)
        s = x if y is None else y + x
        if s:
            out[k] = s
        elif y is not None:
            del out[k]
    return out


def reference_vec_scale(c, v):
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def reference_vec_sub(u, v):
    return reference_vec_add(u, reference_vec_scale(-1, v))


def reference_apply(mat, vec):
    out = {}
    for j, x in vec.items():
        out = reference_vec_add(out, reference_vec_scale(x, mat.cols[j]))
    return out


class ReferenceEchelon:
    """Rational echelon with the two-pass update vec - c·col: same
    pivoting, pivots normalized to 1, no in-place change and no unit
    shortcut; combinations are seeded with the field's one."""

    def __init__(self, field=QQ):
        self.one = field.one
        self.columns = []
        self.pivots = {}
        self.combos = []

    @property
    def rank(self):
        return len(self.columns)

    def _reduce(self, vec, combo):
        for row in sorted(set(vec) & set(self.pivots)):
            c = vec.get(row)
            if not c:
                continue
            pos = self.pivots[row]
            vec = reference_vec_sub(vec, reference_vec_scale(c, self.columns[pos]))
            combo = reference_vec_sub(combo, reference_vec_scale(c, self.combos[pos]))
        return vec, combo

    def add(self, vec, tag=None):
        combo = {tag: self.one} if tag is not None else {}
        vec, combo = self._reduce(dict(vec), combo)
        if not any(vec.values()):
            return {}, combo
        pivot = min(vec)
        inv = invert_scalar(vec[pivot])
        vec = reference_vec_scale(inv, vec)
        combo = reference_vec_scale(inv, combo)
        for pos, col in enumerate(self.columns):
            c = col.get(pivot)
            if c:
                self.columns[pos] = reference_vec_sub(col, reference_vec_scale(c, vec))
                self.combos[pos] = reference_vec_sub(
                    self.combos[pos], reference_vec_scale(c, combo)
                )
        self.pivots[pivot] = len(self.columns)
        self.columns.append(vec)
        self.combos.append(combo)
        return vec, combo

    def solve(self, vec):
        coords = {}
        for row in sorted(set(vec) & set(self.pivots)):
            c = vec.get(row)
            if not c:
                continue
            pos = self.pivots[row]
            vec = reference_vec_sub(vec, reference_vec_scale(c, self.columns[pos]))
            coords[pos] = c
        if any(vec.values()):
            return None
        out = {}
        for pos, c in coords.items():
            out = reference_vec_add(out, reference_vec_scale(c, self.combos[pos]))
        return out


def reference_rank_kernel_image(matrix, field=QQ):
    ech = ReferenceEchelon(field)
    kernel = []
    for j in range(matrix.ncols):
        residual, combo = ech.add(matrix.cols[j], tag=j)
        if not residual:
            kernel.append(combo)
    return ech.rank, kernel, ech


def reference_rank_mod_p(matrix, stop=None):
    """``linalg.rank_mod_p`` with the lowest-row pivot: every new pivot is
    cleared from the stored columns."""
    columns = []  # reduced columns {row: int}, pivot entry 1
    pivots = {}  # pivot row -> column position
    for col in matrix.cols:
        if stop is not None and len(columns) >= stop:
            break
        if not col:
            continue
        vec = {}
        for i, x in col.items():
            y = _mod_p(x)
            if y is None:
                return None
            if y:
                vec[i] = y
        for row in sorted(vec.keys() & pivots.keys()):
            c = vec.get(row)
            if c:
                _sub_mod_p(vec, c, columns[pivots[row]])
        if not vec:
            continue
        pivot = min(vec)
        inv = pow(vec[pivot], -1, P)
        vec = {i: x * inv % P for i, x in vec.items()}
        for other in columns:
            c = other.get(pivot)
            if c:
                _sub_mod_p(other, c, vec)
        pivots[pivot] = len(columns)
        columns.append(vec)
    return len(columns)


def reference_homology(win, k):
    """(reps, echelon) of WindowBase.homology_basis on the reference path,
    with the same early stop."""
    d_k = win.differential(k)
    _, cycles, _ = reference_rank_kernel_image(d_k, win.field)
    ech = ReferenceEchelon(win.field)
    d_prev = win.differential(k - 1)
    closed = all(not reference_apply(d_k, col) for col in d_prev.cols)
    for col in d_prev.cols:
        if closed and ech.rank == len(cycles):
            break
        ech.add(col)
    reps = []
    for cyc in cycles:
        residual, _ = ech.add(cyc, tag=len(reps))
        if residual:
            reps.append(cyc)
    return reps, ech


def typed(vec):
    """Entries of a vector in key order, each with its scalar type."""
    return [(k, x, type(x)) for k, x in vec.items()]


def _quotient(x, d, field):
    q = Fraction(x) / d if isinstance(x, int) else x / d
    return q if field == QQ or isinstance(q, Cyc) else field.embed(q)


def normalized_columns(ech, field=QQ):
    """The stored columns and combos of an Echelon, each pair divided by
    its column's pivot entry, as typed entries in key order."""
    out = []
    for row, pos in sorted(ech.pivots.items(), key=lambda item: item[1]):
        lead = ech.columns[pos][row]
        for vec in (ech.columns[pos], ech.combos[pos]):
            out.append(typed({k: _quotient(x, lead, field) for k, x in vec.items()}))
    return out


def reference_columns(ref_ech):
    return [typed(v) for pair in zip(ref_ech.columns, ref_ech.combos) for v in pair]


def content(vec):
    """gcd of a stored vector's entries, which are ints or Cycs with
    integer coefficients."""
    g = 0
    for x in vec.values():
        if isinstance(x, Cyc):
            assert all(c.denominator == 1 for c in x.coeffs)
            g = gcd(g, *(c.numerator for c in x.coeffs))
        else:
            assert type(x) is int
            g = gcd(g, x)
    return g


def assert_integral_content_one(ech):
    """Every stored column with its combo is integral with content 1."""
    for col, combo in zip(ech.columns, ech.combos):
        assert gcd(content(col), content(combo)) == 1


def assert_elimination_matches_reference(mat, field=QQ, probes=8):
    """rank_kernel_image and the Echelon agree with the two-pass reference
    in pivots, reduced columns, combos, kernels and a few solves, entry by
    entry, in key order and in scalar type.  Stored columns and combos are
    compared after division by their pivot entry."""
    rank, kernel = rank_kernel_image(mat, field)
    ref_rank, ref_kernel, ref_ech = reference_rank_kernel_image(mat, field)
    assert rank == ref_rank
    assert [typed(v) for v in kernel] == [typed(v) for v in ref_kernel]
    ech = Echelon(field)
    for j, col in enumerate(mat.cols):
        ech.add(col, tag=j)
    assert list(ech.pivots.items()) == list(ref_ech.pivots.items())
    assert normalized_columns(ech, field) == reference_columns(ref_ech)
    assert_integral_content_one(ech)
    probe_vecs = mat.cols[:probes] + [{i: Fraction(1)} for i in range(min(probes, mat.nrows))]
    for vec in probe_vecs:
        got, want = ech.solve(vec), ref_ech.solve(vec)
        assert (got is None) == (want is None)
        if got is not None:
            assert typed(got) == typed(want)


def assert_classes_match_reference(win, k, got, ref_ech):
    """HomologyBasis.express agrees with the reference echelon's solve, in
    key order and scalar type, on unit vectors, kernel vectors and
    boundary columns of degree k, and gives None on a non-cycle."""
    d_k = win.differential(k)
    _, cycles = rank_kernel_image(d_k, win.field)
    units = [{i: Fraction(1)} for i in range(win.dim(k))]
    for vec in units + cycles + win.differential(k - 1).cols:
        want = ref_ech.solve(vec)
        have = got.express(vec)
        assert (have is None) == (want is None)
        if want is not None:
            assert typed(have) == typed(want)
    non_cycle = next((v for v in units if d_k.apply(v)), None)
    if non_cycle is not None:
        assert got.express(non_cycle) is None


def reference_normal_form(win, t, mor):
    """The coefficients of ``mor`` written into slot t: in a normalized
    window a slot t >= 1 of End(x) has its pivot key replaced by the
    pivot's class in End(x)/k·id_x, as ``NormalizationMap`` does."""
    pivot = win.pivots.get(mor.src) if t and mor.src == mor.tgt else None
    if pivot is None or pivot[0] not in mor.coeffs:
        return mor.coeffs
    p, rest = pivot
    kept = {key: c for key, c in mor.coeffs.items() if key != p}
    return reference_vec_add(kept, reference_vec_scale(mor.coeffs[p], rest))


def reference_add_image(win, out, degree, objs, mors, sign):
    """HochschildWindow._add_image multiplying every slot coefficient and
    the sign, each slot in normal form."""
    items = [list(reference_normal_form(win, t, m).items()) for t, m in enumerate(mors)]
    if any(not it for it in items):
        return
    for combo in itertools.product(*items):
        keys = tuple(k for k, _ in combo)
        coeff = None
        for _, c in combo:
            coeff = c if coeff is None else coeff * c
        win._add_term(out, degree, objs, keys, sign * coeff)


def face_degree(chain):
    """The degree of the faces of ``chain``: one above its own."""
    return sum(key[0] for key in chain.keys) - chain.bar_degree + 1


def _basis_slots(win, chain):
    pairs = win._slot_pairs(chain.objects)
    return [win.category.basis_mor(x, y, *key) for (x, y), key in zip(pairs, chain.keys)]


def reference_d1_chain(win, chain):
    """d1 of one basis chain through Mor objects: DgCategory.d on each slot,
    expanded with reference_add_image."""
    cat = win.category
    out = {}
    slots = _basis_slots(win, chain)
    prefix = 0
    for t, slot in enumerate(slots):
        dslot = cat.d(slot)
        if not dslot.is_zero():
            mors = list(slots)
            mors[t] = dslot
            sign = parity_sign(prefix)
            reference_add_image(win, out, face_degree(chain), chain.objects, mors, sign)
        prefix += chain.keys[t][0]
    return out


def reference_d2_chain(win, chain):
    """d2 of one basis chain through Mor objects and DgCategory.compose."""
    cat = win.category
    out = {}
    m = chain.bar_degree
    if m == 0:
        return out
    objs = chain.objects
    slots = _basis_slots(win, chain)
    degs = [key[0] for key in chain.keys]
    for i in range(m):
        prod = cat.compose(slots[i], slots[i + 1])
        mors = slots[:i] + [prod] + slots[i + 2 :]
        reference_add_image(
            win, out, face_degree(chain), objs[: i + 1] + objs[i + 2 :], mors, parity_sign(i)
        )
    prod = cat.compose(win.functor.apply(slots[m]), slots[0])
    sign = parity_sign(m + degs[m] * sum(degs[:m]))
    reference_add_image(
        win, out, face_degree(chain), (objs[m],) + objs[1:m], [prod] + slots[1:m], sign
    )
    return out


def reference_object_cycles(win, m):
    """The object cycles (c0, ..., cm) of ``win`` whose slot hom pairs are
    all nonzero, by a recursion over c1, ..., cm for each c0."""
    cat = win.category
    nonzero = {
        (x, y) for x, y in itertools.product(cat.objects, repeat=2) if cat.hom(x, y).total_dim()
    }

    def walk(c0, path):
        if len(path) == m:
            if (c0, path[-1]) in nonzero:
                yield (c0, *path)
            return
        for nxt in cat.objects:
            if (nxt, path[-1]) in nonzero:
                yield from walk(c0, path + [nxt])

    for c0 in cat.objects:
        fc0 = win.functor.apply_obj(c0)
        if m == 0:
            if (c0, fc0) in nonzero:
                yield (c0,)
            continue
        for c1 in cat.objects:
            if (c1, fc0) in nonzero:
                yield from walk(c0, [c1])


def reference_certify(degree_range, lo, hi, bar_cap):
    """(Certification, bar degrees) of a window [lo, hi] over a category
    whose hom degrees span ``degree_range`` = (a, b), by a loop over the
    bar degrees m that stops for b <= 0 once the top degree (m+1)b - m of
    a chain falls below lo, and for b = 1 once m passes hi - a + 1."""
    a, b = degree_range
    if a is None:
        return Certification("exact", -1), []

    def touches(m):
        return (m + 1) * a - m <= hi and (m + 1) * b - m >= lo

    if b <= 0 or (b == 1 and lo > 1):
        m = 0
        m_max = -1
        while True:
            if touches(m):
                m_max = m
            if b <= 0 and (m + 1) * b - m < lo:
                break
            if b == 1 and m > max(0, hi - a) + 1:
                break
            m += 1
        if bar_cap is not None and m_max > bar_cap:
            raise TruncationError(
                f"window is exact up to bar degree {m_max} but the cap is {bar_cap}"
            )
        cert = Certification("exact", m_max)
    elif bar_cap is None:
        raise TruncationError("window has unbounded bar degrees; a bar cap is required")
    else:
        cert = Certification("truncated", bar_cap)
    return cert, [m for m in range(cert.bound + 1) if touches(m)]


def reference_chains(win):
    """{degree: chains} of ``win``, enumerated chain by chain: per bar
    degree and object cycle, a recursion over the slots (keys in basis
    order, no pivot in a slot t >= 1 of a normalized window) that drops a
    branch once no choice of the remaining keys reaches the window."""
    cat = win.category
    chains = {k: [] for k in range(win.lo, win.hi + 1)}
    for m in win.bar_degrees:
        for objs in reference_object_cycles(win, m):
            keylists = []
            for t, (x, y) in enumerate(win._slot_pairs(objs)):
                keys = list(cat.basis_keys(x, y))
                if t and x == y and x in win.pivots:
                    keys.remove(win.pivots[x][0])
                keylists.append(keys)
            if not all(keylists):
                continue
            lows = [0] * (m + 2)
            highs = [0] * (m + 2)
            for i in range(m, -1, -1):
                lows[i] = lows[i + 1] + min(key[0] for key in keylists[i])
                highs[i] = highs[i + 1] + max(key[0] for key in keylists[i])

            def emit(pos, acc, chosen):
                if pos == len(keylists):
                    if win.in_window(acc - m):
                        chains[acc - m].append(Chain(objs, chosen))
                    return
                for key in keylists[pos]:
                    if acc + key[0] + lows[pos + 1] - m > win.hi:
                        continue
                    if acc + key[0] + highs[pos + 1] - m < win.lo:
                        continue
                    emit(pos + 1, acc + key[0], chosen + (key,))

            emit(0, 0, ())
    return chains


def reference_matrix(win, k, column):
    """The matrix of degree k whose j-th column is column(win, chain j)."""
    mat = SparseMatrix(win.dim(k + 1), win.dim(k))
    for j, chain in enumerate(win.chains_at(k)):
        mat.cols[j] = column(win, chain)
    return mat


def full_elimination_basis(win, k):
    """HomologyBasis with every boundary column added to the echelon."""
    _, cycles = rank_kernel_image(win.differential(k), win.field)
    ech = Echelon(win.field)
    for col in win.differential(k - 1).cols:
        ech.add(col, tag=None)
    reps = []
    for cyc in cycles:
        if ech.add(cyc, tag=len(reps)) is None:
            reps.append(cyc)
    return HomologyBasis(win, k, reps, ech)


class MatrixWindow(WindowBase):
    """A window over hand-written differentials {degree: rows}; degrees
    without rows get a zero differential."""

    def __init__(self, dims, rows_by_degree):
        super().__init__(min(dims), max(dims), QQ)
        self._chains = {k: list(range(n)) for k, n in dims.items()}
        for k, rows in rows_by_degree.items():
            mat = self._d[k] = SparseMatrix(dims[k + 1], dims[k])
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    mat.set(i, j, Fraction(x))


# -- reference paths for the table-driven equivariant layer ------------------
#
# The morphism-by-morphism versions of EquivariantCategory._solve_pair, of
# the equivariant composition tables and of InducedMap._compute: every
# condition, product and slot image goes through basis_mor, DgFunctor.apply
# and DgCategory.compose.


def reference_solve_pair(eqcat, src, tgt):
    """The solved equivariance subspace of Hom(src, tgt), per degree, with
    alpha'_g∘φ - rho_g(φ)∘alpha_g composed as morphisms for every element
    of G; each vector lists its keys in hom-key order."""
    cat = eqcat.laction.category
    grp = eqcat.laction.group
    c, c2 = src.underlying, tgt.underlying
    space = cat.hom(c, c2)
    solved = {}
    for deg in space.degrees():
        keys = [(deg, lab) for lab in space.labels(deg)]
        rows = {}
        cols = []
        for key in keys:
            phi = cat.basis_mor(c, c2, *key)
            col = {}
            for gi, g in enumerate(grp.elements):
                lhs = cat.compose(tgt.alpha[g], phi)
                rhs = cat.compose(eqcat.laction.rho(g).apply(phi), src.alpha[g])
                for dkey, val in (lhs - rhs).coeffs.items():
                    col[rows.setdefault((gi, dkey), len(rows))] = val
            cols.append(col)
        _, kernel = rank_kernel_image(SparseMatrix(len(rows), len(keys), cols))
        basis = [{keys[i]: vec[i] for i in sorted(vec)} for vec in kernel]
        if basis:
            solved[deg] = basis
    return solved


def reference_equivariant_comp_table(eqcat, xn, yn, zn):
    """The composition table of eqcat.category on (xn, yn, zn): embed each
    pair of basis morphisms, compose them in the ambient category and
    restrict the product."""
    cat = eqcat.ambient
    table = {}
    for gkey in eqcat._solved[(xn, yn)]:
        gmor = eqcat.embed(Mor(xn, yn, {gkey: cat.field.one}), xn, yn)
        for fkey in eqcat._solved[(yn, zn)]:
            fmor = eqcat.embed(Mor(yn, zn, {fkey: cat.field.one}), yn, zn)
            restricted = eqcat.restrict(cat.compose(fmor, gmor), xn, zn)
            assert restricted is not None
            if not restricted.is_zero():
                table[(gkey, fkey)] = restricted.coeffs
    return table


# The same two equivariant loops on the tables as they are stored, with
# field scalars throughout, against which the int reads are checked.


def fraction_solve_pair(eqcat, src, tgt):
    """EquivariantCategory._solve_pair on the tables as stored (field
    scalars throughout): the same stacked elements, loops, summation order,
    first-seen row numbering and hom-key order, with no entry read as
    ints."""
    cat = eqcat.laction.category
    c, c2 = src.underlying, tgt.underlying
    space = cat.hom(c, c2)
    if not space.total_dim():
        return {}
    per_g = []
    for g in eqcat._conditions:
        rho = eqcat.laction.rho(g)
        a_src, a_tgt = src.alpha[g], tgt.alpha[g]
        per_g.append((
            rho,
            cat.comp_table(c, c2, a_tgt.tgt),
            list(a_tgt.coeffs.items()),
            cat.comp_table(a_src.src, a_src.tgt, rho.apply_obj(c2)),
            list(a_src.coeffs.items()),
        ))
    solved = {}
    for deg in space.degrees():
        keys = [(deg, lab) for lab in space.labels(deg)]
        rows = {}
        matrix_cols = []
        for key in keys:
            col = {}
            for gi, (rho, lhs_table, a_tgt, rhs_table, a_src) in enumerate(per_g):
                lhs = {}
                for ak, ca in a_tgt:
                    prod = lhs_table.get((key, ak))
                    if prod:
                        vec_axpy(lhs, ca, prod)
                rhs = {}
                image = rho.image(c, c2, key).coeffs.items()
                for ak, ca in a_src:
                    for rk, cr in image:
                        prod = rhs_table.get((ak, rk))
                        if prod:
                            vec_axpy(rhs, ca * cr, prod)
                for dkey, val in vec_axpy(lhs, -1, rhs).items():
                    col[rows.setdefault((gi, dkey), len(rows))] = val
            matrix_cols.append(col)
        _, kernel = rank_kernel_image(SparseMatrix(len(rows), len(keys), matrix_cols), cat.field)
        basis = [{keys[i]: vec[i] for i in sorted(vec)} for vec in kernel]
        if basis:
            solved[deg] = basis
    return solved


def fraction_comp_table(eqcat, xn, yn, zn):
    """The equivariant composition table on (xn, yn, zn) as the category's
    comp_builder forms it, on the tables as stored (field scalars)."""
    cat = eqcat.ambient
    gs, fs = eqcat._solved[(xn, yn)], eqcat._solved[(yn, zn)]
    if not (gs and fs):
        return {}
    x, z = eqcat.roster[xn].underlying, eqcat.roster[zn].underlying
    amb = cat.comp_table(x, eqcat.roster[yn].underlying, z)
    table = {}
    for gkey, gcoeffs in gs.items():
        for fkey, fcoeffs in fs.items():
            prod = {}
            for gk, cg in gcoeffs.items():
                for fk, cf in fcoeffs.items():
                    entry = amb.get((gk, fk))
                    if entry:
                        vec_axpy(prod, cg * cf, entry)
            restricted = eqcat.restrict(Mor(x, z, prod), xn, zn)
            assert restricted is not None
            if not restricted.is_zero():
                table[(gkey, fkey)] = restricted.coeffs
    return table


def reference_induced_chain(induced, k, idx):
    """InducedMap._compute with phi applied to each slot's basis morphism."""
    chain = induced.src.chains_at(k)[idx]
    objs = chain.objects
    imgs = [induced.phi.apply(s) for s in _basis_slots(induced.src, chain)]
    imgs[0] = induced.tgt.category.compose(induced.eps.at(objs[0]), imgs[0])
    # _add_image reads the object cycle off the slots; check it against phi
    assert (imgs[-1].src,) + tuple(m.tgt for m in imgs[1:]) == tuple(
        induced.phi.apply_obj(c) for c in objs
    )
    out = {}
    induced.tgt._add_image(out, k, imgs, 1)
    return out


class NormalizationMap(ChainMap):
    """The quotient map π from a standard window onto the normalized window
    of the same category, functor and degrees: a pivot key in a normalized
    slot goes to its class in End(x)/k·id_x, every other key to itself."""

    def _compute(self, k, idx):
        objs, keys = self.src.chains_at(k)[idx]
        one = self.src.field.one
        mors = []
        for t, ((x, y), key) in enumerate(zip(self.src._slot_pairs(objs), keys)):
            pivot = self.tgt.pivots.get(x) if t and x == y else None
            coeffs = pivot[1] if pivot is not None and key == pivot[0] else {key: one}
            mors.append(Mor(x, y, coeffs))
        out = {}
        self.tgt._add_image(out, k, mors, 1)
        return out


def cyclic_group_document(seed, n=6):
    """The one-object group algebra k[Z/n] as a document.  The seed picks a
    unit u mod n, names g^i "g<u·i mod n>" (g^0 is "1") and shuffles the
    basis and composition lists, so every seed describes the same algebra."""
    rng = random.Random(seed)
    u = rng.choice([a for a in range(1, n) if gcd(a, n) == 1])

    def label(i):
        j = (u * i) % n
        return "1" if j == 0 else f"g{j}"

    basis = [{"label": label(i), "degree": 0} for i in range(n)]
    rng.shuffle(basis)
    compositions = [
        {
            "source": "pt",
            "middle": "pt",
            "target": "pt",
            "first": label(a),
            "then": label(b),
            "result": {label(a + b): "1"},
        }
        for a in range(1, n)
        for b in range(1, n)
    ]
    rng.shuffle(compositions)
    return {
        "schema": "equihh-schema-1",
        "name": f"Z{n}-seed{seed}",
        "field": "q",
        "category": {
            "objects": ["pt"],
            "homs": [{"source": "pt", "target": "pt", "basis": basis}],
            "compositions": compositions,
            "units": {"pt": {"1": "1"}},
        },
        "params": {"degrees": [-3, 0]},
    }
