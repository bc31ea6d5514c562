"""Windowed twisted Hochschild complexes and the chain-level toolkit.

The standard complex of a category with endofunctor F has chains
a0[a1|...|an] with a0: c1 → F(c0), ai: c_{i+1} → c_i, an: c0 → c_n.  The
bar differential is

    d2(a0[a1|...|an]) = a0 a1[a2|...|an]
                      + sum_i (-1)^i a0[...|a_i a_{i+1}|...]
                      + (-1)^{n + |a_n|(|a_0|+...+|a_{n-1}|)} F(a_n) a0[a1|...|a_{n-1}]

and the total differential twists the internal differential d1 by (-1)^n,
giving a cohomological complex graded by (internal degree) - (bar degree).
A window stores the degrees [lo, hi]; the certification flag is Exact when
the hom-degree bounds prove only finitely many bar degrees reach the
window, else TruncatedAt(cap).

Everything downstream (induced maps, their composition and conjugation
laws, homotopy certificates, the trace decomposition, the shuffle map and
the centralizer action) operates on these windows with exact arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    compose_functors,
    parity_sign,
    validate_nat,
)
from .errors import StructureError, TruncationError, WindowError
from .linalg import (
    Echelon,
    SparseMatrix,
    rank_kernel_image,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class Certification:
    kind: str  # "exact" | "truncated"
    bound: int  # max bar degree used / the cap

    @property
    def exact(self):
        return self.kind == "exact"

    def describe(self):
        return "Exact" if self.exact else f"TruncatedAt({self.bound})"


class Chain:
    """A basis chain: the object cycle and one basis key per slot."""

    __slots__ = ("objects", "keys")

    def __init__(self, objects, keys):
        self.objects = tuple(objects)
        self.keys = tuple(keys)

    @property
    def bar_degree(self):
        return len(self.keys) - 1

    @property
    def total_degree(self):
        return sum(k[0] for k in self.keys) - self.bar_degree

    def __eq__(self, other):
        return self.objects == other.objects and self.keys == other.keys

    def __hash__(self):
        return hash((self.objects, self.keys))

    def __repr__(self):
        return f"Chain({self.objects}, {self.keys})"


class WindowBase:
    """Shared homology machinery over per-degree chain bases."""

    def chains_at(self, k):
        return self._chains.get(k, [])

    def dim(self, k):
        return len(self.chains_at(k))

    def differential(self, k) -> SparseMatrix:
        raise NotImplementedError

    def in_window(self, k):
        return self.lo <= k <= self.hi

    def homology(self, k):
        basis = self.homology_basis(k)
        return len(basis.reps), basis.reps

    def homology_basis(self, k):
        if not (self.lo <= k - 1 and k + 1 <= self.hi):
            raise WindowError(
                f"homology at {k} needs degrees {k - 1}..{k + 1} inside [{self.lo}, {self.hi}]"
            )
        if k not in self._homology:
            _, cycles, _ = rank_kernel_image(self.differential(k))
            ech = Echelon()
            d_prev = self.differential(k - 1)
            for j in range(d_prev.ncols):
                ech.add(d_prev.cols[j], tag=None)
            reps = []
            for cyc in cycles:
                residual, _ = ech.add(cyc, tag=len(reps))
                if residual:
                    reps.append(cyc)
            self._homology[k] = HomologyBasis(self, k, reps, ech)
        return self._homology[k]

    def verify_d_squared(self):
        """(instances checked, list of violations (degree, column))."""
        bad = []
        count = 0
        for k in range(self.lo, self.hi - 1):
            prod = self.differential(k + 1) * self.differential(k)
            count += self.dim(k)
            for j, col in enumerate(prod.cols):
                if not vec_is_zero(col):
                    bad.append((k, j))
        return count, bad


class HomologyBasis:
    """Cycle representatives extending an echelon of the boundaries; the
    echelon tags recover class coordinates."""

    def __init__(self, window, degree, reps, echelon):
        self.window = window
        self.degree = degree
        self.reps = reps
        self._ech = echelon

    @property
    def dim(self):
        return len(self.reps)

    def express(self, vec):
        """Coordinates of a cycle's class over the representatives, or
        None if the vector is not a cycle-plus-boundary combination.

        Stored echelon columns are mutually reduced mixtures, so the class
        coordinates are read off the tracked generator combinations (all
        boundary generators share the tag None and are dropped).
        """
        coords = self._ech.express(vec)
        if coords is None:
            return None
        out = {}
        for pos, c in coords.items():
            for tag, w in self._ech.combos[pos].items():
                if tag is None:
                    continue
                s = out.get(tag, 0) + c * w
                if s:
                    out[tag] = s
                elif tag in out:
                    del out[tag]
        return out


class HochschildWindow(WindowBase):
    def __init__(self, category, functor, lo, hi, bar_cap=None, build=True):
        self.category = category
        self.functor = functor
        self.lo = lo
        self.hi = hi
        self.bar_cap = bar_cap
        self._chains = {}
        self._index = {}
        self._d1 = {}
        self._d2 = {}
        self._total = {}
        self._homology = {}
        self.certification = self._certify()
        if build:
            self._enumerate()
            self._differentials()

    # -- construction ---------------------------------------------------

    def _certify(self) -> Certification:
        a, b = self.category.min_max_degree()
        if a is None:
            return Certification("exact", -1)
        self._bounds = (a, b)
        lo, hi = self.lo, self.hi

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
            if self.bar_cap is not None and m_max > self.bar_cap:
                raise TruncationError(
                    f"window is exact up to bar degree {m_max} but the cap is {self.bar_cap}"
                )
            self.bar_degrees = [m for m in range(m_max + 1) if touches(m)]
            return Certification("exact", m_max)
        if self.bar_cap is None:
            raise TruncationError(
                "window has unbounded bar degrees; a bar cap is required"
            )
        self.bar_degrees = [m for m in range(self.bar_cap + 1) if touches(m)]
        return Certification("truncated", self.bar_cap)

    def _slot_pairs(self, objs):
        """Hom pairs for the slots of an object cycle (c0, ..., cm)."""
        m = len(objs) - 1
        fobj = self.functor.apply_obj(objs[0])
        if m == 0:
            return [(objs[0], fobj)]
        pairs = [(objs[1], fobj)]
        for i in range(1, m):
            pairs.append((objs[i + 1], objs[i]))
        pairs.append((objs[0], objs[m]))
        return pairs

    def _enumerate(self):
        cat = self.category
        objects = cat.objects
        for k in range(self.lo, self.hi + 1):
            self._chains[k] = []
        for m in self.bar_degrees:
            for objs in self._object_cycles(m):
                pairs = self._slot_pairs(objs)
                keylists = []
                ok = True
                for (x, y) in pairs:
                    keys = list(cat.basis_keys(x, y))
                    if not keys:
                        ok = False
                        break
                    keylists.append(keys)
                if not ok:
                    continue
                mins = [min(k[0] for k in keys) for keys in keylists]
                maxs = [max(k[0] for k in keys) for keys in keylists]
                suffix_min = [0] * (len(keylists) + 1)
                suffix_max = [0] * (len(keylists) + 1)
                for i in range(len(keylists) - 1, -1, -1):
                    suffix_min[i] = suffix_min[i + 1] + mins[i]
                    suffix_max[i] = suffix_max[i + 1] + maxs[i]

                def emit(pos, acc, chosen):
                    if pos == len(keylists):
                        k = acc - m
                        if self.in_window(k):
                            self._chains[k].append(Chain(objs, chosen))
                        return
                    for key in keylists[pos]:
                        lo_rest = acc + key[0] + suffix_min[pos + 1]
                        hi_rest = acc + key[0] + suffix_max[pos + 1]
                        if lo_rest - m > self.hi or hi_rest - m < self.lo:
                            continue
                        emit(pos + 1, acc + key[0], chosen + (key,))

                emit(0, 0, ())
        for k, chains in self._chains.items():
            self._index[k] = {c: i for i, c in enumerate(chains)}

    def _object_cycles(self, m):
        cat = self.category
        if not cat.objects:
            return
        nonzero = {}
        for x, y in itertools.product(cat.objects, repeat=2):
            if cat.hom(x, y).total_dim():
                nonzero[(x, y)] = True
        for c0 in cat.objects:
            fc0 = self.functor.apply_obj(c0)
            if m == 0:
                if (c0, fc0) in nonzero:
                    yield (c0,)
                continue
            for c1 in cat.objects:
                if (c1, fc0) in nonzero:
                    yield from self._walk_cycle(c0, [c1], m, nonzero)

    def _walk_cycle(self, c0, path, m, nonzero):
        i = len(path)  # path holds c_1..c_i
        if i == m:
            if (c0, path[-1]) in nonzero:
                yield tuple([c0] + path)
            return
        for nxt in self.category.objects:
            if (nxt, path[-1]) in nonzero:
                yield from self._walk_cycle(c0, path + [nxt], m, nonzero)

    def _mor(self, x, y, key):
        return self.category.basis_mor(x, y, *key)

    def _add_image(self, out, objs, mors, sign):
        """Accumulate the multilinear expansion of per-slot morphisms into
        the chain-index vector ``out``; unseen in-window targets are an error."""
        items = [list(m.coeffs.items()) for m in mors]
        if any(not it for it in items):
            return
        for combo in itertools.product(*items):
            keys = tuple(k for k, _ in combo)
            coeff = None
            for _, c in combo:
                coeff = c if coeff is None else coeff * c
            chain = Chain(objs, keys)
            k = chain.total_degree
            idx = self._index.get(k, {}).get(chain)
            if idx is None:
                if self.in_window(k):
                    raise StructureError(f"image chain missing from window: {chain}")
                continue
            prev = out.get(idx)
            val = sign * coeff if prev is None else prev + sign * coeff
            if val:
                out[idx] = val
            elif prev is not None:
                del out[idx]

    def _d2_chain(self, chain: Chain):
        cat = self.category
        out = {}
        m = chain.bar_degree
        if m == 0:
            return out
        objs = chain.objects
        pairs = self._slot_pairs(objs)
        slots = [self._mor(x, y, key) for (x, y), key in zip(pairs, chain.keys)]
        degs = [key[0] for key in chain.keys]
        # i = 0: a0 a1
        prod = cat.compose(slots[0], slots[1])
        new_objs = (objs[0],) + objs[2:]
        self._add_image(out, new_objs, [prod] + list(slots[2:]), 1)
        # middle terms
        for i in range(1, m):
            prod = cat.compose(slots[i], slots[i + 1])
            new_objs = objs[: i + 1] + objs[i + 2 :]
            mors = list(slots[:i]) + [prod] + list(slots[i + 2 :])
            self._add_image(out, new_objs, mors, parity_sign(i))
        # last term: F(a_m) a0
        f_last = self.functor.apply(slots[m])
        prod = cat.compose(f_last, slots[0])
        new_objs = (objs[m],) + objs[1:m]
        mors = [prod] + list(slots[1:m])
        sign = parity_sign(m + degs[m] * sum(degs[:m]))
        self._add_image(out, new_objs, mors, sign)
        return out

    def _d1_chain(self, chain: Chain):
        cat = self.category
        out = {}
        objs = chain.objects
        pairs = self._slot_pairs(objs)
        slots = [self._mor(x, y, key) for (x, y), key in zip(pairs, chain.keys)]
        degs = [key[0] for key in chain.keys]
        prefix = 0
        for t, slot in enumerate(slots):
            dslot = cat.d(slot)
            if not dslot.is_zero():
                mors = list(slots)
                mors[t] = dslot
                self._add_image(out, objs, mors, parity_sign(prefix))
            prefix += degs[t]
        return out

    def _differentials(self):
        for k in range(self.lo, self.hi):
            n = self.dim(k)
            nt = self.dim(k + 1)
            d1 = SparseMatrix(nt, n)
            d2 = SparseMatrix(nt, n)
            total = SparseMatrix(nt, n)
            for j, chain in enumerate(self.chains_at(k)):
                col1 = self._d1_chain(chain)
                col2 = self._d2_chain(chain)
                if col1:
                    d1.cols[j] = col1
                if col2:
                    d2.cols[j] = col2
                tw = parity_sign(chain.bar_degree)
                total.cols[j] = vec_add(col2, vec_scale(tw, col1))
            self._d1[k] = d1
            self._d2[k] = d2
            self._total[k] = total

    # -- interface --------------------------------------------------------

    def differential(self, k) -> SparseMatrix:
        if k in self._total:
            return self._total[k]
        return SparseMatrix(self.dim(k + 1), self.dim(k))

    def d1_matrix(self, k):
        return self._d1.get(k, SparseMatrix(self.dim(k + 1), self.dim(k)))

    def d2_matrix(self, k):
        return self._d2.get(k, SparseMatrix(self.dim(k + 1), self.dim(k)))

    def verify_sign_identities(self):
        """d2^2 = 0 and d1 d2 = d2 d1 on all stored composable degrees."""
        issues = []
        for k in range(self.lo, self.hi - 1):
            if not (self.d2_matrix(k + 1) * self.d2_matrix(k)).is_zero():
                issues.append(("d2_squared", k))
            lhs = self.d1_matrix(k + 1) * self.d2_matrix(k)
            rhs = self.d2_matrix(k + 1) * self.d1_matrix(k)
            if not lhs == rhs:
                issues.append(("d1_d2_commute", k))
        return issues


def build_window(category, functor, lo, hi, bar_cap=None) -> HochschildWindow:
    """Spec entry point: the windowed total complex with its flag."""
    if functor.src is not category or functor.tgt is not category:
        raise StructureError("twist functor must be an endofunctor of the category")
    return HochschildWindow(category, functor, lo, hi, bar_cap=bar_cap)


def hh_dimensions(category, functor, degrees, bar_cap=None):
    """Dimension table {degree: dim} plus cycle bases and the flag.

    Reported degrees are cohomological; the homological index is the
    negative (HH_i is the degree -i entry).
    """
    lo, hi = min(degrees) - 1, max(degrees) + 1
    win = build_window(category, functor, lo, hi, bar_cap=bar_cap)
    dims = {}
    reps = {}
    for k in sorted(degrees):
        dims[k], reps[k] = win.homology(k)
    return {"dims": dims, "reps": reps, "window": win, "certification": win.certification}


# ---------------------------------------------------------------------------
# chain maps


class ChainMap:
    """Degree-preserving linear map between windows, evaluated lazily on
    basis chains and cached."""

    def __init__(self, src: WindowBase, tgt: WindowBase, name=""):
        self.src = src
        self.tgt = tgt
        self.name = name
        self._cache = {}

    def apply_chain(self, k, idx):
        key = (k, idx)
        if key not in self._cache:
            self._cache[key] = self._compute(k, idx)
        return self._cache[key]

    def _compute(self, k, idx):
        raise NotImplementedError

    def apply_vec(self, k, vec):
        out = {}
        for idx, c in vec.items():
            out = vec_add(out, vec_scale(c, self.apply_chain(k, idx)))
        return out

    def matrix(self, k) -> SparseMatrix:
        m = SparseMatrix(self.tgt.dim(k), self.src.dim(k))
        for j in range(self.src.dim(k)):
            col = self.apply_chain(k, j)
            if col:
                m.cols[j] = col
        return m

    def homology_matrix(self, k) -> SparseMatrix:
        hb_src = self.src.homology_basis(k)
        hb_tgt = self.tgt.homology_basis(k)
        out = SparseMatrix(hb_tgt.dim, hb_src.dim)
        for j, rep in enumerate(hb_src.reps):
            img = self.apply_vec(k, rep)
            coords = hb_tgt.express(img)
            if coords is None:
                raise StructureError(
                    f"image of a cycle under {self.name} is not a cycle modulo boundaries"
                )
            out.cols[j] = coords
        return out

    def verify_chain_map(self, per_degree_limit=None):
        """Check T(Dx) = D'(Tx) on basis chains of stored degrees; the
        deterministic prefix of each degree when a budget is given."""
        failures = []
        checked = 0
        for k in range(self.src.lo, self.src.hi):
            if not (self.tgt.lo <= k and k + 1 <= self.tgt.hi):
                continue
            n = self.src.dim(k)
            limit = n if per_degree_limit is None else min(n, per_degree_limit)
            d_src = self.src.differential(k)
            for j in range(limit):
                lhs = self.apply_vec(k + 1, d_src.cols[j])
                rhs = self.tgt.differential(k).apply(self.apply_chain(k, j))
                if not vec_is_zero(vec_sub(lhs, rhs)):
                    failures.append((k, j))
                checked += 1
        return checked, failures


class InducedMap(ChainMap):
    """(phi, eps)_*: applies phi to every slot and eps at the twist slot:
    a0[a1|...|an] -> eps_{c0} phi(a0)[phi(a1)|...|phi(an)]."""

    def __init__(self, src, tgt, phi: DgFunctor, eps: NatTransform, name="", check_eps=False):
        super().__init__(src, tgt, name=name or f"({phi.name},{eps.name})*")
        self.phi = phi
        self.eps = eps
        if check_eps:
            report = validate_nat(eps)
            if not report.ok:
                raise StructureError(report.summary())

    def _compute(self, k, idx):
        chain = self.src.chains_at(k)[idx]
        cat_t = self.tgt.category
        objs = chain.objects
        pairs = self.src._slot_pairs(objs)
        slots = [
            self.src.category.basis_mor(x, y, *key)
            for (x, y), key in zip(pairs, chain.keys)
        ]
        imgs = [self.phi.apply(s) for s in slots]
        imgs[0] = cat_t.compose(self.eps.at(objs[0]), imgs[0])
        new_objs = tuple(self.phi.apply_obj(c) for c in objs)
        out = {}
        self.tgt._add_image(out, new_objs, imgs, 1)
        return out


class ComposedMap(ChainMap):
    def __init__(self, outer: ChainMap, inner: ChainMap, name=""):
        super().__init__(inner.src, outer.tgt, name=name or f"{outer.name}∘{inner.name}")
        self.outer = outer
        self.inner = inner

    def _compute(self, k, idx):
        return self.outer.apply_vec(k, self.inner.apply_chain(k, idx))


class LinearComboMap(ChainMap):
    def __init__(self, src, tgt, parts, name="Σ"):
        super().__init__(src, tgt, name=name)
        self.parts = parts  # list of (scalar, ChainMap)

    def _compute(self, k, idx):
        out = {}
        for c, part in self.parts:
            out = vec_add(out, vec_scale(c, part.apply_chain(k, idx)))
        return out


def eps_star(outer_phi, outer_eps, inner_phi, inner_eps, name=None) -> NatTransform:
    """The composite twist for (psi,eps)∘(phi,eta): eps_phi ∘ psi(eta)."""
    cat = outer_phi.tgt
    comps = {}
    for c in inner_phi.src.objects:
        comps[c] = cat.compose(
            outer_eps.at(inner_phi.apply_obj(c)), outer_phi.apply(inner_eps.at(c))
        )
    return NatTransform(
        inner_eps.src,
        inner_eps.tgt,
        comps,
        name=name or f"{outer_eps.name}⋆{inner_eps.name}",
    )


def compose_induced(outer: InducedMap, inner: InducedMap, verify=True):
    """Chain-level functoriality: the composite of induced maps equals the
    induced map of the composite with the star twist, entry-exactly.

    Returns (combined InducedMap, composed ChainMap, mismatches).
    """
    phi = compose_functors(outer.phi, inner.phi)
    eps = eps_star(outer.phi, outer.eps, inner.phi, inner.eps)
    combined = InducedMap(inner.src, outer.tgt, phi, eps, name=f"({phi.name})*")
    composed = ComposedMap(outer, inner)
    mismatches = []
    if verify:
        for k in range(inner.src.lo, inner.src.hi + 1):
            for j in range(inner.src.dim(k)):
                a = combined.apply_chain(k, j)
                b = composed.apply_chain(k, j)
                if not vec_is_zero(vec_sub(a, b)):
                    mismatches.append((k, j))
    return combined, composed, mismatches


# ---------------------------------------------------------------------------
# homotopies


class HomotopyCertificate:
    """A degree -1 map H with dH + Hd = f - g checked entry-exactly on the
    interior degrees of the window; boundary degrees are recorded."""

    def __init__(self, f: ChainMap, g: ChainMap, h_map, name=""):
        self.f = f
        self.g = g
        self.h = h_map  # callable (k, chain index) -> vector at degree k-1
        self.name = name
        self.checked_degrees = []
        self.failures = []

    def h_vec(self, k, vec):
        out = {}
        for idx, c in vec.items():
            out = vec_add(out, vec_scale(c, self.h(k, idx)))
        return out

    def check(self, degrees=None):
        src, tgt = self.f.src, self.f.tgt
        if degrees is None:
            degrees = [
                k
                for k in range(src.lo, src.hi + 1)
                if k - 1 >= tgt.lo and k + 1 <= src.hi and k <= tgt.hi
            ]
        ok = True
        for k in degrees:
            for j in range(src.dim(k)):
                dh = tgt.differential(k - 1).apply(self.h(k, j))
                if k < src.hi:
                    hd = self.h_vec(k + 1, src.differential(k).cols[j])
                else:
                    hd = {}
                want = vec_sub(
                    self.f.apply_chain(k, j), self.g.apply_chain(k, j)
                )
                if not vec_is_zero(vec_sub(vec_add(dh, hd), want)):
                    self.failures.append((k, j))
                    ok = False
            self.checked_degrees.append(k)
        return ok


def conjugate_transport(induced: InducedMap, alpha: NatTransform, psi: DgFunctor):
    """Transport (phi, eta)_* along an isomorphism alpha: phi ⇒ psi.

    Returns (transported InducedMap for (psi, alpha·eta·alpha^{-1}),
    HomotopyCertificate with the explicit insertion homotopy).
    """
    src, tgt = induced.src, induced.tgt
    cat_t = tgt.category
    phi = induced.phi
    eta = induced.eps
    f_twist = induced.src.functor

    alpha_inv_at = {}

    def alpha_inv(c):
        if c not in alpha_inv_at:
            inv = cat_t.invert(alpha.at(c))
            if inv is None:
                raise StructureError(f"transport isomorphism not invertible at {c}")
            alpha_inv_at[c] = inv
        return alpha_inv_at[c]

    conj_comps = {}
    for c in phi.src.objects:
        fc = f_twist.apply_obj(c)
        ftgt = induced.tgt.functor
        conj_comps[c] = cat_t.compose(
            ftgt.apply(alpha.at(c)), cat_t.compose(eta.at(c), alpha_inv(fc))
        )
    conj = NatTransform(eta.src, eta.tgt, conj_comps, name=f"{alpha.name}·{eta.name}·{alpha.name}^-1")
    transported = InducedMap(src, tgt, psi, conj, name=f"({psi.name},conj)*")

    def h_map(k, idx):
        chain = src.chains_at(k)[idx]
        objs = chain.objects
        m = chain.bar_degree
        pairs = src._slot_pairs(objs)
        slots = [src.category.basis_mor(x, y, *key) for (x, y), key in zip(pairs, chain.keys)]
        ftgt = induced.tgt.functor
        out = {}
        for i in range(m + 1):
            first = cat_t.compose(
                eta.at(objs[0]),
                cat_t.compose(alpha_inv(f_twist.apply_obj(objs[0])), psi.apply(slots[0])),
            )
            mors = [first]
            mors += [psi.apply(slots[t]) for t in range(1, i + 1)]
            cut = objs[(i + 1) % (m + 1)]
            mors.append(alpha.at(cut))
            mors += [phi.apply(slots[t]) for t in range(i + 1, m + 1)]
            new_objs = (
                (phi.apply_obj(objs[0]),)
                + tuple(psi.apply_obj(objs[t]) for t in range(1, i + 2) if t <= m)
                + ((psi.apply_obj(objs[0]),) if i == m else ())
                + tuple(phi.apply_obj(objs[t]) for t in range(i + 1, m + 1))
            )
            tgt._add_image(out, new_objs, mors, parity_sign(i))
        return out

    cert = HomotopyCertificate(induced, transported, h_map, name=f"transport along {alpha.name}")
    return transported, cert


# ---------------------------------------------------------------------------
# trace decomposition (direct sums of functors)


def block_projection(cat: DgCategory, summands, i):
    """pi_i: concat(summands) -> summands[i] as a hull morphism; entries
    are the component units read off the whole object's unit."""
    whole = sum(summands, ())
    off = sum(len(s) for s in summands[:i])
    part = summands[i]
    coeffs = {}
    for (deg, (a, b, lab)), c in cat.units[whole].items():
        if a == b and off <= a < off + len(part):
            coeffs[(deg, (a - off, a, lab))] = c
    return Mor(whole, part, coeffs)


def block_inclusion(cat: DgCategory, summands, i):
    whole = sum(summands, ())
    off = sum(len(s) for s in summands[:i])
    part = summands[i]
    coeffs = {}
    for (deg, (a, b, lab)), c in cat.units[whole].items():
        if a == b and off <= a < off + len(part):
            coeffs[(deg, (a, a - off, lab))] = c
    return Mor(part, whole, coeffs)


def nat_block(cat: DgCategory, eps: NatTransform, summands, i, j, f_twist=None, f_prime=None):
    """Block (i, j) of a twist eps: (⊕A)∘F ⇒ F'∘(⊕A), per object:
    pi_i ∘ eps_c ∘ iota_j, where the source decomposes at F(c) and the
    target under F'."""

    def at(c):
        fc = f_twist.apply_obj(c) if f_twist is not None else c
        src_parts = [f.apply_obj(fc) for f in summands]
        tgt_parts = [f.apply_obj(c) for f in summands]
        if f_prime is not None:
            tgt_parts = [f_prime.apply_obj(p) for p in tgt_parts]
        return cat.compose(
            block_projection(cat, tgt_parts, i),
            cat.compose(eps.at(c), block_inclusion(cat, src_parts, j)),
        )

    return at


class FormulaHomotopy(ChainMap):
    """Wrapper giving homotopy callables the ChainMap caching interface."""

    def __init__(self, src, tgt, fn, name="H"):
        super().__init__(src, tgt, name=name)
        self._fn = fn

    def _compute(self, k, idx):
        return self._fn(k, idx)


def trace_summand_homotopy(window_src, window_tgt, summand_functors, eta, total_functor, i):
    """The insertion homotopy for one diagonal summand of a direct-sum
    functor: conjugated prefix on total-functor objects, a pure inclusion
    slot, then the plain summand tail; signs (-1)^j over the insertion
    position."""
    cat_t = window_tgt.category
    a_i = summand_functors[i]
    f_twist = window_src.functor
    ftgt = window_tgt.functor

    def parts_at(c):
        return [f.apply_obj(c) for f in summand_functors]

    def eta_block_at(c):
        return nat_block(cat_t, eta, summand_functors, i, i, f_twist, ftgt)(c)

    def h(k, idx):
        chain = window_src.chains_at(k)[idx]
        objs = chain.objects
        m = chain.bar_degree
        pairs = window_src._slot_pairs(objs)
        slots = [
            window_src.category.basis_mor(x, y, *key)
            for (x, y), key in zip(pairs, chain.keys)
        ]
        out = {}
        total_obj = lambda c: total_functor.apply_obj(c)
        for j in range(m + 1):
            first = cat_t.compose(
                eta_block_at(objs[0]),
                cat_t.compose(
                    a_i.apply(slots[0]),
                    block_projection(cat_t, parts_at(objs[1 % (m + 1)]), i),
                ),
            )
            mors = [first]
            for t in range(1, j + 1):
                conj = cat_t.compose(
                    block_inclusion(cat_t, parts_at(objs[t]), i),
                    cat_t.compose(
                        a_i.apply(slots[t]),
                        block_projection(cat_t, parts_at(objs[(t + 1) % (m + 1)]), i),
                    ),
                )
                mors.append(conj)
            cut = objs[(j + 1) % (m + 1)]
            mors.append(block_inclusion(cat_t, parts_at(cut), i))
            for t in range(j + 1, m + 1):
                mors.append(a_i.apply(slots[t]))
            new_objs = (
                (a_i.apply_obj(objs[0]),)
                + tuple(total_obj(objs[t]) for t in range(1, j + 2) if t <= m)
                + ((total_obj(objs[0]),) if j == m else ())
                + tuple(a_i.apply_obj(objs[t]) for t in range(j + 1, m + 1))
            )
            window_tgt._add_image(out, new_objs, mors, parity_sign(j))
        return out

    return h


def solve_homotopy(residual: ChainMap, degrees=None, name="H_solved"):
    """Find H with dH + Hd = residual inside the window by exact linear
    solving (top degree downward, a joint solve at the top step).

    Returns a FormulaHomotopy-backed callable or None when no windowed
    homotopy exists.
    """
    src, tgt = residual.src, residual.tgt
    if degrees is None:
        degrees = [
            k for k in range(src.lo + 1, src.hi) if k - 1 >= tgt.lo and k <= tgt.hi
        ]
    if not degrees:
        return FormulaHomotopy(src, tgt, lambda k, idx: {}, name=name)
    h_cols = {}  # degree k -> list of vectors (per source chain) at k-1

    top = max(degrees)
    # joint solve at the top: unknowns H_top and H_{top+1}
    unknown_cols = []
    tags = []
    d_tgt = tgt.differential(top - 1)
    n_top = src.dim(top)
    n_up = src.dim(top + 1) if top + 1 <= src.hi else 0
    dim_tgt_tm1 = tgt.dim(top - 1)
    dim_tgt_t = tgt.dim(top)
    d_src_top = src.differential(top) if top + 1 <= src.hi else None

    def eq_index(x_idx, row):
        return x_idx * dim_tgt_t + row

    def eq_rows_of(x, vec):
        return {eq_index(x, r): v for r, v in vec.items()}

    for x in range(n_top):
        for t in range(dim_tgt_tm1):
            col = eq_rows_of(x, d_tgt.cols[t])
            if col:
                unknown_cols.append(col)
                tags.append(("top", x, t))
    for xu in range(n_up):
        for t in range(dim_tgt_t):
            col = {}
            for x in range(n_top):
                c = d_src_top.cols[x].get(xu)
                if c:
                    col[eq_index(x, t)] = c
            if col:
                unknown_cols.append(col)
                tags.append(("up", xu, t))
    ech = Echelon()
    for pos, col in enumerate(unknown_cols):
        ech.add(col, tag=pos)
    rhs = {}
    for x in range(n_top):
        rhs.update(eq_rows_of(x, residual.apply_chain(top, x)))
    coords = ech.express(rhs)
    if coords is None:
        return None
    sol = {}
    for pos, c in coords.items():
        for tag, w in ech.combos[pos].items():
            sol[tag] = sol.get(tag, 0) + c * w
    h_cols[top] = [dict() for _ in range(n_top)]
    h_cols[top + 1] = [dict() for _ in range(n_up)]
    for pos, value in sol.items():
        kind, x, t = tags[pos]
        if not value:
            continue
        if kind == "top":
            h_cols[top][x][t] = value
        else:
            h_cols[top + 1][x][t] = value

    # sweep downward: d H_k = residual_k - H_{k+1} d
    for k in sorted([d for d in degrees if d < top], reverse=True):
        n_k = src.dim(k)
        d_tgt_k = tgt.differential(k - 1)
        ech_k = Echelon()
        for j in range(d_tgt_k.ncols):
            ech_k.add(d_tgt_k.cols[j], tag=j)
        cols = []
        upper = h_cols.get(k + 1)
        d_src_k = src.differential(k)
        for x in range(n_k):
            target = residual.apply_chain(k, x)
            if upper is not None:
                carried = {}
                for xu, c in d_src_k.cols[x].items():
                    carried = vec_add(carried, vec_scale(c, upper[xu]))
                target = vec_sub(target, carried)
            coords = ech_k.express(target)
            if coords is None:
                return None
            col = {}
            for pos, c in coords.items():
                for tag, w in ech_k.combos[pos].items():
                    col[tag] = col.get(tag, 0) + c * w
            cols.append({t: v for t, v in col.items() if v})
        h_cols[k] = cols

    def h(k, idx):
        cols = h_cols.get(k)
        if cols is None or idx >= len(cols):
            return {}
        return cols[idx]

    return FormulaHomotopy(src, tgt, h, name=name)


def verify_trace_decomposition(
    window_src,
    window_tgt,
    total_functor,
    eta: NatTransform,
    summands,
    degrees,
    certificates=True,
):
    """Check (⊕A_i, eta)_* ≃ Σ_i (A_i, eta_ii)_* as homology matrices and
    (optionally) produce a homotopy certificate.

    ``summands`` is a list of (functor A_i, eta_ii NatTransform or None);
    a None diagonal twist means the block must be zero and the summand is
    dropped from the sum.  The homotopy is the per-summand insertion
    formula plus an exactly solved correction for the off-diagonal terms.
    """
    cat_t = window_tgt.category
    field = cat_t.field
    total_map = InducedMap(window_src, window_tgt, total_functor, eta, name="(⊕A,η)*")
    parts = []
    functors_only = [f for f, _ in summands]
    for i, (a_i, eta_ii) in enumerate(summands):
        blk = nat_block(
            cat_t, eta, functors_only, i, i, window_src.functor, window_tgt.functor
        )
        if eta_ii is None:
            for c in window_src.category.objects:
                if not blk(c).is_zero():
                    raise StructureError(f"diagonal block {i} is nonzero but was declared zero")
            continue
        for c in window_src.category.objects:
            if not blk(c) == eta_ii.at(c):
                raise StructureError(f"diagonal block {i} differs from the declared twist")
        parts.append(
            (field.one, InducedMap(window_src, window_tgt, a_i, eta_ii, name=f"(A{i},η{i}{i})*"))
        )
    summand_sum = LinearComboMap(window_src, window_tgt, parts, name="Σ(Ai,ηii)*")
    matrices_equal = {}
    for k in degrees:
        matrices_equal[k] = total_map.homology_matrix(k) == summand_sum.homology_matrix(k)
    result = {
        "total": total_map,
        "sum": summand_sum,
        "matrices_equal": matrices_equal,
        "certificate": None,
        "certificate_mode": None,
    }
    if certificates:
        h_parts = [
            trace_summand_homotopy(
                window_src, window_tgt, functors_only, eta, total_functor, i
            )
            for i, (a_i, eta_ii) in enumerate(summands)
            if eta_ii is not None
        ]

        def h_formula(k, idx):
            out = {}
            for h in h_parts:
                out = vec_add(out, h(k, idx))
            return out

        formula = FormulaHomotopy(window_src, window_tgt, h_formula, name="H_diag")
        cert = HomotopyCertificate(total_map, summand_sum, h_formula, name="trace decomposition")
        if cert.check():
            result["certificate"] = cert
            result["certificate_mode"] = "formula"
        else:
            residual = LinearComboMap(
                window_src,
                window_tgt,
                [
                    (field.one, total_map),
                    (-field.one, summand_sum),
                    (-field.one, DHPlusHD(window_src, window_tgt, formula)),
                ],
                name="residual",
            )
            solved = solve_homotopy(residual, name="H_offdiag")
            if solved is None:
                result["certificate_mode"] = "failed"
            else:
                def h_total(k, idx):
                    return vec_add(h_formula(k, idx), solved.apply_chain(k, idx))

                cert2 = HomotopyCertificate(
                    total_map, summand_sum, h_total, name="trace decomposition"
                )
                if cert2.check():
                    result["certificate"] = cert2
                    result["certificate_mode"] = "formula+solved"
                else:
                    result["certificate_mode"] = "failed"
    return result


class DHPlusHD(ChainMap):
    """dH + Hd of a degree -1 map, as a chain map (used to form residuals)."""

    def __init__(self, src, tgt, h_map: ChainMap):
        super().__init__(src, tgt, name=f"d{h_map.name}+{h_map.name}d")
        self.h_map = h_map

    def _compute(self, k, idx):
        dh = self.tgt.differential(k - 1).apply(self.h_map.apply_chain(k, idx))
        if k < self.src.hi:
            hd = {}
            for xu, c in self.src.differential(k).cols[idx].items():
                hd = vec_add(hd, vec_scale(c, self.h_map.apply_chain(k + 1, xu)))
        else:
            hd = {}
        return vec_add(dh, hd)


# ---------------------------------------------------------------------------
# tensor windows and the shuffle map


class TensorWindow(WindowBase):
    """Tensor product of two windows: chains are pairs, the differential is
    D⊗1 + (-1)^{deg} 1⊗D."""

    def __init__(self, left: WindowBase, right: WindowBase, lo, hi):
        self.left = left
        self.right = right
        self.lo = lo
        self.hi = hi
        self._chains = {}
        self._index = {}
        self._homology = {}
        self._dmat = {}
        for k in range(lo, hi + 1):
            chains = []
            for ka in range(left.lo, left.hi + 1):
                kb = k - ka
                if not (right.lo <= kb <= right.hi):
                    continue
                for i in range(left.dim(ka)):
                    for j in range(right.dim(kb)):
                        chains.append((ka, i, j))
            self._chains[k] = chains
            self._index[k] = {c: i for i, c in enumerate(chains)}

    def differential(self, k) -> SparseMatrix:
        if k in self._dmat:
            return self._dmat[k]
        mat = SparseMatrix(self.dim(k + 1), self.dim(k))
        idx_up = self._index.get(k + 1, {})
        for col, (ka, i, j) in enumerate(self.chains_at(k)):
            kb = k - ka
            out = {}
            if ka < self.left.hi:
                for i2, c in self.left.differential(ka).cols[i].items():
                    pos = idx_up.get((ka + 1, i2, j))
                    if pos is not None:
                        out[pos] = out.get(pos, 0) + c
            if kb < self.right.hi:
                s = parity_sign(ka)
                for j2, c in self.right.differential(kb).cols[j].items():
                    pos = idx_up.get((ka, i, j2))
                    if pos is not None:
                        out[pos] = out.get(pos, 0) + s * c
            mat.cols[col] = {p: v for p, v in out.items() if v}
        self._dmat[k] = mat
        return mat

    def pair_index(self, k, ka, i, j):
        return self._index[k].get((ka, i, j))


def koszul_swap_map(tw: TensorWindow, tw_swapped: TensorWindow) -> ChainMap:
    """x⊗y -> (-1)^{|x||y|} y⊗x between tensor windows."""

    class _Swap(ChainMap):
        def _compute(self, k, idx):
            ka, i, j = self.src.chains_at(k)[idx]
            kb = k - ka
            pos = self.tgt.pair_index(k, kb, j, i)
            if pos is None:
                return {}
            one = _window_field(self.src.left).one
            return {pos: one * parity_sign(ka * kb)}

    return _Swap(tw, tw_swapped, name="koszul swap")


def _window_field(window):
    return window.category.field if hasattr(window, "category") else _window_field(window.left)


class ShuffleMap(ChainMap):
    """The shuffle quasi-isomorphism C(𝒞)⊗C(ℬ) → C(𝒞⊗ℬ).

    Each (k,l)-interleaving carries the pairwise sign
    (-1)^{1+|f_a||g_b|} per transposed pair, times the global suspension
    factor (-1)^{n_x·m_y + |g_0|·(n_x - |f_0|)} (n = internal degree,
    m = bar degree).  The sign is pinned by the chain-map property
    d∘Sh = Sh∘d_⊗ on graded windows; for degree-0 categories it reduces to
    the bare pairwise rule."""

    def __init__(self, tw: TensorWindow, tgt: HochschildWindow, name="Sh"):
        super().__init__(tw, tgt, name=name)
        if not isinstance(tw.left, HochschildWindow) or not isinstance(
            tw.right, HochschildWindow
        ):
            raise StructureError("shuffle needs Hochschild windows as factors")
        self.cat_a = tw.left.category
        self.cat_b = tw.right.category
        self.cat_t = tgt.category

    def _compute(self, k, idx):
        ka, i, j = self.src.chains_at(k)[idx]
        xchain = self.src.left.chains_at(ka)[i]
        ychain = self.src.right.chains_at(k - ka)[j]
        return self._shuffle(xchain, ychain)

    def _tensor_mor(self, f: Mor, g: Mor):
        """f⊗g as a morphism of the tensor category (labels are key pairs)."""
        coeffs = {}
        for (da, la), ca in f.coeffs.items():
            for (db, lb), cb in g.coeffs.items():
                coeffs[(da + db, ((da, la), (db, lb)))] = ca * cb
        return Mor((f.src, g.src), (f.tgt, g.tgt), coeffs)

    def _shuffle(self, x: Chain, y: Chain):
        ca = self.cat_a
        cb = self.cat_b
        kx = x.bar_degree
        ly = y.bar_degree
        xpairs = self.src.left._slot_pairs(x.objects)
        ypairs = self.src.right._slot_pairs(y.objects)
        xm = [ca.basis_mor(p[0], p[1], *key) for p, key in zip(xpairs, x.keys)]
        ym = [cb.basis_mor(p[0], p[1], *key) for p, key in zip(ypairs, y.keys)]
        xdeg = [key[0] for key in x.keys]
        ydeg = [key[0] for key in y.keys]
        cobj = x.objects
        bobj = y.objects
        nx = sum(d for d in xdeg)
        global_exp = nx * ly + ydeg[0] * (nx - xdeg[0])
        out = {}
        for positions in itertools.combinations(range(1, kx + ly + 1), kx):
            fset = set(positions)
            sign_exp = global_exp
            ai, bj = 1, 1
            slots = [self._tensor_mor(xm[0], ym[0])]
            objs = [(cobj[0], bobj[0])]
            for p in range(1, kx + ly + 1):
                cur_c = cobj[ai % (kx + 1)]
                cur_b = bobj[bj % (ly + 1)]
                objs.append((cur_c, cur_b))
                if p in fset:
                    # every g already placed contributes an inversion pair
                    for b in range(1, bj):
                        sign_exp += 1 + xdeg[ai] * ydeg[b]
                    slots.append(self._tensor_mor(xm[ai], cb.unit(cur_b)))
                    ai += 1
                else:
                    slots.append(self._tensor_mor(ca.unit(cur_c), ym[bj]))
                    bj += 1
            self.tgt._add_image(out, tuple(objs), slots, parity_sign(sign_exp))
        return out


def shuffle_map(window_a, window_b, tensor_cat, lo, hi, bar_cap=None):
    """Build the paired window, the target window over the tensor category
    and the shuffle chain map between them."""
    tw = TensorWindow(window_a, window_b, lo, hi)
    from .dgcat import identity_functor

    tgt = HochschildWindow(tensor_cat, identity_functor(tensor_cat), lo, hi, bar_cap=bar_cap)
    return tw, tgt, ShuffleMap(tw, tgt)


# ---------------------------------------------------------------------------
# the centralizer action


def centralizer_action_map(window: HochschildWindow, rho_h: DgFunctor, c_transform: NatTransform, name=None) -> InducedMap:
    """(rho_h, C_{h,g})_* as an endo chain map of a twisted window."""
    return InducedMap(window, window, rho_h, c_transform, name=name or f"({rho_h.name})*")

