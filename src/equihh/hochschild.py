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

Windows are built one object cycle at a time; a cycle's chains are the
product of its slots' key lists, built slot by slot, and a prefix is
dropped once no choice of the remaining keys reaches the window.  A face
replaces slot keys by a table entry: d1 one key by its differential, d2
two adjacent keys by their product, the twist face a0 and a_n by
F(a_n) a0, F(a_n) read from the functor's morphism table and summed
against a0, in ``compose_terms`` order, from the composition table
indexed by its second key.  Each face walks its table: a nonzero entry,
with each choice of the other slots' keys that reaches the window, names
a chain, whose column the chain index gives; so no face builds a
morphism, and the cost follows the nonzero faces.  Homology
stops adding boundaries to its echelon once the echelon is as large as
the cycle space, provided every boundary column is a cycle; the skipped
columns would reduce to zero.  It also skips a zero boundary column and
one equal to ± a column already added: such a column lies in the span,
so the echelon's columns, pivots and combinations, and with them the
representatives and class coordinates, are those of adding every column.
(On E5's largest window, 374 of the 34,225 boundary columns at degree -1
are nonzero and distinct up to sign.)

A window stores a table entry whose coefficients are all integral
Fractions as {key: int} and any other entry as it is, so the d∘d check
and the ranks mod P run on ints wherever the tables are integral (as in
every bundled example).  Callers still see field scalars: reps, kernels
and class coordinates come out of ``Echelon``, and induced and shuffle
maps read the tables.  A window of more than ``WINDOW_CHAIN_BUDGET``
chains is a TruncationError.

Most degrees of a window are acyclic, and homology proves it without a
rational elimination.  With d_k∘d_{k-1} = 0 checked exactly,

    rank_P(d_{k-1}) + rank_P(d_k) == dim C_k

for ranks mod the prime P of ``linalg.rank_mod_p`` proves H_k = 0: the
ranks mod P are lower bounds for the ranks over Q, and d∘d = 0 bounds
rank(d_{k-1}) + rank(d_k) by dim C_k from above.  Such a degree keeps no
echelon; a vector's class there is 0 exactly when it is a cycle.  The
exact elimination runs when the test fails: the degree has homology, P
divides a minor it needs, an entry is cyclotomic or has a denominator
divisible by P, or d∘d ≠ 0.

A normalized window (``normalized=True``; ``hh_dimensions`` builds one)
is the quotient by the chains with an identity in a bar slot 1..m, an
acyclic subcomplex (Loday, *Cyclic Homology*, §1.1.14), so it has the
same homology on exact windows with about half the chains.  Each object
x with a nonzero unit u has a pivot p_x, the first key of End(x) in u;
in End(x)/k·u, p_x ≡ -Σ_{k≠p} (u_k/u_p)·k.  The window enumerates no
pivot in a slot 1..m of hom pair (x, x), and a face that writes such a
slot substitutes the class of the pivot.  The quotient rests on the unit
laws (u of degree 0 and closed, f∘u = f = u∘f, F(u_x) = u_{F x}), which
the window checks first.  Slot 0 is never normalized.  Chain maps,
certificates and the decomposition run on standard windows.

Everything downstream (induced maps, their composition and conjugation
laws, homotopy certificates, the trace decomposition, the shuffle map and
the centralizer action) operates on these windows with exact arithmetic.

A chain map writes each image term as one morphism per slot, and
``_add_image`` reads the term's object cycle off the slots' endpoints: c0
is the source of the last slot and c_t the target of slot t >= 1.  So
induced maps, the shuffle map and insertion homotopies build no object
tuples.  The caller names the degree it writes, and a term of another
degree (from a slot value that mixes degrees) is a StructureError.
Every map on windows is a ``ChainMap``, computed once per chain and
cached: induced maps, their sums (``LinearComboMap``), insertion
homotopies and a solved homotopy (``ColumnMap``).  A
``HomotopyCertificate`` holds its H as one, owns dH + Hd and the residual
f - g - (dH + Hd), and its check and ``solve_homotopy`` share H's cache.
One routine, ``_differing_chains``, compares two maps chain by chain for
the certificate check, ``ChainMap.verify_chain_map`` and the
functoriality fallback.

An induced map (φ,η)_*: a0[a1|...|am] -> (η_{c0}∘φ(a0))[φ(a1)|...|φ(am)]
and an insertion homotopy apply one map per slot, so ``compose_induced``
(functoriality) and ``HomotopyCertificate.check`` (dH + Hd = f - g) first
prove their identity on basis keys, by one route: a key walk
(``_KeyWalk``) gathers the keys and adjacent key pairs that the compared
chains put in their slots, a typed reader (``_typed``) reads each slot
value once and checks its ends and its keys' degree, ``dgcat.spread``
extends a slot map linearly, and ``_proved_else_compared`` compares
chain by chain when a precondition or identity fails or a package error
is raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    block_mor,
    block_of,
    compose_functors,
    functor_unit_violations,
    identity_functor,
    parity_sign,
    spread,
    unit_violations,
)
from .errors import EquihhError, InputError, StructureError, TruncationError, WindowError
from .linalg import (
    Echelon,
    SparseMatrix,
    integral_reader,
    rank_kernel_image,
    rank_mod_p,
    vec_axpy,
    vec_eq,
    vec_sub,
)


# A build retains 300-450 bytes per chain (E5's W_big, k[Z/6] at -4..1):
# about 200 MB here, 14 times E5's W_big (34,410 chains), the largest
# window of a bundled example at its default degrees.
WINDOW_CHAIN_BUDGET = 500_000


@dataclass(frozen=True)
class Certification:
    kind: str  # "exact" | "truncated"
    bound: int  # max bar degree used / the cap

    @property
    def exact(self):
        return self.kind == "exact"

    def describe(self):
        return "Exact" if self.exact else f"TruncatedAt({self.bound})"


class Chain(NamedTuple):
    """A basis chain: the object cycle and one basis key per slot.

    As a plain tuple it equals and hashes like ``(objects, keys)``, so a
    window's chain index is searched with such a pair directly."""

    objects: tuple
    keys: tuple

    @property
    def bar_degree(self):
        return len(self.keys) - 1

    def __repr__(self):
        return f"Chain({self.objects}, {self.keys})"


class WindowBase:
    """The state of a window over degrees [lo, hi] and ``field``, and the
    homology machinery on it: per degree k, the chain list, the chain
    index and d_k: C_k → C_{k+1} once a subclass stores it, the homology
    bases and ranks mod P as homology computes them."""

    def __init__(self, lo, hi, field):
        self.lo = lo
        self.hi = hi
        self.field = field
        self._chains = {}
        self._index = {}
        self._d = {}  # degree k -> d_k
        self._homology = {}
        self._ranks = {}  # degree k -> rank_mod_p of d_k, None included

    def chains_at(self, k):
        return self._chains.get(k, [])

    def dim(self, k):
        return len(self.chains_at(k))

    def differential(self, k) -> SparseMatrix:
        """d_k as stored, or the zero matrix where none was built."""
        if k in self._d:
            return self._d[k]
        return SparseMatrix(self.dim(k + 1), self.dim(k))

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
            d_k = self.differential(k)
            d_prev = self.differential(k - 1)
            closed = all(not d_k.apply(col) for col in d_prev.cols)
            if closed and self._acyclic_mod_p(k):
                reps, ech = [], None
            else:
                reps, ech = _exact_homology(d_k, d_prev, closed, self.field)
            self._homology[k] = HomologyBasis(self, k, reps, ech)
        return self._homology[k]

    def _acyclic_mod_p(self, k):
        """True when ranks mod P prove H_k = 0, given d_k∘d_{k-1} = 0:
        rank_P(d_{k-1}) reaches dim C_k - rank_P(d_k).  Each full rank is kept,
        None included, so no differential is ranked twice; d_{k-1} is ranked
        up to the need only when no full rank of it is kept."""
        d_k = self.differential(k)
        rank = self._ranks[k] = rank_mod_p(d_k)
        if rank is None:
            return False
        need = d_k.ncols - rank
        if k - 1 in self._ranks:
            kept = self._ranks[k - 1]
            return kept is not None and kept >= need
        return rank_mod_p(self.differential(k - 1), stop=need) == need


def _exact_homology(d_k, d_prev, closed, field):
    """(representatives, echelon) of homology between d_prev and d_k by
    exact elimination over ``field``; ``closed`` says d_k∘d_prev = 0."""
    _, cycles = rank_kernel_image(d_k, field)
    ech = Echelon(field)
    # When every boundary is a cycle, an echelon as large as the cycle
    # space spans it: the remaining boundaries reduce to zero and leave the
    # echelon unchanged, so adding them is skipped.  Without d∘d = 0 every
    # boundary is added.  A zero column, or one equal to ± a column already
    # added, lies in the span: it would reduce to zero and change no
    # column, pivot or combination, so it is skipped too.
    seen = set()
    for col in d_prev.cols:
        if closed and ech.rank == len(cycles):
            break
        if not col:
            continue
        entries = frozenset(col.items())
        if entries in seen:
            continue
        seen.add(entries)
        seen.add(frozenset((i, -c) for i, c in col.items()))
        ech.add(col, tag=None)
    reps = []
    for cyc in cycles:
        if ech.add(cyc, tag=len(reps)) is None:
            reps.append(cyc)
    return reps, ech


class HomologyBasis:
    """Cycle representatives extending an echelon of the boundaries; each
    representative is tagged by its position, so solving against the
    echelon gives class coordinates.  A degree certified acyclic has no
    representatives and no echelon (``echelon`` None)."""

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
        Boundaries are untagged, so they drop out; in a degree certified
        acyclic every cycle is a boundary."""
        if self._ech is None:
            return None if self.window.differential(self.degree).apply(vec) else {}
        return self._ech.solve(vec)


class HochschildWindow(WindowBase):
    """The window [lo, hi] of the standard complex, or of the normalized
    complex when ``normalized`` (see the module docstring)."""

    def __init__(self, category, functor, lo, hi, bar_cap=None, normalized=False):
        super().__init__(lo, hi, category.field)
        self.category = category
        self.functor = functor
        self.bar_cap = bar_cap
        self.certification, self.bar_degrees = self._certify()
        self.pivots = _unit_pivots(category, functor) if normalized else {}
        self._d = self._differentials(self._enumerate())

    # -- construction ---------------------------------------------------

    def _certify(self):
        """(Certification, the bar degrees whose chains can reach the window)."""
        a, b = self.category.min_max_degree()
        if a is None:
            return Certification("exact", -1), []
        lo, hi = self.lo, self.hi

        def touches(m):
            return (m + 1) * a - m <= hi and (m + 1) * b - m >= lo

        # A chain of bar degree m lies in degrees (m+1)a - m .. (m+1)b - m.
        # For b <= 0 the top falls by 1 - b per bar degree, so no m beyond
        # (b - lo) // (1 - b) reaches lo; for b = 1 the top is 1 < lo.
        if b <= 0 or (b == 1 and lo > 1):
            top = (b - lo) // (1 - b) if b <= 0 else -1
            m_max = max((m for m in range(top + 1) if touches(m)), default=-1)
            if self.bar_cap is not None and m_max > self.bar_cap:
                raise TruncationError(
                    f"window is exact up to bar degree {m_max} but the cap is {self.bar_cap}"
                )
            cert = Certification("exact", m_max)
        elif self.bar_cap is None:
            raise TruncationError(
                "window has unbounded bar degrees; a bar cap is required"
            )
        else:
            cert = Certification("truncated", self.bar_cap)
        return cert, [m for m in range(cert.bound + 1) if touches(m)]

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
        """Fill the chain lists, each cycle's in ``itertools.product`` order
        (``_tuples_within``) and counted against the budget before any is
        built; return the cycles with a column as (objects, slot pairs,
        slot key lists)."""
        cat, lo, hi = self.category, self.lo, self.hi
        count = 0
        cycles = []
        slots = {}  # (hom pair, t > 0) -> the key list of a slot t, shared by the cycles
        self._chains = {k: [] for k in range(lo, hi + 1)}
        for m in self.bar_degrees:
            for objs in self._object_cycles(m):
                pairs = self._slot_pairs(objs)
                keylists = []
                for t, (x, y) in enumerate(pairs):
                    if ((x, y), t > 0) not in slots:
                        keys = slots[((x, y), t > 0)] = list(cat.basis_keys(x, y))
                        if t and x == y and x in self.pivots:
                            keys.remove(self.pivots[x][0])
                    keylists.append(slots[((x, y), t > 0)])
                counts = _degree_counts(keylists)
                count += sum(n for s, n in counts.items() if lo <= s - m <= hi)
                if count > WINDOW_CHAIN_BUDGET:
                    raise TruncationError(
                        f"window [{lo}, {hi}] has more than {WINDOW_CHAIN_BUDGET} chains;"
                        " narrow the degrees"
                    )
                if any(lo <= s - m < hi for s in counts):
                    cycles.append((objs, pairs, keylists))
                for s, tuples in _tuples_within(keylists, lo + m, hi + m).items():
                    self._chains[s - m].extend(Chain(objs, keys) for keys in tuples)
        for k, chains in self._chains.items():
            self._index[k] = {c: i for i, c in enumerate(chains)}
        return cycles

    def _object_cycles(self, m):
        """The object cycles (c0, ..., cm) whose slot hom pairs are all
        nonzero, in lexicographic order: each path (c0, ..., ci) is extended
        by every x with Hom(x, tip) nonzero, the tip being F(c0) for i = 0
        and ci after, and a path of length m + 1 is kept when Hom(c0, tip)
        is nonzero."""
        objects = self.category.objects
        hom = self.category.hom
        nonzero = {(x, y) for x, y in itertools.product(objects, repeat=2) if hom(x, y).total_dim()}

        def tip(path):
            return path[-1] if len(path) > 1 else self.functor.apply_obj(path[0])

        paths = [(c0,) for c0 in objects]
        for _ in range(m):
            paths = [path + (x,) for path in paths for x in objects if (x, tip(path)) in nonzero]
        return [path for path in paths if (path[0], tip(path)) in nonzero]

    def _add_image(self, out, degree, mors, sign):
        """Accumulate ``sign`` (±1) times the multilinear expansion of
        per-slot morphisms into the degree-``degree`` chain-index vector
        ``out``; unseen in-window targets and terms of another degree are
        errors.  The object cycle is read off the slots: c0 is the source
        of the last slot, c_t the target of slot t >= 1."""
        items = [list(m.coeffs.items()) for m in mors]
        if any(not it for it in items):
            return
        objs = (mors[-1].src,) + tuple(m.tgt for m in mors[1:])
        for combo in itertools.product(*items):
            keys = tuple(k for k, _ in combo)
            coeff = None
            # units are not multiplied, as in vec_axpy
            for _, c in combo:
                if coeff is None:
                    coeff = c
                elif c == 1:
                    pass
                elif c == -1:
                    coeff = -coeff
                elif coeff == 1:
                    coeff = c
                elif coeff == -1:
                    coeff = -c
                else:
                    coeff = coeff * c
            self._add_term(out, degree, objs, keys, coeff if sign > 0 else -coeff)

    def _add_term(self, out, degree, objs, keys, c):
        """Add c times the chain (objs, keys) to the degree-``degree``
        vector ``out``; a term of another degree is a StructureError, as its
        index would belong to another degree's chain list."""
        idx = self._index.get(degree, {}).get((objs, keys))
        if idx is None:
            k = sum(key[0] for key in keys) - len(keys) + 1
            if k != degree:
                raise StructureError(f"term {Chain(objs, keys)} has degree {k}, not {degree}")
            if self.in_window(k):
                raise StructureError(f"image chain missing from window: {Chain(objs, keys)}")
            return
        prev = out.get(idx)
        val = c if prev is None else prev + c
        if val:
            out[idx] = val
        elif prev is not None:
            del out[idx]

    def _normal_form(self, t, pair, entry, read):
        """A table entry {key: c}, read through ``read``, written into slot
        t of hom pair ``pair``: for t >= 1 and pair (x, x), the pivot of
        End(x) is replaced by its class in End(x)/k·id_x."""
        entry = read(entry)
        x, y = pair
        pivot = self.pivots.get(x) if t and x == y else None
        if pivot is None or pivot[0] not in entry:
            return entry
        p, rest = pivot
        out = {key: c for key, c in entry.items() if key != p}
        return vec_axpy(out, entry[p], read(rest))

    def _differentials(self, cycles):
        """{k: d_k} for lo <= k < hi, d2 + (-1)^m d1, one object cycle at a
        time (see the module docstring); an entry is an int where each
        table entry it sums is integral.  Faces run in one order (d1 into
        side columns, d2 for i = 0..m-1, the twist face, the side columns
        added with sign (-1)^m) and meet a column at one entry each, so its
        terms come in the order of a chain-by-chain build.  A face keeps the
        other slots' key tuples only for the degree sums that its own keys,
        of any hom degree of the category, can bring into a column
        (``_split_tuples``), memoized per slot-pair sequence and sum range
        for the build."""
        cat, fun, lo, hi = self.category, self.functor, self.lo, self.hi
        read = integral_reader()
        totals = {k: SparseMatrix(self.dim(k + 1), self.dim(k)) for k in range(lo, hi)}
        splits = {}  # (left, right slot pairs, sum range) -> _split_tuples
        dmin, dmax = cat.min_max_degree()
        for objs, pairs, keylists in cycles:
            m = len(objs) - 1
            col1 = {}  # (k, j) -> the d1 part of column j of d_k

            def walk(entries, a, b, e, new_objs, odd, side=False):
                """Add each entry's image, as left + (key,) + right on new_objs with sign
                (-1)^odd(k, |left|), to the column of left + before + right + after.
                Left (slots 0..a-1) and right (slots b..e-1) come from
                ``_split_tuples``, for the degree sums that r keys of hom degrees in
                [dmin, dmax], in the slots a..b-1 and e..m, can bring into a column."""
                r = b - a + m + 1 - e
                low, high = lo + m - r * dmax, hi - 1 + m - r * dmin
                key = (tuple(pairs[:a]), tuple(pairs[b:e]), low, high)
                groups = splits.get(key)
                if groups is None:
                    groups = splits[key] = _split_tuples(keylists[:a], keylists[b:e], low, high)
                for before, after, hit, image in entries:
                    for degree, pre, lefts, rights in groups:
                        k = hit + degree - m
                        if not lo <= k < hi:
                            continue
                        at, flip = self._index[k], odd(k, pre)
                        for left, right in itertools.product(lefts, rights):
                            j = at.get((objs, left + before + right + after))
                            if j is None:  # a pivot key
                                continue
                            col = col1.setdefault((k, j), {}) if side else totals[k].cols[j]
                            for hk, c in image.items():
                                if c:
                                    keys = left + (hk,) + right
                                    self._add_term(col, k + 1, new_objs, keys, -c if flip else c)

            for t in range(m + 1):
                table = cat.diff.get(pairs[t])
                if not table:
                    continue
                entries = (((key,), (), key[0], self._normal_form(t, pairs[t], table[key], read))
                           for key in keylists[t] if table.get(key))
                walk(entries, t, t + 1, m + 1, objs, lambda k, pre: pre % 2, side=True)
            for i in range(m):  # a_i a_{i+1} with sign (-1)^i
                pair = (pairs[i + 1][0], pairs[i][1])
                table = cat.comp_table(*pairs[i + 1], pair[1])
                entries = (((ka, kb), (), ka[0] + kb[0], self._normal_form(i, pair, prod, read))
                           for (kb, ka), prod in table.items() if prod)
                new_objs = objs[: i + 1] + objs[i + 2 :]
                walk(entries, i, i + 2, m + 1, new_objs, lambda k, pre: i % 2)
            if m:  # F(a_m) a0 with sign (-1)^{m + |a_m|(|a_0|+...+|a_{m-1}|)}
                table = cat.comp_table(*pairs[0], fun.apply_obj(objs[m]))
                by_second = {}  # f key -> the g keys of its nonzero entries
                for (gk, fk), entry in table.items():
                    if entry:
                        by_second.setdefault(fk, []).append(gk)
                heads = _degree_counts(keylists[:m])
                for km in keylists[m]:
                    if not any(lo <= s + km[0] - m < hi for s in heads):
                        continue
                    prods = {}
                    for fk, cf in read(fun.image(*pairs[m], km).coeffs).items():
                        for gk in by_second.get(fk, ()):
                            vec_axpy(prods.setdefault(gk, {}), cf, read(table[(gk, fk)]))
                    entries = (((gk,), (km,), gk[0] + km[0], prod) for gk, prod in prods.items())
                    walk(entries, 0, 1, m, (objs[m],) + objs[1:m],
                         lambda k, pre: (m + km[0] * (k + m - km[0])) % 2)
            for (k, j), c1 in col1.items():
                if c1:
                    vec_axpy(totals[k].cols[j], parity_sign(m), c1)
        return totals


def _degree_counts(keylists):
    """{degree sum: number of key tuples} over the product of ``keylists``."""
    counts = {0: 1}
    for keys in keylists:
        nxt = {}
        for s, n in counts.items():
            for key in keys:
                nxt[s + key[0]] = nxt.get(s + key[0], 0) + n
        counts = nxt
    return counts


def _sum_range(keylists):
    """(least, greatest) degree sum over the product of ``keylists``, each
    in degree order, as ``basis_keys`` lists a hom's keys."""
    return sum(keys[0][0] for keys in keylists), sum(keys[-1][0] for keys in keylists)


def _tuples_within(keylists, lo, hi):
    """{degree sum: key tuples} over the product of ``keylists`` (each in
    degree order), for the sums in [lo, hi], each list in
    ``itertools.product`` order.  The product is built slot by slot, and a
    prefix is dropped once no choice of the remaining slots' keys brings
    its sum into [lo, hi]."""
    if not all(keylists):
        return {}
    least, greatest = _sum_range(keylists)
    if least == greatest:  # one sum: the whole product or nothing
        return {least: list(itertools.product(*keylists))} if lo <= least <= hi else {}
    level = [(0, ())]
    for t, keys in enumerate(keylists):
        least, greatest = _sum_range(keylists[t + 1 :])
        level = [
            (s + key[0], prefix + (key,)) for s, prefix in level for key in keys
            if lo - greatest <= s + key[0] <= hi - least
        ]
    out = {}
    for s, keys in level:
        out.setdefault(s, []).append(keys)
    return out


def _split_tuples(left, right, low, high):
    """[(sum, left sum, left tuples, right tuples)] over the products of the
    key lists ``left`` and ``right``, for each pair of degree sums whose
    total lies in [low, high]."""
    lmin, lmax = _sum_range(left)
    rmin, rmax = _sum_range(right)
    lefts = _tuples_within(left, low - rmax, high - rmin)
    rights = _tuples_within(right, low - lmax, high - lmin)
    return [
        (pre + rest, pre, ls, rs) for pre, ls in lefts.items() for rest, rs in rights.items()
        if low <= pre + rest <= high
    ]


def _unit_pivots(category, functor):
    """{x: (p_x, class of p_x in End(x)/k·id_x)} for every object x with a
    nonzero unit: p_x is the first key of End(x) in the unit, and its class
    is -Σ_{k≠p} (u_k/u_p)·k.  The unit laws the normalized complex rests
    on are checked first; a failure is an input error."""
    witness = next(
        itertools.chain(unit_violations(category), functor_unit_violations(functor)), None
    )
    if witness is not None:
        raise InputError(f"unit law fails: {witness} (the normalized window needs the unit laws)")
    pivots = {}
    for x in category.objects:
        unit = category.units[x]
        p = next((key for key in category.basis_keys(x, x) if unit.get(key)), None)
        if p is not None:
            scale = -category.field.inv(unit[p])
            pivots[x] = (p, {key: c * scale for key, c in unit.items() if key != p and c})
    return pivots


def build_window(category, functor, lo, hi, bar_cap=None, normalized=False) -> HochschildWindow:
    """Spec entry point: the windowed total complex with its flag; an empty
    range (lo > hi) is an input error."""
    if lo > hi:
        raise InputError(f"degree range {lo}..{hi} is empty (LO > HI)", "degrees")
    if functor.src is not category or functor.tgt is not category:
        raise StructureError("twist functor must be an endofunctor of the category")
    return HochschildWindow(category, functor, lo, hi, bar_cap=bar_cap, normalized=normalized)


def degree_bounds(degrees):
    """(lowest, highest) of a degree list; an empty list is an input error."""
    if not degrees:
        raise InputError(f"degree list {list(degrees)} is empty", "degrees")
    return min(degrees), max(degrees)


def hh_dimensions(category, functor, degrees, bar_cap=None):
    """Dimension table {degree: dim}, the window and its flag, on the
    normalized window.

    Reported degrees are cohomological; the homological index is the
    negative (HH_i is the degree -i entry).  An empty degree list is an
    input error.
    """
    lo, hi = degree_bounds(degrees)
    win = build_window(category, functor, lo - 1, hi + 1, bar_cap=bar_cap, normalized=True)
    dims = {k: win.homology(k)[0] for k in sorted(degrees)}
    return {"dims": dims, "window": win, "certification": win.certification}


# ---------------------------------------------------------------------------
# chain maps


class ChainMap:
    """Linear map between windows, evaluated lazily on basis chains and
    cached: a chain map keeps the degree, a homotopy lowers it by one."""

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
            vec_axpy(out, c, self.apply_chain(k, idx))
        return out

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

    def verify_chain_map(self):
        """Check T(Dx) = D'(Tx) on every basis chain of the stored degrees:
        (chains checked, failures (degree, index))."""
        src, tgt = self.src, self.tgt
        degrees = [k for k in range(src.lo, src.hi) if tgt.lo <= k and k + 1 <= tgt.hi]
        failures = _differing_chains(
            src,
            degrees,
            lambda k, j: self.apply_vec(k + 1, src.differential(k).cols[j]),
            lambda k, j: tgt.differential(k).apply(self.apply_chain(k, j)),
        )
        return sum(src.dim(k) for k in degrees), failures


def _differing_chains(window, degrees, left, right):
    """The (degree, index) of every basis chain of ``window`` in
    ``degrees`` on which the column functions ``left`` and ``right``
    (each (degree, index) -> vector, ``left`` evaluated first) differ."""
    return [
        (k, j)
        for k in degrees
        for j in range(window.dim(k))
        if not vec_eq(left(k, j), right(k, j))
    ]


# ---------------------------------------------------------------------------
# table proofs, shared by compose_induced and HomotopyCertificate.check


class _KeyWalk:
    """The keys and key pairs that the chains of ``window`` in ``degrees``
    put in their slots, a slot read as its hom pair and key.  The chains of
    a run share an object cycle, hence slot pairs, so a run is kept as its
    cycle and, per slot, its pair and its column of keys; each family is
    gathered from the columns when a proof asks for it."""

    def __init__(self, window, degrees):
        self.runs = [
            (objs, list(zip(window._slot_pairs(objs), zip(*map(itemgetter(1), run)))))
            for k in degrees
            for objs, run in itertools.groupby(window.chains_at(k), key=itemgetter(0))
        ]

    def heads(self, joined=None):
        """(c0, slot-0 pair, key), followed by the pair and key of slot
        ``joined`` (1, or -1 for m) of the same chain if given, m >= 1."""
        if joined is None:
            return {(objs[0], slots[0][0], a0) for objs, slots in self.runs for a0 in slots[0][1]}
        return {
            (objs[0], slots[0][0], a0, slots[joined][0], a)
            for objs, slots in self.runs
            if len(slots) > 1
            for a0, a in zip(slots[0][1], slots[joined][1])
        }

    def slots(self):
        """(pair, key) of each key of a slot 1..m."""
        return {(pair, a) for _, slots in self.runs for pair, col in slots[1:] for a in col}

    def links(self):
        """(pair, key, pair, key) of adjacent slots t, t + 1 >= 1."""
        return {
            (pair, a, other, b)
            for _, slots in self.runs
            for (pair, col), (other, next_col) in zip(slots[1:], slots[2:])
            for a, b in zip(col, next_col)
        }


def _typed(cat, make, ends):
    """The typed slot reader: the slot map ``make(*args)`` into ``cat``,
    each value computed once and checked to run x → y as a combination of
    basis keys of Hom(x, y) in degree d, for (x, y, d) = ``ends(*args)``;
    an untyped value is a StructureError."""
    values = {}

    def value(*args):
        if args not in values:
            mor = make(*args)
            x, y, degree = ends(*args)
            labels = set(cat.hom(x, y).labels(degree))
            if (mor.src, mor.tgt) != (x, y) or any(
                key[0] != degree or key[1] not in labels for key in mor.coeffs
            ):
                raise StructureError(f"slot value {mor} is not in degree {degree} of {x}->{y}")
            values[args] = mor
        return values[args]

    return value


def _proved_else_compared(prove, compare):
    """[] when the table proof ``prove()`` holds, else ``compare()``, the
    chain-by-chain differences.  A package error raised during the proof
    (say a functor without an action on a key) counts as a failed proof."""
    try:
        if prove():
            return []
    except EquihhError:
        pass
    return compare()


class InducedMap(ChainMap):
    """(phi, eps)_*: applies phi to every slot and eps at the twist slot:
    a0[a1|...|an] -> eps_{c0} phi(a0)[phi(a1)|...|phi(an)]."""

    def __init__(self, src, tgt, phi: DgFunctor, eps: NatTransform, name=""):
        super().__init__(src, tgt, name=name or f"({phi.name},{eps.name})*")
        self.phi = phi
        self.eps = eps

    def head(self, c0, c1, a0):
        """The slot-0 value eps_{c0}∘phi(a0) at the basis key a0 of
        Hom(c1, F c0)."""
        fc0 = self.src.functor.apply_obj(c0)
        return self.tgt.category.compose(self.eps.at(c0), self.phi.image(c1, fc0, a0))

    def head_ends(self, c0, c1, a0):
        """(source, target, degree) of ``head(c0, c1, a0)``: phi(c1) →
        F'(phi(c0)) in a0's degree, F' the target window's twist."""
        phi = self.phi
        return phi.apply_obj(c1), self.tgt.functor.apply_obj(phi.apply_obj(c0)), a0[0]

    def slot_ends(self, x, y, a):
        """(source, target, degree) of the slot value at a key a of
        Hom(x, y) in a slot 1..m: phi(x) → phi(y) in a's degree."""
        return self.phi.apply_obj(x), self.phi.apply_obj(y), a[0]

    def _compute(self, k, idx):
        objs, keys = self.src.chains_at(k)[idx]
        pairs = self.src._slot_pairs(objs)
        imgs = [self.head(objs[0], pairs[0][0], keys[0])]
        imgs += [self.phi.image(x, y, key) for (x, y), key in zip(pairs[1:], keys[1:])]
        out = {}
        self.tgt._add_image(out, k, imgs, 1)
        return out


class LinearComboMap(ChainMap):
    def __init__(self, src, tgt, parts, name="Σ"):
        super().__init__(src, tgt, name=name)
        self.parts = parts  # list of (scalar, ChainMap)

    def _compute(self, k, idx):
        out = {}
        for c, part in self.parts:
            vec_axpy(out, c, part.apply_chain(k, idx))
        return out


class ColumnMap(ChainMap):
    """The map of a table {degree: [column of each source chain]}; the
    chains of a degree the table lacks map to zero."""

    def __init__(self, src, tgt, columns, name=""):
        super().__init__(src, tgt, name=name)
        self.columns = columns

    def _compute(self, k, idx):
        return self.columns[k][idx] if k in self.columns else {}


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


def induced_composite(outer: InducedMap, inner: InducedMap) -> InducedMap:
    """The induced map of the composite functor with the star twist, the
    map that chain-level functoriality equates with outer∘inner."""
    phi = compose_functors(outer.phi, inner.phi)
    eps = eps_star(outer.phi, outer.eps, inner.phi, inner.eps)
    return InducedMap(inner.src, outer.tgt, phi, eps, name=f"({phi.name})*")


def compose_induced(outer: InducedMap, inner: InducedMap):
    """Chain-level functoriality: the composite of induced maps equals the
    induced map of the composite with the star twist, entry-exactly.

    Returns (``induced_composite(outer, inner)``, mismatches), the
    mismatches being the (degree, index) of every basis chain of the
    source on which the two differ.

    An induced map applies one map per slot and ``_add_image`` expands the
    slot images multilinearly, so the identity is certified from the
    tables (``_slot_tables_agree``) when, for (ψ,ε) after (φ,η),

        (ε⋆η)_{c0}∘(ψφ)(a0) = ε_{φc0}∘ψ(η_{c0}∘φ(a0))  on every slot-0 key
                                                    a0 of Hom(c1, F c0)

    the source's chains use (``_KeyWalk``).  At slots 1..m the identity
    (ψφ)(a) = ψ(φ(a)) holds by construction, as does ψφ(c) = ψ(φ(c)) on
    objects: the composite's functor is ``compose_functors(ψ, φ)``, whose
    tables are ψ applied to φ's.  Its preconditions put every image chain
    of inner in the middle window, and every chain of either side in the
    target window: outer starts where inner ends, no window is normalized,
    the middle and target windows hold the source's degrees and bar
    degrees, and every slot value read is typed (``_typed``): it runs
    between the images of its key's ends as a combination of basis keys in
    the key's degree.  That puts the objects of every image chain in the
    middle and target categories, with no check of its own: a chain with a
    nonzero coefficient has nonzero slot values, and a nonzero typed value
    names a basis key of a hom of its category.  A failed precondition or
    identity, or a package error on the way, falls back to the
    chain-by-chain comparison ``_chain_mismatches``, whose result is
    returned as it is.
    """
    combined = induced_composite(outer, inner)
    return combined, _proved_else_compared(
        lambda: _slot_tables_agree(outer, inner, combined),
        lambda: _chain_mismatches(outer, inner, combined),
    )


def _chain_mismatches(outer: InducedMap, inner: InducedMap, combined: InducedMap):
    """The (degree, index) of every basis chain of inner's source on which
    ``combined`` and outer∘inner differ."""
    return _differing_chains(
        inner.src,
        range(inner.src.lo, inner.src.hi + 1),
        combined.apply_chain,
        lambda k, j: outer.apply_vec(k, inner.apply_chain(k, j)),
    )


def _slot_tables_agree(outer: InducedMap, inner: InducedMap, combined: InducedMap):
    """True when the preconditions and slot identities of
    ``compose_induced`` hold, which proves ``combined`` = outer∘inner on
    every chain of inner's source; False when one fails.  Slots 1..m are
    only typed; slot 0 is compared as each side's chain map evaluates it
    (``InducedMap.head``)."""
    w0, w1, w2 = inner.src, inner.tgt, outer.tgt
    if outer.src is not w1 or any(w.pivots for w in (w0, w1, w2)):
        return False
    for w in (w1, w2):
        if not (w.lo <= w0.lo and w0.hi <= w.hi):
            return False
        if w.certification.bound < w0.certification.bound:
            return False
    cat1, cat2 = w1.category, w2.category
    phi, psi = inner.phi, outer.phi
    walk = _KeyWalk(w0, range(w0.lo, w0.hi + 1))
    inner_slot = _typed(cat1, phi.image, inner.slot_ends)
    outer_slot = _typed(cat2, psi.image, outer.slot_ends)
    for (x, y), a in walk.slots():
        px, py = phi.apply_obj(x), phi.apply_obj(y)
        for b in inner_slot(x, y, a).coeffs:
            outer_slot(px, py, b)
    inner_head = _typed(cat1, inner.head, inner.head_ends)
    outer_head = _typed(cat2, outer.head, outer.head_ends)
    for c0, (c1, _), a0 in walk.heads():
        p0, p1 = phi.apply_obj(c0), phi.apply_obj(c1)
        rhs = spread(lambda b: outer_head(p0, p1, b).coeffs, inner_head(c0, c1, a0).coeffs)
        if combined.head(c0, c1, a0).coeffs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# homotopies


class HomotopyCertificate:
    """A degree -1 map H with dH + Hd = f - g, checked entry-exactly on
    every basis chain of each source degree k with k + 1 stored in the
    source and k - 1, k in the target (``checked_degrees``); ``failures``
    (degree, index) records the check.  H is a ``ChainMap`` ``h``, whose
    cache computes each value once, for the check and for
    ``solve_homotopy`` on the ``residual`` alike.

    When H is an ``InsertionHomotopy`` and f, g are induced maps, the check
    first proves the identity from the slot maps on the keys the chains of
    ``checked_degrees`` use (``_insertion_identities_hold``), by the route
    of ``compose_induced``; the chain-by-chain comparison runs only when
    that proof fails, and its failures are the certificate's."""

    def __init__(self, f: ChainMap, g: ChainMap, h: ChainMap, name=""):
        self.f = f
        self.g = g
        self.h = h
        self.name = name
        src, tgt = f.src, f.tgt
        self.checked_degrees = [
            k
            for k in range(src.lo, src.hi + 1)
            if k - 1 >= tgt.lo and k + 1 <= src.hi and k <= tgt.hi
        ]
        self.failures = []

    def dh_hd(self, k, idx):
        """dH + Hd on basis chain ``idx`` of source degree k."""
        src, h = self.f.src, self.h
        dh = self.f.tgt.differential(k - 1).apply(h.apply_chain(k, idx))
        if k < src.hi:
            return vec_axpy(dh, 1, h.apply_vec(k + 1, src.differential(k).cols[idx]))
        return dh

    def difference(self, k, idx):
        """f - g on basis chain ``idx`` of source degree k."""
        return vec_sub(self.f.apply_chain(k, idx), self.g.apply_chain(k, idx))

    def residual(self, k, idx):
        """f - g - (dH + Hd) on basis chain ``idx`` of source degree k."""
        return vec_sub(self.difference(k, idx), self.dh_hd(k, idx))

    def _slot_proof(self):
        return _insertion_identities_hold(self.f, self.g, self.h, self.checked_degrees)

    def slot_identities_hold(self):
        """Whether ``check`` proves its identity from the slot maps, and so
        compares no chain."""
        return _proved_else_compared(self._slot_proof, lambda: None) == []

    def chain_failures(self):
        """The (degree, index) of every basis chain of ``checked_degrees``
        on which f - g and dH + Hd differ, compared chain by chain."""
        return _differing_chains(self.f.src, self.checked_degrees, self.difference, self.dh_hd)

    def check(self):
        self.failures = _proved_else_compared(self._slot_proof, self.chain_failures)
        return not self.failures


class InsertionHomotopy(ChainMap):
    """The insertion homotopy of a natural transformation, the map from
    degree k of ``src`` to degree k - 1 of ``tgt``:

        a0[a1|...|am] -> Σ_i (-1)^i first(a0)[middle(a1)|...|middle(ai)|
                                    cut(c_{i+1})|tail(a_{i+1})|...|tail(am)]

    with c_{m+1} = c0 (Loday, *Cyclic Homology*, §1.2 and §4.1).  ``first``
    takes (a0, c0), ``cut`` an object and the other slot maps a basis
    morphism; each term's objects are the endpoints of its slots.  The four
    slot maps stay readable, so a ``HomotopyCertificate`` can prove
    dH + Hd = f - g from them on basis keys."""

    def __init__(self, src, tgt, first, middle, cut, tail, name="H"):
        super().__init__(src, tgt, name=name)
        self.first = first
        self.middle = middle
        self.cut = cut
        self.tail = tail

    def _compute(self, k, idx):
        src = self.src
        objs, keys = src.chains_at(k)[idx]
        m = len(keys) - 1
        pairs = src._slot_pairs(objs)
        slots = [src.category.basis_mor(x, y, *key) for (x, y), key in zip(pairs, keys)]
        head = self.first(slots[0], objs[0])
        middles = [self.middle(a) for a in slots[1:]]
        tails = [self.tail(a) for a in slots[1:]]
        out = {}
        for i in range(m + 1):
            mors = [head] + middles[:i] + [self.cut(objs[(i + 1) % (m + 1)])] + tails[i:]
            self.tgt._add_image(out, k - 1, mors, parity_sign(i))
        return out


def _insertion_identities_hold(f, g, h: InsertionHomotopy, degrees):
    """True when the preconditions and identities below hold, which proves
    dH + Hd = f - g on every chain of the source degrees ``degrees`` (as
    ``HomotopyCertificate.check`` chooses them); False when one fails.

    The lemma.  Let f = (T, ε_f)_* and g = (M, ε_g)_* be induced maps from
    the window of C with twist F to the window of D with twist F', and H
    the insertion homotopy between the same windows with slots first,
    middle, cut = K and tail.  Both windows are standard and exact, so
    every chain the check meets in the degrees involved is a basis chain
    of its window.  Call a slot value typed when it runs between the
    images of its key's ends (first(a0, c0) from M(c1) to F'(T(c0)), K_c
    from T(c) to M(c), middle through M and tail through T) and is a
    combination of basis keys in its key's degree (K_c in degree 0).  Then
    dH + Hd = f - g on a chain a0[a1|...|am] with objects (c0, ..., cm)
    when every slot value below is typed and

        d first(a0) = first(d a0),
        first(a0)∘K_{c1} = ε_f(c0)∘T(a0),
        F'(K_{c0})∘first(a0) = ε_g(c0)∘M(a0)     for the slot-0 key a0,
        middle(a) = M(a),  tail(a) = T(a),
        K_x∘tail(a) = middle(a)∘K_y,
        d middle(a) = middle(d a),
        d tail(a) = tail(d a)                    for each key a: y → x of
                                                 a slot 1..m,
        first(a0 a1) = first(a0)∘middle(a1),
        middle(a_t a_t+1) = middle(a_t)∘middle(a_t+1),
        tail(a_t a_t+1) = tail(a_t)∘tail(a_t+1)  for adjacent slots,
        first(F(am) a0) = F'(tail(am))∘first(a0) for m >= 1, first taken
                                                 at c_m on the left and at
                                                 c0 on the right,

    each slot map extended linearly over a combination of keys, as H
    applies it to each chain of a sum.  In dH(x) + H(dx), the d1 terms
    cancel slot by slot: the slots keep their keys' degrees, and K_c is
    closed with no check of its own, since d K_c lies in degree 1 of a hom
    of D and D has none where the target window has chains (an Exact
    window over a category with a hom in degree 1 starts above degree 1
    and holds no chain).  The face joining K to the tail after it at
    insertion position i cancels the face joining the middle before K to K
    at position i + 1 (naturality); every other face, and every twist face
    but the last, cancels a term of H(dx); and the two terms left,
    first(a0)∘K_{c1} at position 0 and F'(K_{c0})∘first(a0) at position m,
    are f(x) and -g(x).  Each identity is checked once per distinct key or
    pair of keys of the chains in ``degrees`` (``_KeyWalk``); a slot value
    that is not typed (``_typed``) is a StructureError."""
    if not isinstance(h, InsertionHomotopy):
        return False
    src, tgt = h.src, h.tgt
    if not all(isinstance(m, InducedMap) and m.src is src and m.tgt is tgt for m in (f, g)):
        return False
    if src.pivots or tgt.pivots or not (src.certification.exact and tgt.certification.exact):
        return False
    cat, cat_t = src.category, tgt.category
    twist, twist_t = src.functor, tgt.functor
    big_t, big_m = f.phi, g.phi
    walk = _KeyWalk(src, degrees)
    first = _typed(
        cat_t,
        lambda c0, c1, a0: h.first(cat.basis_mor(c1, twist.apply_obj(c0), *a0), c0),
        lambda c0, c1, a0: (big_m.apply_obj(c1), twist_t.apply_obj(big_t.apply_obj(c0)), a0[0]),
    )
    middle = _typed(cat_t, lambda x, y, a: h.middle(cat.basis_mor(x, y, *a)), g.slot_ends)
    tail = _typed(cat_t, lambda x, y, a: h.tail(cat.basis_mor(x, y, *a)), f.slot_ends)
    cut = _typed(cat_t, h.cut, lambda c: (big_t.apply_obj(c), big_m.apply_obj(c), 0))
    compose, d = cat_t.compose, cat_t.d
    for c0, (c1, fc0), a0 in walk.heads():
        head = first(c0, c1, a0)
        da0 = cat.d(cat.basis_mor(c1, fc0, *a0))
        if d(head).coeffs != spread(lambda b: first(c0, c1, b).coeffs, da0.coeffs):
            return False
        if compose(head, cut(c1)) != f.head(c0, c1, a0):
            return False
        if compose(twist_t.apply(cut(c0)), head) != g.head(c0, c1, a0):
            return False
    for (y, x), a in walk.slots():
        mid, end = middle(y, x, a), tail(y, x, a)
        if mid != big_m.image(y, x, a) or end != big_t.image(y, x, a):
            return False
        if compose(cut(x), end) != compose(mid, cut(y)):
            return False
        da = cat.d(cat.basis_mor(y, x, *a))
        if d(mid).coeffs != spread(lambda b: middle(y, x, b).coeffs, da.coeffs):
            return False
        if d(end).coeffs != spread(lambda b: tail(y, x, b).coeffs, da.coeffs):
            return False
    for c0, (c1, fc0), a0, (c2, _), a1 in walk.heads(joined=1):
        prod = cat.compose(cat.basis_mor(c1, fc0, *a0), cat.basis_mor(c2, c1, *a1))
        rhs = compose(first(c0, c1, a0), middle(c2, c1, a1))
        if spread(lambda b: first(c0, c2, b).coeffs, prod.coeffs) != rhs.coeffs:
            return False
    for (y, x), a, (z, _), b in walk.links():
        prod = cat.compose(cat.basis_mor(y, x, *a), cat.basis_mor(z, y, *b))
        for value in (middle, tail):
            rhs = compose(value(y, x, a), value(z, y, b))
            if spread(lambda e: value(z, x, e).coeffs, prod.coeffs) != rhs.coeffs:
                return False
    for c0, (c1, fc0), a0, (_, cm), am in walk.heads(joined=-1):
        prod = cat.compose(twist.apply(cat.basis_mor(c0, cm, *am)), cat.basis_mor(c1, fc0, *a0))
        rhs = compose(twist_t.apply(tail(c0, cm, am)), first(c0, c1, a0))
        if spread(lambda b: first(cm, c1, b).coeffs, prod.coeffs) != rhs.coeffs:
            return False
    return True


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

    def first(a0, c0):
        return cat_t.compose(
            eta.at(c0), cat_t.compose(alpha_inv(f_twist.apply_obj(c0)), psi.apply(a0))
        )

    h = InsertionHomotopy(src, tgt, first, psi.apply, alpha.at, phi.apply)
    cert = HomotopyCertificate(induced, transported, h, name=f"transport along {alpha.name}")
    return transported, cert


# ---------------------------------------------------------------------------
# trace decomposition (direct sums of functors)


def _summand_unit(cat: DgCategory, summands, i):
    """The unit of summands[i], read off the unit of concat(summands)."""
    return block_of(cat.unit(sum(summands, ())), summands, summands, i, i)


def block_projection(cat: DgCategory, summands, i):
    """pi_i: concat(summands) -> summands[i] as a hull morphism."""
    return block_mor(summands, [summands[i]], {(0, i): _summand_unit(cat, summands, i)})


def block_inclusion(cat: DgCategory, summands, i):
    """iota_i: summands[i] -> concat(summands) as a hull morphism."""
    return block_mor([summands[i]], summands, {(i, 0): _summand_unit(cat, summands, i)})


def nat_block(eps: NatTransform, summands, i, j, f_twist, f_prime):
    """Block (i, j) of a twist eps: (⊕A)∘F ⇒ F'∘(⊕A), per object: the
    block of eps_c from part j of the source, decomposed at F(c), to part
    i of the target, decomposed under F'."""

    def at(c):
        src_parts = [f.apply_obj(f_twist.apply_obj(c)) for f in summands]
        tgt_parts = [f_prime.apply_obj(f.apply_obj(c)) for f in summands]
        return block_of(eps.at(c), src_parts, tgt_parts, i, j)

    return at


def trace_summand_homotopy(window_src, window_tgt, summand_functors, eta, i):
    """The insertion homotopy for one diagonal summand of a direct-sum
    functor: conjugated prefix on total-functor objects, a pure inclusion
    slot, then the plain summand tail."""
    cat_t = window_tgt.category
    a_i = summand_functors[i]
    eta_block = nat_block(eta, summand_functors, i, i, window_src.functor, window_tgt.functor)

    def parts_at(c):
        return [f.apply_obj(c) for f in summand_functors]

    def first(a0, c0):
        proj = block_projection(cat_t, parts_at(a0.src), i)
        return cat_t.compose(eta_block(c0), cat_t.compose(a_i.apply(a0), proj))

    def middle(a):
        proj = block_projection(cat_t, parts_at(a.src), i)
        return cat_t.compose(
            block_inclusion(cat_t, parts_at(a.tgt), i), cat_t.compose(a_i.apply(a), proj)
        )

    def cut(c):
        return block_inclusion(cat_t, parts_at(c), i)

    return InsertionHomotopy(window_src, window_tgt, first, middle, cut, a_i.apply)


def solve_homotopy(cert: HomotopyCertificate, name="H_solved"):
    """Find H' with dH' + H'd = ``cert.residual`` by exact linear solving,
    on the source degrees k with k ± 1 stored in the source and k - 1, k
    in the target (top degree downward, a joint solve at the top step).

    Returns H' as a ``ColumnMap``, zero when no degree is solved, or None
    when no windowed homotopy exists.
    """
    src, tgt = cert.f.src, cert.f.tgt
    degrees = [k for k in range(src.lo + 1, src.hi) if k - 1 >= tgt.lo and k <= tgt.hi]
    if not degrees:
        return ColumnMap(src, tgt, {}, name=name)
    h_cols = {}  # degree k -> list of vectors (per source chain) at k-1

    top = max(degrees)
    # joint solve at the top: unknowns H_top and H_{top+1}
    ech = Echelon(tgt.field)
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
                ech.add(col, tag=(top, x, t))
    for xu in range(n_up):
        for t in range(dim_tgt_t):
            col = {}
            for x in range(n_top):
                c = d_src_top.cols[x].get(xu)
                if c:
                    col[eq_index(x, t)] = c
            if col:
                ech.add(col, tag=(top + 1, xu, t))
    rhs = {}
    for x in range(n_top):
        rhs.update(eq_rows_of(x, cert.residual(top, x)))
    sol = ech.solve(rhs)
    if sol is None:
        return None
    h_cols[top] = [dict() for _ in range(n_top)]
    h_cols[top + 1] = [dict() for _ in range(n_up)]
    for (deg, x, t), value in sol.items():
        h_cols[deg][x][t] = value

    # sweep downward: d H_k = residual_k - H_{k+1} d
    for k in sorted([d for d in degrees if d < top], reverse=True):
        n_k = src.dim(k)
        d_tgt_k = tgt.differential(k - 1)
        ech_k = Echelon(tgt.field)
        for j in range(d_tgt_k.ncols):
            ech_k.add(d_tgt_k.cols[j], tag=j)
        cols = []
        upper = h_cols.get(k + 1)
        d_src_k = src.differential(k)
        for x in range(n_k):
            target = cert.residual(k, x)
            if upper is not None:
                carried = {}
                for xu, c in d_src_k.cols[x].items():
                    vec_axpy(carried, c, upper[xu])
                target = vec_sub(target, carried)
            col = ech_k.solve(target)
            if col is None:
                return None
            cols.append(col)
        h_cols[k] = cols
    return ColumnMap(src, tgt, h_cols, name=name)


def verify_trace_decomposition(total_map: InducedMap, summands, degrees):
    """Check (⊕A_i, eta)_* ≃ Σ_i (A_i, eta_ii)_* as homology matrices on
    ``degrees`` and look for a homotopy certificate, given the induced map
    ``total_map`` = (⊕A_i, eta)_*.

    ``summands`` is a list of (functor A_i, eta_ii NatTransform or None);
    a None diagonal twist means the block must be zero and the summand is
    dropped from the sum.  The homotopy is the per-summand insertion
    formula, plus an exactly solved correction (``solve_homotopy``) when
    the formula alone fails.  The correction adds the off-diagonal terms;
    it also fixes the formula's sign at degree 0 (on the bundled examples
    the formula's dH + Hd there is -(f - g)), and when every eta_ii is None (a cross-class certificate),
    so that the formula is empty, it is the whole homotopy.  Returns ({degree: homology matrices
    equal}, certificate mode), the mode being "formula", "formula+solved"
    or "failed".
    """
    window_src, window_tgt = total_map.src, total_map.tgt
    eta = total_map.eps
    field = window_tgt.category.field
    parts = []
    functors_only = [f for f, _ in summands]
    for i, (a_i, eta_ii) in enumerate(summands):
        blk = nat_block(eta, functors_only, i, i, window_src.functor, window_tgt.functor)
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
    matrices_equal = {
        k: total_map.homology_matrix(k) == summand_sum.homology_matrix(k) for k in degrees
    }
    h_parts = [
        (field.one, trace_summand_homotopy(window_src, window_tgt, functors_only, eta, i))
        for i, (a_i, eta_ii) in enumerate(summands)
        if eta_ii is not None
    ]
    formula = LinearComboMap(window_src, window_tgt, h_parts, name="ΣH_i")
    cert = HomotopyCertificate(total_map, summand_sum, formula, name="trace decomposition")
    if cert.check():
        return matrices_equal, "formula"
    solved = solve_homotopy(cert, name="H_offdiag")
    if solved is None:
        return matrices_equal, "failed"
    h_total = LinearComboMap(window_src, window_tgt, [(field.one, formula), (field.one, solved)])
    cert = HomotopyCertificate(total_map, summand_sum, h_total, name="trace decomposition")
    return matrices_equal, "formula+solved" if cert.check() else "failed"


# ---------------------------------------------------------------------------
# tensor windows and the shuffle map


class TensorWindow(WindowBase):
    """Tensor product of two windows: chains are pairs, the differential is
    D⊗1 + (-1)^{deg} 1⊗D."""

    def __init__(self, left: WindowBase, right: WindowBase, lo, hi):
        super().__init__(lo, hi, left.field)
        self.left = left
        self.right = right
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
        for k in range(lo, hi):
            mat = self._d[k] = SparseMatrix(self.dim(k + 1), self.dim(k))
            for col, (ka, i, j) in enumerate(self.chains_at(k)):
                kb = k - ka
                out = {}
                if ka < left.hi:
                    for i2, c in left.differential(ka).cols[i].items():
                        pos = self._index[k + 1].get((ka + 1, i2, j))
                        if pos is not None:
                            out[pos] = out.get(pos, 0) + c
                if kb < right.hi:
                    s = parity_sign(ka)
                    for j2, c in right.differential(kb).cols[j].items():
                        pos = self._index[k + 1].get((ka, i, j2))
                        if pos is not None:
                            out[pos] = out.get(pos, 0) + s * c
                mat.cols[col] = {p: v for p, v in out.items() if v}


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
        return self._shuffle(k, xchain, ychain)

    def _tensor_mor(self, f: Mor, g: Mor):
        """f⊗g as a morphism of the tensor category (labels are key pairs)."""
        coeffs = {}
        for (da, la), ca in f.coeffs.items():
            for (db, lb), cb in g.coeffs.items():
                coeffs[(da + db, ((da, la), (db, lb)))] = ca * cb
        return Mor((f.src, g.src), (f.tgt, g.tgt), coeffs)

    def _shuffle(self, k, x: Chain, y: Chain):
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
            for p in range(1, kx + ly + 1):
                cur_c = cobj[ai % (kx + 1)]
                cur_b = bobj[bj % (ly + 1)]
                if p in fset:
                    # every g already placed contributes an inversion pair
                    for b in range(1, bj):
                        sign_exp += 1 + xdeg[ai] * ydeg[b]
                    slots.append(self._tensor_mor(xm[ai], cb.unit(cur_b)))
                    ai += 1
                else:
                    slots.append(self._tensor_mor(ca.unit(cur_c), ym[bj]))
                    bj += 1
            self.tgt._add_image(out, k, slots, parity_sign(sign_exp))
        return out


def shuffle_map(window_a, window_b, tensor_cat, lo, hi, bar_cap=None):
    """Build the paired window, the target window over the tensor category
    and the shuffle chain map between them."""
    tw = TensorWindow(window_a, window_b, lo, hi)
    tgt = HochschildWindow(tensor_cat, identity_functor(tensor_cat), lo, hi, bar_cap=bar_cap)
    return tw, tgt, ShuffleMap(tw, tgt)
