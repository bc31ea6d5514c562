"""Small dg categories, dg functors, natural transformations, tensor
products and additive hulls.

Conventions:
  * degrees are cohomological integers; differentials raise degree by 1;
  * ``compose(f, g)`` is f after g;
  * morphisms are coefficient dicts over labeled hom bases, equality is
    coefficient equality;
  * objects are hashable values (strings for base categories, tuples of
    base objects for additive-hull objects, with the empty tuple as the
    zero object).

This module owns the additive hull's block layout.  A hull basis key is
(deg, (row, col, base_label)); ``hull_entries`` places base coefficients
at one entry, ``block_mor`` assembles a morphism between concatenated
tuples from blocks between their parts, and ``block_of`` reads one block
back.  Callers name blocks by part index and never compute an offset.
``hull_product`` multiplies one hull morphism g by a family of f's
block by block off the base's composition tables, in one pass, pairing
each term of g only with the f terms in the column it meets
(``hull_index``); ``hull_compose`` is its one-f morphism form, the
hull's ``compose`` without building a hull table.

It also owns the two sums over structure tables.  ``compose_terms`` is
the bilinear sum Σ c_g·c_f·table[(g key, f key)] that expands f∘g from a
composition table.  ``spread`` is the linear sum Σ c·value(key) that
extends a key map (a differential table, a functor's morphism table, a
solved basis, a slot map) linearly.  ``compose``, ``d``,
``DgFunctor.apply`` and every other module sum through them, so each sum
has one loop and one term order.

Every functor built from the images of basis keys (composites, hull
inclusions, hull lifts, forget, S, T_V, the permutation action) is one
``image(x, y, key)`` passed to ``keyed_functor``, the one constructor of
such functors; a hom pair's table is filled the first time it is read.

Derived tables are read off their parts' nonzero entries.  A hull's
composition table places each nonzero base entry at one hull key pair,
and a tensor product's takes one nonzero entry per factor with its
Koszul sign, so neither table sums; a tensor product's differential and
units come from one pass over the factors' keys and terms.

Categories are immutable once validated; validation returns a report of
violated axioms with witnesses rather than raising.  Every check over
composable basis morphisms (d², Leibniz, associativity, a functor's
degree, differential and composition laws, naturality) and
``functors_equal`` read one walk, ``DgCategory.composable(n)``, which
yields each run of n composable basis morphisms in nested-loop order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import CapacityError, EmptyCategoryError, StructureError
from .linalg import Echelon, GradedSpace, vec_add, vec_axpy, vec_sub
from .scalars import Cyc, rational


def parity_sign(n: int) -> int:
    return 1 if n % 2 == 0 else -1


def _clean(coeffs):
    return {k: v for k, v in coeffs.items() if v}


def _term_products(lead, factors):
    """{(Σ degrees, key tuple): lead·Π c} over each choice of one term
    ((deg, label), c) from every coefficient dict in ``factors``: the
    coefficients of a tensor product of vectors, one per factor."""
    out = {}
    for combo in itertools.product(*[f.items() for f in factors]):
        coeff = lead
        for _, c in combo:
            coeff = coeff * c
        out[(sum(k[0] for k, _ in combo), tuple(k for k, _ in combo))] = coeff
    return out


def _make_canonical(vectors):
    """Make every rational value of each coefficient dict in ``vectors``
    canonical (``scalars.rational``), in place: an integral Fraction
    becomes an int."""
    for vec in vectors:
        for k, c in vec.items():
            if not isinstance(c, (int, Cyc)):
                vec[k] = rational(c)


def compose_terms(table, g_terms, f_terms):
    """Σ c_g·c_f·table[(g key, f key)] over the terms (key, c) of g and of
    f: the coefficients of f∘g, read off the composition table of their
    hom triple.  g's terms are the outer loop and f's (iterated once per
    g term) the inner one, so every caller sums in one order.  Tables and
    terms hold canonical scalars (``scalars.rational``), so the sum runs
    on ints where they are integral."""
    out = {}
    for gk, cg in g_terms:
        for fk, cf in f_terms:
            entry = table.get((gk, fk))
            if entry:
                vec_axpy(out, cg * cf, entry)
    return out


def spread(value, coeffs):
    """Σ c·value(key) over the items (key, c) of ``coeffs``: the key map
    ``value`` (a basis key -> a coefficient dict, or None for zero)
    extended linearly."""
    out = {}
    for key, c in coeffs.items():
        vec = value(key)
        if vec:
            vec_axpy(out, c, vec)
    return out


class Mor:
    """A morphism: coefficients over the basis of one hom complex."""

    __slots__ = ("src", "tgt", "coeffs")

    def __init__(self, src, tgt, coeffs):
        self.src = src
        self.tgt = tgt
        self.coeffs = _clean(coeffs)

    def __add__(self, other):
        assert self.src == other.src and self.tgt == other.tgt
        return Mor(self.src, self.tgt, vec_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        assert self.src == other.src and self.tgt == other.tgt
        return Mor(self.src, self.tgt, vec_sub(self.coeffs, other.coeffs))

    def scale(self, c):
        if not c:
            return Mor(self.src, self.tgt, {})
        return Mor(self.src, self.tgt, {k: c * v for k, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Mor):
            return NotImplemented
        return (
            self.src == other.src
            and self.tgt == other.tgt
            and self.coeffs == other.coeffs
        )

    def degrees(self):
        return sorted({deg for (deg, _) in self.coeffs})

    def __repr__(self):
        return f"Mor({self.src}->{self.tgt}, {self.coeffs})"


@dataclass
class Violation:
    rule: str
    witness: str


@dataclass
class ValidationReport:
    subject: str
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, rule, witness):
        self.violations.append(Violation(rule, witness))

    def summary(self):
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.rule}] {v.witness}" for v in self.violations]
        return "\n".join(lines)


class DgCategory:
    """Finite dg category with labeled hom bases and sparse structure
    constants.

    ``diff[(x, y)]`` maps basis keys (deg, label) to coefficient dicts of
    their differentials; ``comp[(x, y, z)]`` maps pairs (g_key, f_key) to
    the expansion of f∘g for g: x→y, f: y→z.  A ``comp_builder(x, y, z)``
    closure may fill composition tables lazily (hulls and tensor products
    use this so large homs are only multiplied when actually composed).
    The given tables and units are made canonical (``scalars.rational``);
    a builder makes its tables from canonical ones, so they are too.
    """

    def __init__(self, field, objects, homs, diff, comp, units, comp_builder=None):
        for table in (*diff.values(), *comp.values()):
            _make_canonical(table.values())
        _make_canonical(units.values())
        self.field = field
        self.objects = list(objects)
        self.homs = homs
        self.diff = diff
        self.comp = comp
        self.units = units
        self._comp_builder = comp_builder

    # -- basic accessors ------------------------------------------------

    def hom(self, x, y) -> GradedSpace:
        return self.homs.get((x, y)) or GradedSpace()

    def basis_mor(self, x, y, deg, label):
        return Mor(x, y, {(deg, label): self.field.one})

    def unit(self, x):
        return Mor(x, x, self.units[x])

    def basis_keys(self, x, y):
        space = self.hom(x, y)
        for deg in space.degrees():
            for label in space.labels(deg):
                yield (deg, label)

    def composable(self, n):
        """Every run of n composable basis morphisms x₀ → x₁ → … → xₙ, as
        ((x₀, …, xₙ), keys, morphisms), first morphism first: object
        tuples in ``itertools.product`` order, then keys in ``basis_keys``
        order with the first morphism's outermost.  Each hom pair's basis
        morphisms are built once per walk, and shared by its runs."""
        basis = {
            (x, y): [(k, self.basis_mor(x, y, *k)) for k in self.basis_keys(x, y)]
            for x, y in itertools.product(self.objects, repeat=2)
        }
        for xs in itertools.product(self.objects, repeat=n + 1):
            for run in itertools.product(*[basis[pair] for pair in zip(xs, xs[1:])]):
                keys, mors = zip(*run)
                yield xs, keys, mors

    def min_max_degree(self):
        """Global hom degree bounds (None, None) when there are no homs."""
        degs = [
            deg
            for space in self.homs.values()
            for deg in space.degrees()
            if space.dim(deg)
        ]
        if not degs:
            return None, None
        return min(degs), max(degs)

    # -- structure ------------------------------------------------------

    def comp_table(self, x, y, z):
        table = self.comp.get((x, y, z))
        if table is None:
            if self._comp_builder is not None:
                table = self._comp_builder(x, y, z)
            else:
                table = {}
            self.comp[(x, y, z)] = table
        return table

    def compose(self, f: Mor, g: Mor) -> Mor:
        """f∘g for g: x→y, f: y→z."""
        if g.tgt != f.src:
            raise StructureError(f"cannot compose {f.src}<-{g.tgt}")
        table = self.comp_table(g.src, g.tgt, f.tgt)
        return Mor(g.src, f.tgt, compose_terms(table, g.coeffs.items(), f.coeffs.items()))

    def d(self, f: Mor) -> Mor:
        table = self.diff.get((f.src, f.tgt))
        if not table:
            return Mor(f.src, f.tgt, {})
        return Mor(f.src, f.tgt, spread(table.get, f.coeffs))

    def invert(self, f: Mor):
        """Two-sided inverse of a degree-0 morphism, or None.

        Found by solving the linear system g∘f = id on the degree-0 part
        of the candidate hom and checking the other composite.
        """
        x, y = f.src, f.tgt
        if x == y and f.coeffs == _clean(self.units.get(x, {})):
            return self.unit(x)
        keys = [k for k in self.basis_keys(y, x) if k[0] == 0]
        ech = Echelon(self.field)
        images = []
        for k in keys:
            g = self.basis_mor(y, x, *k)
            images.append(self.compose(g, f).coeffs)  # g∘f in End(x)
        for pos, img in enumerate(images):
            ech.add(img, tag=pos)
        sol = ech.solve(self.unit(x).coeffs)
        if sol is None:
            return None
        g = Mor(y, x, {keys[tag]: c for tag, c in sol.items()})
        if not self.compose(g, f) == self.unit(x):
            return None
        if not self.compose(f, g) == self.unit(y):
            return None
        return g


def validate_dgcat(cat: DgCategory) -> ValidationReport:
    """Check d², Leibniz, associativity and unit axioms on every basis
    instance; violations carry witness basis keys."""
    report = ValidationReport("dg category")
    # structural: differential degree and label references
    for (x, y), table in cat.diff.items():
        space = cat.hom(x, y)
        for (deg, label), img in table.items():
            for (dimg, limg), c in img.items():
                if dimg != deg + 1:
                    report.add(
                        "structure",
                        f"differential of {label} in {x}->{y} hits degree {dimg}, expected {deg + 1}",
                    )
                elif limg not in space.labels(dimg):
                    report.add("structure", f"differential hits unknown label {limg}")
    for (x, y), (key,), (f,) in cat.composable(1):
        if not cat.d(cat.d(f)).is_zero():
            report.add("d_squared", f"d^2 != 0 on {key} in {x}->{y}")
    composites = {}  # f∘g of each composable pair, for associativity
    for (x, y, z), (gk, fk), (g, f) in cat.composable(2):
        composites[(x, y, z), (gk, fk)] = fg = cat.compose(f, g)
        rhs = cat.compose(cat.d(f), g) + cat.compose(f, cat.d(g)).scale(parity_sign(fk[0]))
        if not cat.d(fg) == rhs:
            report.add("leibniz", f"d(f∘g) mismatch for f={fk}, g={gk} at {x},{y},{z}")
    for (w, x, y, z), (hk, gk, fk), (h, g, f) in cat.composable(3):
        lhs = cat.compose(composites[(x, y, z), (gk, fk)], h)
        if not lhs == cat.compose(f, composites[(w, x, y), (hk, gk)]):
            report.add("associativity", f"(f∘g)∘h != f∘(g∘h) for f={fk}, g={gk}, h={hk}")
    for witness in unit_violations(cat):
        report.add("unit", witness)
    return report


def unit_violations(cat: DgCategory):
    """A witness for each failed unit law: every object has a unit id_x,
    concentrated in degree 0 and closed, with f∘id = f = id∘f for every
    basis key into and out of x."""
    for x in cat.objects:
        if x not in cat.units:
            yield f"missing unit for {x}"
            continue
        u = cat.unit(x)
        if u.coeffs and u.degrees() != [0]:
            yield f"unit of {x} not concentrated in degree 0"
        if not cat.d(u).is_zero():
            yield f"unit of {x} not closed"
        for y in cat.objects:
            for key in cat.basis_keys(x, y):
                f = cat.basis_mor(x, y, *key)
                if not cat.compose(f, u) == f:
                    yield f"f∘id != f for {key} in {x}->{y}"
            for key in cat.basis_keys(y, x):
                f = cat.basis_mor(y, x, *key)
                if not cat.compose(u, f) == f:
                    yield f"id∘f != f for {key} in {y}->{x}"


# ---------------------------------------------------------------------------
# functors and natural transformations


class LazyDict(dict):
    """Dict filling missing keys from a builder closure (lookup via []).

    Users: ``keyed_functor``'s morphism tables, so that a functor only
    materializes the hom pairs that are actually traversed, the lifted
    coherence components of ``equivariant.lift_action``, and the alpha
    inverses and free-key maps of ``equivariant``.
    """

    def __init__(self, builder):
        super().__init__()
        self._builder = builder

    def __missing__(self, key):
        value = self._builder(key)
        self[key] = value
        return value


class DgFunctor:
    """Dg functor between explicit categories: an object map plus a
    degree-0 linear action on each hom basis.  The images already in
    ``mor_map`` are made canonical (``scalars.rational``); a table that
    ``keyed_functor`` fills is summed from canonical ones."""

    def __init__(self, src: DgCategory, tgt: DgCategory, obj_map, mor_map, name=""):
        for table in mor_map.values():
            _make_canonical(mor.coeffs for mor in table.values())
        self.src = src
        self.tgt = tgt
        self.obj_map = obj_map
        self.mor_map = mor_map
        self.name = name

    def apply_obj(self, x):
        try:
            return self.obj_map[x]
        except KeyError as exc:
            raise StructureError(f"functor {self.name} has no object map for {x}") from exc

    def image(self, x, y, key) -> Mor:
        """F of the basis morphism ``key`` of Hom(x, y), read from the
        morphism table."""
        try:
            return self.mor_map[(x, y)][key]
        except KeyError as exc:
            raise StructureError(
                f"functor {self.name} has no action on {key} in {x}->{y}"
            ) from exc

    def apply(self, f: Mor) -> Mor:
        """F(f): the images of f's keys summed, the hom pair's table read
        once.  An unmapped hom pair or key raises StructureError, naming
        it, unless f is zero."""
        src, tgt = self.apply_obj(f.src), self.apply_obj(f.tgt)
        out = {}
        if f.coeffs:
            try:
                table = self.mor_map[(f.src, f.tgt)]
                for key, c in f.coeffs.items():
                    vec_axpy(out, c, table[key].coeffs)
            except KeyError as exc:
                raise StructureError(
                    f"functor {self.name} has no action on {exc.args[0]} in {f.src}->{f.tgt}"
                ) from exc
        return Mor(src, tgt, out)

    def __repr__(self):
        return f"DgFunctor({self.name or hex(id(self))})"


def keyed_functor(src: DgCategory, tgt: DgCategory, obj_map, image, name="") -> DgFunctor:
    """The functor src → tgt on ``obj_map`` whose table at (x, y) is
    {key: image(x, y, key)} over Hom(x, y)'s keys, filled when first read."""

    def build(pair):
        return {key: image(*pair, key) for key in src.basis_keys(*pair)}

    return DgFunctor(src, tgt, obj_map, LazyDict(build), name=name)


def identity_functor(cat: DgCategory, name="id") -> DgFunctor:
    return hull_inclusion(cat, cat, name)


def compose_functors(f: DgFunctor, g: DgFunctor, name=None) -> DgFunctor:
    """f∘g (apply g first); morphism tables fill lazily."""
    if g.tgt is not f.src:
        raise StructureError("functor composition mismatch")
    obj_map = {x: f.apply_obj(g.apply_obj(x)) for x in g.src.objects}

    def image(x, y, key):
        return f.apply(g.apply(g.src.basis_mor(x, y, *key)))

    return keyed_functor(g.src, f.tgt, obj_map, image, name=name or f"{f.name}∘{g.name}")


def functors_equal(f: DgFunctor, g: DgFunctor) -> bool:
    if f.src is not g.src or f.tgt is not g.tgt:
        return False
    for x in f.src.objects:
        if f.apply_obj(x) != g.apply_obj(x):
            return False
    return all(f.apply(b) == g.apply(b) for _, _, (b,) in f.src.composable(1))


def validate_functor(fun: DgFunctor) -> ValidationReport:
    report = ValidationReport(f"functor {fun.name or ''}".strip())
    for x in fun.src.objects:
        if fun.obj_map.get(x) not in fun.tgt.objects:
            raise StructureError(f"object map of {fun.name} misses {x}")
    images = {}  # F of each basis morphism, for the composition law
    for (x, y), (key,), (f,) in fun.src.composable(1):
        images[(x, y), key] = img = fun.apply(f)
        if img.coeffs and img.degrees() != [key[0]]:
            report.add("degree", f"image of {key} not concentrated in degree {key[0]}")
        if not fun.apply(fun.src.d(f)) == fun.tgt.d(img):
            report.add("differential", f"F(df) != dF(f) for {key} in {x}->{y}")
    for (x, y, z), (gk, fk), (g, f) in fun.src.composable(2):
        rhs = fun.tgt.compose(images[(y, z), fk], images[(x, y), gk])
        if not fun.apply(fun.src.compose(f, g)) == rhs:
            report.add("composition", f"F(f∘g) != F(f)∘F(g) for f={fk}, g={gk}")
    for witness in functor_unit_violations(fun):
        report.add("unit", witness)
    return report


def functor_unit_violations(fun: DgFunctor):
    """A witness for each object x with F(id_x) != id_{F x}."""
    for x in fun.src.objects:
        if not fun.apply(fun.src.unit(x)) == fun.tgt.unit(fun.apply_obj(x)):
            yield f"F(id_{x}) != id_F({x})"


class NatTransform:
    """Natural transformation between parallel dg functors, stored as one
    component morphism per source object."""

    def __init__(self, src: DgFunctor, tgt: DgFunctor, components, name=""):
        self.src = src
        self.tgt = tgt
        self.components = components
        self.name = name

    def at(self, x) -> Mor:
        try:
            return self.components[x]
        except KeyError as exc:
            raise StructureError(
                f"transformation {self.name} misses a component at {x}"
            ) from exc

    def __repr__(self):
        return f"NatTransform({self.name or hex(id(self))})"


def nat_vertical(b: NatTransform, a: NatTransform, name=None) -> NatTransform:
    """b after a (componentwise composition in the target category)."""
    cat = a.src.tgt
    comps = {x: cat.compose(b.at(x), a.at(x)) for x in a.src.src.objects}
    return NatTransform(a.src, b.tgt, comps, name=name or f"{b.name}∘{a.name}")


def nat_inverse(eps: NatTransform, name=None) -> NatTransform:
    cat = eps.src.tgt
    comps = {}
    for x in eps.src.src.objects:
        inv = cat.invert(eps.at(x))
        if inv is None:
            raise StructureError(f"component of {eps.name} at {x} is not invertible")
        comps[x] = inv
    return NatTransform(eps.tgt, eps.src, comps, name=name or f"{eps.name}^-1")


def misplaced_components(eps: NatTransform):
    """The objects x at which eps_x does not run from F(x) to G(x), for
    eps: F ⇒ G."""
    return {
        x
        for x in eps.src.src.objects
        if (eps.at(x).src, eps.at(x).tgt) != (eps.src.apply_obj(x), eps.tgt.apply_obj(x))
    }


def validate_nat(eps: NatTransform) -> ValidationReport:
    report = ValidationReport(f"transformation {eps.name or ''}".strip())
    if eps.src.src is not eps.tgt.src or eps.src.tgt is not eps.tgt.tgt:
        raise StructureError("transformation between non-parallel functors")
    cat = eps.src.tgt
    misplaced = misplaced_components(eps)  # they compose with nothing
    for x in eps.src.src.objects:
        if x in misplaced:
            report.add("structure", f"component at {x} has wrong endpoints")
            continue
        comp = eps.at(x)
        if comp.coeffs and comp.degrees() != [0]:
            report.add("degree", f"component at {x} not degree 0")
        if not cat.d(comp).is_zero():
            report.add("closedness", f"component at {x} not closed")
    for (x, y), (key,), (f,) in eps.src.src.composable(1):
        if x in misplaced or y in misplaced:
            continue
        lhs = cat.compose(eps.at(y), eps.src.apply(f))
        if not lhs == cat.compose(eps.tgt.apply(f), eps.at(x)):
            report.add("naturality", f"square fails at {key} in {x}->{y}")
    return report


# ---------------------------------------------------------------------------
# tensor products


def tensor_product_many(cats) -> DgCategory:
    """Tensor product of finitely many dg categories over one field.

    Objects are tuples, basis labels are tuples of (degree, label) keys of
    the factors, and composition carries the Koszul sign
    (⊗f_i)∘(⊗g_i) = (-1)^{Σ_{i>j} |f_i||g_j|} ⊗(f_i∘g_i).
    """
    field = cats[0].field
    for c in cats[1:]:
        if c.field != field:
            raise StructureError("tensor factors over different fields")
    objects = [tuple(p) for p in itertools.product(*[c.objects for c in cats])]
    homs = {}
    diff = {}
    for xs in objects:
        for ys in objects:
            pairs = list(zip(cats, xs, ys))
            basis = {}
            table = {}
            for keys in itertools.product(*[c.basis_keys(x, y) for c, x, y in pairs]):
                deg = sum(k[0] for k in keys)
                basis.setdefault(deg, []).append(keys)
                # differential: Leibniz over the factors
                img = {}
                prefix = 0
                for i, (k, (c, x, y)) in enumerate(zip(keys, pairs)):
                    dpart = c.diff.get((x, y), {}).get(k)
                    if dpart:
                        terms = {
                            (deg + 1, keys[:i] + (dk,) + keys[i + 1 :]): v for dk, v in dpart.items()
                        }
                        vec_axpy(img, parity_sign(prefix), terms)
                    prefix += k[0]
                if img:
                    table[(deg, keys)] = img
            space = GradedSpace(basis)
            if space.total_dim():
                homs[(xs, ys)] = space
            if table:
                diff[(xs, ys)] = table
    units = {
        xs: _term_products(field.one, [_clean(c.units[x]) for c, x in zip(cats, xs)])
        for xs in objects
    }

    def comp_builder(xs, ys, zs):
        factors = []
        for c, x, y, z in zip(cats, xs, ys, zs):
            entries = [
                (gk, fk, prod)
                for (gk, fk), coeffs in c.comp_table(x, y, z).items()
                if (prod := _clean(coeffs))
            ]
            if not entries:
                return {}
            factors.append(entries)
        table = {}
        for combo in itertools.product(*factors):
            sign_exp = gdeg = fdeg = 0
            for gk, fk, _ in combo:
                sign_exp += fk[0] * gdeg
                gdeg += gk[0]
                fdeg += fk[0]
            gkeys = tuple(gk for gk, _, _ in combo)
            fkeys = tuple(fk for _, fk, _ in combo)
            lead = field.one * parity_sign(sign_exp)
            table[((gdeg, gkeys), (fdeg, fkeys))] = _term_products(lead, [p for _, _, p in combo])
        return table

    return DgCategory(field, objects, homs, diff, {}, units, comp_builder=comp_builder)


def tensor_category(c: DgCategory, b: DgCategory) -> DgCategory:
    return tensor_product_many([c, b])


# ---------------------------------------------------------------------------
# additive hulls


def hull_entries(coeffs, i, j):
    """A dict keyed by base keys (deg, label), such as base coefficients,
    rekeyed to hull entry (i, j)."""
    return {(deg, (i, j, lab)): c for (deg, lab), c in coeffs.items()}


def hull_index(family, part=1):
    """The terms ((deg, (row, col, label)), c) of a family of hull morphisms
    (a list of term iterables) grouped by column, or by row with
    ``part=0``: {index: [(term, n), ...]}, n the morphism's place in the
    family, each morphism's terms in their own order."""
    index = {}
    for n, terms in enumerate(family):
        for term in terms:
            index.setdefault(term[0][1][part], []).append((term, n))
    return index


def hull_product(base, xs, ys, zs, g_terms, f_by_col, size=1):
    """[f_n∘g for each f_n of a family] for hull morphisms g: xs → ys and
    f_0, …, f_{size-1}: ys → zs over ``base``, from g's terms and the
    family's grouped by column (``hull_index``), in one pass and with no
    hull composition table.  A g term at (mid, j, glab) meets only the
    terms in column mid; the product with one at (i, mid, flab) is the
    entry of base.comp_table(xs[j], ys[mid], zs[i]) at the two base keys,
    whose nonzero values (the hull table keeps no others) are added into
    f_n∘g in place at (i, j) with ``vec_axpy``'s rules (c = ±1 is not
    multiplied).  g's terms are the outer loop and each column's terms the
    inner one, so each product equals ``compose_terms`` on the hull table
    in values, scalar types and key order."""
    # most calls have one f, and a comprehension costs them about 0.5 µs
    outs = [{}] if size == 1 else [{} for _ in range(size)]
    comp_table, column = base.comp_table, f_by_col.get
    for (gdeg, (mid, j, glab)), cg in g_terms:
        hits = column(mid)
        if hits:
            xb, yb = xs[j], ys[mid]
            for ((fdeg, (i, _, flab)), cf), n in hits:
                entry = comp_table(xb, yb, zs[i]).get(((gdeg, glab), (fdeg, flab)))
                c = cg * cf if entry else 0
                if c:
                    out = outs[n]
                    for (deg, lab), v in entry.items():
                        if v:
                            v = v if c == 1 else -v if c == -1 else c * v
                            key = (deg, (i, j, lab))
                            old = out.get(key)
                            s = v if old is None else old + v
                            if s:
                                out[key] = s
                            else:
                                del out[key]
    return outs


def hull_compose(hull, f: Mor, g: Mor) -> Mor:
    """f∘g for g: xs → ys and f: ys → zs in a hull made by
    ``hull_subcategory``, read blockwise off its base (``hull_product``
    with one f): ``hull.compose(f, g)`` without building the hull table
    of (xs, ys, zs)."""
    if g.tgt != f.src:
        raise StructureError(f"cannot compose {f.src}<-{g.tgt}")
    (coeffs,) = hull_product(
        hull.base, g.src, g.tgt, f.tgt, g.coeffs.items(), hull_index([f.coeffs.items()])
    )
    return Mor(g.src, f.tgt, coeffs)


def _starts(parts):
    """Where each part of a concatenated hull tuple starts."""
    return list(itertools.accumulate(map(len, parts), initial=0))


def block_mor(src_parts, tgt_parts, blocks) -> Mor:
    """The hull morphism concat(src_parts) → concat(tgt_parts) whose block
    (row, col) is ``blocks[(row, col)]``, a hull morphism src_parts[col] →
    tgt_parts[row]; absent blocks are zero.  Coefficients come in the
    order of ``blocks`` and of each block's own coefficients.  A block
    whose endpoints are not its parts raises StructureError."""
    rows, cols = _starts(tgt_parts), _starts(src_parts)
    coeffs = {}
    for (row, col), block in blocks.items():
        if block.src != src_parts[col] or block.tgt != tgt_parts[row]:
            raise StructureError(
                f"block ({row}, {col}) runs {block.src}->{block.tgt},"
                f" not {src_parts[col]}->{tgt_parts[row]}"
            )
        r, c = rows[row], cols[col]
        for (deg, (i, j, lab)), v in block.coeffs.items():
            coeffs[(deg, (i + r, j + c, lab))] = v
    return Mor(sum(src_parts, ()), sum(tgt_parts, ()), coeffs)


def block_of(mor: Mor, src_parts, tgt_parts, row, col) -> Mor:
    """Block (row, col) of a hull morphism concat(src_parts) →
    concat(tgt_parts): the morphism src_parts[col] → tgt_parts[row]."""
    src, tgt = src_parts[col], tgt_parts[row]
    if mor.src != sum(src_parts, ()) or mor.tgt != sum(tgt_parts, ()):
        raise StructureError(f"{mor.src}->{mor.tgt} is not a morphism between the parts")
    r, c = _starts(tgt_parts)[row], _starts(src_parts)[col]
    coeffs = {
        (deg, (i - r, j - c, lab)): v
        for (deg, (i, j, lab)), v in mor.coeffs.items()
        if r <= i < r + len(tgt) and c <= j < c + len(src)
    }
    return Mor(src, tgt, coeffs)


def hull_objects_up_to_cap(cat: DgCategory, cap: int):
    """All tuples of base objects with each multiplicity at most cap,
    ordered by length then componentwise object index."""
    if cap < 1:
        raise EmptyCategoryError("additive hull needs cap >= 1")
    return [
        tup
        for n in range(cap * len(cat.objects) + 1)
        for tup in itertools.product(cat.objects, repeat=n)
        if all(tup.count(x) <= cap for x in cat.objects)
    ]


def hull_subcategory(cat: DgCategory, objects) -> DgCategory:
    """Full subcategory of the additive hull of ``cat`` on the given tuples.

    Morphisms are matrices of base morphisms: a basis element of
    Hom(xs, ys) is labeled (row, col, base_label) and lives in the degree
    of the base morphism xs[col] → ys[row]; composition is matrix product
    via the base structure constants, a hom triple's table built the first
    time ``compose`` reads it.  The hull records ``cat`` as its ``base``,
    which ``hull_compose`` reads products from without a table.
    """
    objects = [tuple(o) for o in objects]
    for tup in objects:
        for x in tup:
            if x not in cat.objects:
                raise StructureError(f"hull component {x!r} is not a base object")
    field = cat.field
    homs = {}
    diff = {}
    units = {}
    for xs in objects:
        for ys in objects:
            basis = {}
            table = {}
            for i, yb in enumerate(ys):
                for j, xb in enumerate(xs):
                    for deg, lab in cat.basis_keys(xb, yb):
                        basis.setdefault(deg, []).append((i, j, lab))
                    for (deg, lab), img in cat.diff.get((xb, yb), {}).items():
                        table[(deg, (i, j, lab))] = hull_entries(img, i, j)
            space = GradedSpace(basis)
            if space.total_dim():
                homs[(xs, ys)] = space
            if table:
                diff[(xs, ys)] = table
    for xs in objects:
        coeffs = {}
        for i, xb in enumerate(xs):
            coeffs.update(hull_entries(cat.units[xb], i, i))
        units[xs] = coeffs

    def comp_builder(xs, ys, zs):
        # each hull key pair names one base entry, so nothing sums
        table = {}
        for mid, yb in enumerate(ys):
            for j, xb in enumerate(xs):
                for i, zb in enumerate(zs):
                    for ((gdeg, glab), (fdeg, flab)), coeffs in cat.comp_table(xb, yb, zb).items():
                        if prod := _clean(coeffs):
                            key = ((gdeg, (mid, j, glab)), (fdeg, (i, mid, flab)))
                            table[key] = hull_entries(prod, i, j)
        return table

    hull = DgCategory(field, objects, homs, diff, {}, units, comp_builder=comp_builder)
    hull.base = cat
    return hull


def additive_hull(cat: DgCategory, cap: int) -> DgCategory:
    """Materialized additive hull on all multiplicity-capped tuples."""
    return hull_subcategory(cat, hull_objects_up_to_cap(cat, cap))


def lift_functor_to_hull(fun: DgFunctor, src_hull: DgCategory, tgt_hull: DgCategory, name=None) -> DgFunctor:
    """Blockwise lift of a base endofunctor to hull subcategories.

    Requires the componentwise image of every source tuple to be an object
    of the target hull.
    """
    obj_map = {}
    for xs in src_hull.objects:
        image = tuple(fun.apply_obj(x) for x in xs)
        if image not in tgt_hull.objects:
            raise CapacityError(f"hull image {image} not materialized")
        obj_map[xs] = image

    def image(xs, ys, key):
        deg, (i, j, lab) = key
        base = fun.image(xs[j], ys[i], (deg, lab))
        return Mor(obj_map[xs], obj_map[ys], hull_entries(base.coeffs, i, j))

    return keyed_functor(src_hull, tgt_hull, obj_map, image, name=name or f"hull({fun.name})")


def full_subcategory(cat: DgCategory, objects) -> DgCategory:
    """Full subcategory on a subset of objects, sharing hom data and
    filling composition tables from the parent lazily."""
    objects = list(objects)
    for x in objects:
        if x not in cat.objects:
            raise StructureError(f"{x} is not an object of the category")
    homs = {
        (x, y): space
        for (x, y), space in cat.homs.items()
        if x in objects and y in objects
    }
    diff = {
        (x, y): table
        for (x, y), table in cat.diff.items()
        if x in objects and y in objects
    }
    units = {x: cat.units[x] for x in objects}
    return DgCategory(
        cat.field,
        objects,
        homs,
        diff,
        {},
        units,
        comp_builder=lambda x, y, z: cat.comp_table(x, y, z),
    )


# ---------------------------------------------------------------------------
# small constructors


def algebra_category(field, obj, basis, products, differential=None, unit="1") -> DgCategory:
    """One-object dg category from a finite graded algebra presentation.

    ``basis`` is a list of (label, degree); ``products`` maps (a, b) to the
    expansion of the composite "a after b" as {label: scalar}; pairs
    involving the unit label may be omitted, all other omitted pairs are
    zero.  ``differential`` maps labels to {label: scalar}.
    """
    labels = {lab: deg for lab, deg in basis}
    space = {}
    for lab, deg in basis:
        space.setdefault(deg, []).append(lab)
    homs = {(obj, obj): GradedSpace(space)}
    table = {}
    for (a, b), out in (products or {}).items():
        table[((labels[b], b), (labels[a], a))] = {
            (labels[a] + labels[b], lab): field.embed(c) for lab, c in out.items()
        }
    for lab, deg in basis:
        table.setdefault(((deg, lab), (0, unit)), {(deg, lab): field.one})
        table.setdefault(((0, unit), (deg, lab)), {(deg, lab): field.one})
    diff = {}
    if differential:
        dtable = {}
        for lab, img in differential.items():
            dtable[(labels[lab], lab)] = {
                (labels[lab] + 1, l2): field.embed(c) for l2, c in img.items()
            }
        diff[(obj, obj)] = dtable
    units = {obj: {(0, unit): field.one}}
    return DgCategory(field, [obj], homs, diff, {(obj, obj, obj): table}, units)


def disjoint_points_category(field, names) -> DgCategory:
    """Several objects with End = k and no morphisms between them."""
    homs = {}
    comp = {}
    units = {}
    for x in names:
        homs[(x, x)] = GradedSpace({0: ["1"]})
        comp[(x, x, x)] = {(((0, "1"), (0, "1"))): {(0, "1"): field.one}}
        units[x] = {(0, "1"): field.one}
    return DgCategory(field, list(names), homs, {}, comp, units)


def hull_inclusion(sub: DgCategory, sup: DgCategory, name="incl") -> DgFunctor:
    """Inclusion of a full subcategory (same object keys) into a larger one."""
    obj_map = {}
    for xs in sub.objects:
        if xs not in sup.objects:
            raise StructureError(f"{xs} missing from the larger category")
        obj_map[xs] = xs
    one = sub.field.one
    return keyed_functor(sub, sup, obj_map, lambda xs, ys, key: Mor(xs, ys, {key: one}), name=name)
