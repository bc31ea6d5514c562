"""Finite groups, conjugacy data, representations, and group actions on
dg categories with full coherence validation.

Composition-order convention (kept verbatim from the coherence data): the
structure isomorphism theta[g, g2] goes rho_g∘rho_g2 ⇒ rho_{g2·g}, a
right-action shape; every downstream formula is transcribed unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    ValidationReport,
    compose_functors,
    functors_equal,
    identity_functor,
    keyed_functor,
    misplaced_components,
    nat_inverse,
    nat_vertical,
    parity_sign,
    tensor_product_many,
    validate_functor,
    validate_nat,
)
from .errors import StructureError
from .linalg import SparseMatrix
from .scalars import QQ


class FiniteGroup:
    """A group given by a full multiplication table; validated on
    construction (associativity, identity, inverses)."""

    def __init__(self, elements, table, name="G"):
        self.elements = list(elements)
        self.table = dict(table)
        self.name = name
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise StructureError("duplicate group element names")
        for a, b in itertools.product(self.elements, repeat=2):
            if self.table.get((a, b)) not in elems:
                raise StructureError(f"multiplication table incomplete at ({a}, {b})")
        identity = None
        for e in self.elements:
            if all(
                self.table[(e, a)] == a and self.table[(a, e)] == a
                for a in self.elements
            ):
                identity = e
                break
        if identity is None:
            raise StructureError("no identity element")
        self.identity = identity
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                raise StructureError(f"associativity fails at ({a}, {b}, {c})")
        self.inverses = {}
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] == identity and self.table[(b, a)] == identity:
                    self.inverses[a] = b
                    break
            else:
                raise StructureError(f"no inverse for {a}")

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        return self.inverses[a]

    def __len__(self):
        return len(self.elements)

    def generating_set(self):
        """Generators in element order: each element that the ones kept
        before it do not generate.  Never e, except that the trivial group
        returns [e].  In a finite group the products of generators (the
        monoid they generate) are the whole group."""
        gens = []
        reached = {self.identity}
        for g in self.elements:
            if g in reached:
                continue
            gens.append(g)
            todo = list(reached)
            while todo:
                x = todo.pop()
                for s in gens:
                    y = self.mul(x, s)
                    if y not in reached:
                        reached.add(y)
                        todo.append(y)
        return gens or [self.identity]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {len(self)})"

    @classmethod
    def cyclic(cls, n, names=None):
        if names is None:
            names = ["e"] + [f"r{i}" for i in range(1, n)]
        table = {
            (names[i], names[j]): names[(i + j) % n]
            for i in range(n)
            for j in range(n)
        }
        return cls(names, table, name=f"Z/{n}")

    @classmethod
    def symmetric(cls, n):
        """S_n on permutation tuples; the product is composition of maps,
        so names multiply as mul(a, b) = a∘b."""
        perms = sorted(itertools.permutations(range(n)))
        name = lambda p: "".join(str(i + 1) for i in p)
        table = {}
        for a in perms:
            for b in perms:
                prod = tuple(a[b[i]] for i in range(n))
                table[(name(a), name(b))] = name(prod)
        g = cls([name(p) for p in perms], table, name=f"S{n}")
        g.perm_of = {name(p): p for p in perms}
        return g


@dataclass
class ClassData:
    group: FiniteGroup
    classes: list  # list of sorted element-name lists
    representatives: list  # lexicographically least name per class
    class_of: dict  # element -> representative
    centralizers: dict  # element -> sorted list of names


def conjugacy_data(group: FiniteGroup) -> ClassData:
    """Conjugacy classes with deterministic representatives and per-element
    centralizers; checks |class|·|centralizer| = |G|."""
    seen = {}
    classes = []
    for g in group.elements:
        if g in seen:
            continue
        orbit = sorted(
            {group.mul(group.mul(group.inv(h), g), h) for h in group.elements}
        )
        for x in orbit:
            seen[x] = orbit[0]
        classes.append(orbit)
    representatives = [min(c) for c in classes]
    class_of = {g: min(c) for c in classes for g in c}
    centralizers = {
        g: sorted(h for h in group.elements if group.mul(h, g) == group.mul(g, h))
        for g in group.elements
    }
    for c in classes:
        for g in c:
            if len(c) * len(centralizers[g]) != len(group):
                raise StructureError("orbit-stabilizer count failed")
    return ClassData(group, classes, representatives, class_of, centralizers)


class Representation:
    """Finite-dimensional representation by invertible scalar matrices,
    with mats[a]·mats[b] = mats[ab]."""

    def __init__(self, group: FiniteGroup, dim, matrices, name="V", field=QQ):
        self.group = group
        self.dim = dim
        self.name = name
        self.field = field
        self.mats = {}
        for g in group.elements:
            m = matrices[g]
            if not isinstance(m, SparseMatrix):
                m = SparseMatrix.from_rows(m)
            if (m.nrows, m.ncols) != (dim, dim):
                raise StructureError(f"matrix for {g} is not {dim}x{dim}")
            self.mats[g] = m
        ident = SparseMatrix.identity(dim, one=field.one)
        if not self.mats[group.identity] == ident:
            raise StructureError("identity element does not act as identity")
        for a, b in itertools.product(group.elements, repeat=2):
            if not self.mats[a] * self.mats[b] == self.mats[group.mul(a, b)]:
                raise StructureError(f"not a homomorphism at ({a}, {b})")

    def entry(self, g, i, j):
        return self.mats[g].get(i, j)

    def __repr__(self):
        return f"Representation({self.name}, dim {self.dim})"


def trivial_representation(group, field=QQ):
    one = [[field.one]]
    return Representation(group, 1, {g: one for g in group.elements}, name="trivial", field=field)


def regular_representation(group, field=QQ):
    """Left regular representation: g sends basis vector e_h to e_{gh}."""
    idx = {g: i for i, g in enumerate(group.elements)}
    mats = {}
    for g in group.elements:
        m = SparseMatrix(len(group), len(group))
        for h in group.elements:
            m.set(idx[group.mul(g, h)], idx[h], field.one)
        mats[g] = m
    return Representation(group, len(group), mats, name="regular", field=field)


def sign_representation_s(group, field=QQ):
    """Sign of a symmetric group built by FiniteGroup.symmetric."""
    mats = {}
    for g in group.elements:
        p = group.perm_of[g]
        inv = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
        mats[g] = [[field.embed(parity_sign(inv))]]
    return Representation(group, 1, mats, name="sign", field=field)


def character(rep: Representation, classes: ClassData = None):
    """Class function of traces at class representatives; checked constant
    on each class."""
    classes = classes or conjugacy_data(rep.group)
    trace = lambda g: sum(
        (rep.entry(g, i, i) for i in range(rep.dim)), rep.field.zero
    )
    values = {}
    for cls, rep_name in zip(classes.classes, classes.representatives):
        t = trace(rep_name)
        for g in cls:
            if not trace(g) == t:
                raise StructureError(f"trace not constant on the class of {rep_name}")
        values[rep_name] = t
    return values


# ---------------------------------------------------------------------------
# group actions on dg categories


class GroupAction:
    """Action data: one endofunctor per element, coherence isomorphisms
    theta[g, g2]: rho_g∘rho_g2 ⇒ rho_{g2 g}, and eta: rho_e ⇒ id."""

    def __init__(self, group: FiniteGroup, category: DgCategory, functors, theta, eta, name="action"):
        self.group = group
        self.category = category
        self.functors = functors
        self.theta = theta
        self.eta = eta
        self.name = name

    def rho(self, g) -> DgFunctor:
        return self.functors[g]

    def theta_at(self, g, g2) -> NatTransform:
        try:
            return self.theta[(g, g2)]
        except KeyError as exc:
            raise StructureError(f"missing theta component for ({g}, {g2})") from exc

    def conjugation_transform(self, h, g, g2) -> NatTransform:
        """theta[g,h]^{-1} ∘ theta[h,g2]: rho_h∘rho_g2 ⇒ rho_g∘rho_h, for
        g2·h = h·g (both thetas then end at rho_{h g})."""
        if self.group.mul(g2, h) != self.group.mul(h, g):
            raise StructureError(f"{g2}·{h} != {h}·{g}: {h} does not conjugate {g} to {g2}")
        t_hg2 = self.theta_at(h, g2)
        t_gh_inv = nat_inverse(self.theta_at(g, h))
        return nat_vertical(t_gh_inv, t_hg2, name=f"C[{h};{g},{g2}]")

    def centralizer_transform(self, h, g) -> NatTransform:
        """rho_h∘rho_g ⇒ rho_g∘rho_h for commuting g, h."""
        return self.conjugation_transform(h, g, g)


def strict_action(group: FiniteGroup, category: DgCategory, functors, name="strict") -> GroupAction:
    """Action with identity coherence data; requires rho_g∘rho_g2 to equal
    rho_{g2 g} on the nose."""
    theta = {}
    for g, g2 in itertools.product(group.elements, repeat=2):
        comp = compose_functors(functors[g], functors[g2])
        target = functors[group.mul(g2, g)]
        if not functors_equal(comp, target):
            raise StructureError(f"action not strict at ({g}, {g2})")
        comps = {
            x: category.unit(comp.apply_obj(x)) for x in category.objects
        }
        theta[(g, g2)] = NatTransform(comp, target, comps, name=f"theta[{g},{g2}]")
    rho_e = functors[group.identity]
    eta = NatTransform(
        rho_e,
        identity_functor(category),
        {x: category.unit(rho_e.apply_obj(x)) for x in category.objects},
        name="eta",
    )
    return GroupAction(group, category, functors, theta, eta, name=name)


def trivial_action(group: FiniteGroup, category: DgCategory) -> GroupAction:
    ident = identity_functor(category)
    return strict_action(group, category, {g: ident for g in group.elements}, name="trivial")


def validate_action(action: GroupAction) -> ValidationReport:
    """Functor/transformation validity, invertibility of all coherence
    components, and the two coherence conditions, each instance exact.  A
    coherence instance that reads a theta or eta component with wrong
    endpoints is skipped; that component is reported as a structure
    violation instead."""
    report = ValidationReport(f"action {action.name}")
    cat = action.category
    grp = action.group
    misplaced = {}  # transformation -> objects of its misplaced components

    def placed(t, x):
        if t not in misplaced:
            misplaced[t] = misplaced_components(t)
        return x not in misplaced[t]

    for g in grp.elements:
        sub = validate_functor(action.rho(g))
        for v in sub.violations:
            report.add(v.rule, f"rho[{g}]: {v.witness}")
    for g, g2 in itertools.product(grp.elements, repeat=2):
        t = action.theta_at(g, g2)
        comp = compose_functors(action.rho(g), action.rho(g2))
        if not functors_equal(t.src, comp):
            report.add("structure", f"theta[{g},{g2}] source is not rho_{g}∘rho_{g2}")
        if not functors_equal(t.tgt, action.rho(grp.mul(g2, g))):
            report.add("structure", f"theta[{g},{g2}] target is not rho_{grp.mul(g2, g)}")
        sub = validate_nat(t)
        for v in sub.violations:
            report.add(v.rule, f"theta[{g},{g2}]: {v.witness}")
        for x in cat.objects:
            if cat.invert(t.at(x)) is None:
                report.add("invertibility", f"theta[{g},{g2}] not invertible at {x}")
    sub = validate_nat(action.eta)
    for v in sub.violations:
        report.add(v.rule, f"eta: {v.witness}")
    for x in cat.objects:
        if cat.invert(action.eta.at(x)) is None:
            report.add("invertibility", f"eta not invertible at {x}")
    e = grp.identity
    eta = action.eta
    for g in grp.elements:
        rho_g = action.rho(g)
        t_eg = action.theta_at(e, g)
        t_ge = action.theta_at(g, e)
        for x in cat.objects:
            rx = rho_g.apply_obj(x)
            if placed(t_eg, x) and placed(eta, rx) and not t_eg.at(x) == eta.at(rx):
                report.add("condition_i", f"(theta[e,{g}])_{x} != eta at rho_{g}({x})")
            if placed(t_ge, x) and placed(eta, x) and not t_ge.at(x) == rho_g.apply(eta.at(x)):
                report.add("condition_i", f"(theta[{g},e])_{x} != rho_{g}(eta_{x})")
    for g, h, k in itertools.product(grp.elements, repeat=3):
        kh = grp.mul(k, h)
        hg = grp.mul(h, g)
        t_hk = action.theta_at(h, k)
        t_g_kh = action.theta_at(g, kh)
        t_gh = action.theta_at(g, h)
        t_hg_k = action.theta_at(hg, k)
        rho_g = action.rho(g)
        rho_k = action.rho(k)
        for x in cat.objects:
            kx = rho_k.apply_obj(x)
            if not all(placed(t, y) for t, y in ((t_g_kh, x), (t_hk, x), (t_hg_k, x), (t_gh, kx))):
                continue
            top = cat.compose(t_g_kh.at(x), rho_g.apply(t_hk.at(x)))
            left = cat.compose(t_hg_k.at(x), t_gh.at(kx))
            if not top == left:
                report.add(
                    "condition_ii", f"coherence square fails at ({g},{h},{k}), object {x}"
                )
    return report


def permutation_action(category: DgCategory, n: int):
    """The symmetric-group action on the n-fold tensor power, permuting
    factors with Koszul signs; strictly coherent.

    Returns (action, tensor_power_category).
    """
    if n < 1:
        raise StructureError("tensor power needs n >= 1")
    power = tensor_product_many([category] * n)
    group = FiniteGroup.symmetric(n)

    def swap(gname):
        perm = group.perm_of[gname]
        obj_map = {xs: tuple(xs[p] for p in perm) for xs in power.objects}
        inversions = [(perm[j], perm[i]) for i in range(n) for j in range(i) if perm[j] > perm[i]]

        def image(xs, ys, key):
            deg, keys = key
            sign = parity_sign(sum(keys[a][0] * keys[b][0] for a, b in inversions))
            new_keys = tuple(keys[p] for p in perm)
            return Mor(obj_map[xs], obj_map[ys], {(deg, new_keys): power.field.one * sign})

        return keyed_functor(power, power, obj_map, image, name=f"swap[{gname}]")

    functors = {gname: swap(gname) for gname in group.elements}
    return strict_action(group, power, functors, name=f"S{n} permutation"), power
