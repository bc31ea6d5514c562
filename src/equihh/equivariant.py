"""Equivariant objects and the equivariant dg category.

An equivariant object is an underlying additive-hull object c together
with closed degree-0 isomorphisms alpha_g: c → rho_g(c) satisfying the
coherence square theta[g,h]^{-1} ∘ alpha_{hg} = rho_g(alpha_h) ∘ alpha_g.
The equivariant category on a finite roster has hom complexes carved out
of the ambient hull homs by the linear condition
alpha'_g ∘ φ = rho_g(φ) ∘ alpha_g for every g, solved exactly per degree.
When the base category and action validate, the conditions of a
generating set of G are stacked; they imply the others.

Both the conditions and the compositions are read from the structure
tables, not built one morphism at a time.  The condition on a basis key
φ pairs φ and rho_g's image of φ (``DgFunctor.image``) only with the
alpha terms in the blocks they meet, each product an entry of a base
composition table (``dgcat.hull_product``).  The category's own
composition tables come from the same product: each solved vector g
against the whole solved basis of the next hom in one pass, and each
product is restricted to the solved basis.  So neither the solve, nor
the validation of roster objects, nor a composition table builds a hull
composition table.  Tables, alphas, images and solved bases hold
canonical scalars (``scalars.rational``), so the sums run on ints where
the tables are integral, as in every bundled example.  Each solved
vector has 1 at its last key, its free key, where no other vector of its
degree is nonzero, so ``restrict`` reads coordinates at the free keys a
morphism holds and keeps a morphism they leave no residual of.

Also here, and nowhere else: every piece of the symmetrization S and
its adjunctions with forget.  The category names S(c) in its roster
(``sym_name``) and builds S on morphisms (``symmetrization_functor``),
the natural isomorphism phi_g: S∘rho_g ⇒ S (``phi_component``) and the
pair I_X: X → S(forget X), P_X: S(forget X) → X (``unit_counit``).
Beside them: tensoring a roster object by a representation, the
adjunction correspondences, and the comparison isomorphism between the
regular-representation tensor and symmetrize-after-forget.  Each of
these is a block matrix over the parts of S(c) = ⊕_h rho_h(c) or
V⊗X = X^{⊕dim V}; ``dgcat`` owns the hull block layout, so they name
blocks by part index (``block_mor``, ``block_of``, ``hull_entries``) and
compute no offsets.  Each one that must be equivariant (S and T_V on a
morphism, phi_g, a unit) is restricted through ``_restricted``.
"""

from __future__ import annotations

import itertools

from .dgcat import (
    DgCategory,
    DgFunctor,
    LazyDict,
    Mor,
    NatTransform,
    ValidationReport,
    block_mor,
    block_of,
    compose_functors,
    full_subcategory,
    hull_compose,
    hull_entries,
    hull_index,
    hull_product,
    hull_subcategory,
    identity_functor,
    keyed_functor,
    lift_functor_to_hull,
    spread,
    validate_dgcat,
)
from .errors import CapacityError, EquihhError, StructureError
from .groups import GroupAction, regular_representation, validate_action
from .linalg import GradedSpace, SparseMatrix, rank_kernel_image, vec_axpy


def closure_under_action(action: GroupAction, tuples):
    """Close a set of hull tuples under the componentwise object maps."""
    todo = [tuple(t) for t in tuples]
    seen = set()
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        for g in action.group.elements:
            img = tuple(action.rho(g).apply_obj(x) for x in t)
            if img not in seen:
                todo.append(img)
    index = {x: i for i, x in enumerate(action.category.objects)}
    return sorted(seen, key=lambda t: (len(t), [index[x] for x in t]))


def lift_action(action: GroupAction, tuples) -> GroupAction:
    """Lift a base action to the hull subcategory on the closure of the
    given tuples under the action."""
    objs = closure_under_action(action, tuples)
    hull = hull_subcategory(action.category, objs)
    functors = {
        g: lift_functor_to_hull(action.rho(g), hull, hull, name=f"rho[{g}]")
        for g in action.group.elements
    }

    def lift_components(base_nat):
        def build(xs):
            comps = [base_nat.at(x) for x in xs]
            coeffs = {}
            for j, comp in enumerate(comps):
                coeffs.update(hull_entries(comp.coeffs, j, j))
            return Mor(tuple(m.src for m in comps), tuple(m.tgt for m in comps), coeffs)

        return LazyDict(build)

    theta = {}
    for g, g2 in itertools.product(action.group.elements, repeat=2):
        base = action.theta_at(g, g2)
        theta[(g, g2)] = NatTransform(
            compose_functors(functors[g], functors[g2]),
            functors[action.group.mul(g2, g)],
            lift_components(base),
            name=f"theta[{g},{g2}]",
        )
    eta = NatTransform(
        functors[action.group.identity],
        identity_functor(hull),
        lift_components(action.eta),
        name="eta",
    )
    lifted = GroupAction(action.group, hull, functors, theta, eta, name=f"hull({action.name})")
    lifted.base = action
    return lifted


class EquivariantObject:
    """An underlying hull tuple with its structure isomorphisms alpha_g."""

    def __init__(self, name, underlying, alpha):
        self.name = name
        self.underlying = tuple(underlying)
        self.alpha = alpha  # g -> Mor(underlying -> rho_g(underlying))

    def signature(self):
        return (self.underlying, tuple(sorted(
            (g, tuple(sorted(m.coeffs.items()))) for g, m in self.alpha.items()
        )))

    def __repr__(self):
        return f"EquivariantObject({self.name}, {self.underlying})"


def validate_equivariant(laction: GroupAction, obj: EquivariantObject, inverses=None) -> ValidationReport:
    """Closedness, degree, invertibility and the coherence square per
    pair (g, h), each instance checked exactly.  The square is checked as
    alpha_{hg} = theta[g,h]_c ∘ rho_g(alpha_h) ∘ alpha_g, which needs no
    inverse and says the same wherever theta is invertible; its composites
    are read blockwise off the base (``dgcat.hull_compose``), so no hull
    composition table is built.  Invertibility is judged on ``inverses``
    (``alpha_inverses`` unless the caller keeps its own)."""
    report = ValidationReport(f"equivariant object {obj.name}")
    cat = laction.category
    grp = laction.group
    c = obj.underlying
    if inverses is None:
        inverses = alpha_inverses(laction, obj)
    for g in grp.elements:
        if g not in obj.alpha:
            raise StructureError(f"{obj.name}: alpha missing for {g}")
        a = obj.alpha[g]
        expected_tgt = laction.rho(g).apply_obj(c)
        if a.src != c or a.tgt != expected_tgt:
            report.add("structure", f"alpha[{g}] has wrong endpoints")
            continue
        if a.coeffs and a.degrees() != [0]:
            report.add("degree", f"alpha[{g}] not degree 0")
        if not cat.d(a).is_zero():
            report.add("closedness", f"alpha[{g}] not closed")
        if inverses[g] is None:
            report.add("invertibility", f"alpha[{g}] not invertible")
    if not report.ok:
        return report
    for g, h in itertools.product(grp.elements, repeat=2):
        hg = grp.mul(h, g)
        rhs = hull_compose(cat, laction.rho(g).apply(obj.alpha[h]), obj.alpha[g])
        if not obj.alpha[hg] == hull_compose(cat, laction.theta_at(g, h).at(c), rhs):
            report.add("cocycle", f"coherence square fails at ({g}, {h})")
    return report


def alpha_inverses(laction: GroupAction, obj: EquivariantObject) -> LazyDict:
    """g -> alpha_g^{-1} (or None), each found by ``alpha_inverse`` on its
    first lookup; the others read alpha_e^{-1} from here, so it is found
    once too."""
    inverses = LazyDict(lambda g: alpha_inverse(laction, obj, g, inverses))
    return inverses


def alpha_inverse(laction: GroupAction, obj: EquivariantObject, g, inverses):
    """alpha_g^{-1}: rho_g(c) -> c, or None; builds ``alpha_inverses``,
    which it reads alpha_e^{-1} from.  The coherence square at (g, g^{-1})
    makes L = alpha_e^{-1}∘theta[g,g^{-1}]_c∘rho_g(alpha_{g^{-1}}) a left
    inverse of alpha_g.  L, and its composites with alpha_g, are read
    blockwise off the base (``dgcat.hull_compose``).  L is returned when
    it is a two-sided inverse of degree 0, hence the one
    ``DgCategory.invert`` finds; otherwise ``invert`` decides, so the
    verdict never rests on the square."""
    cat, grp, c, a = laction.category, laction.group, obj.underlying, obj.alpha[g]
    e, gi = grp.identity, grp.inv(g)
    if g != e and {e, gi} <= obj.alpha.keys():
        try:
            e_inv = inverses[e]
            if e_inv is not None:
                back = laction.rho(g).apply(obj.alpha[gi])
                back = hull_compose(cat, laction.theta_at(g, gi).at(c), back)
                back = hull_compose(cat, e_inv, back)
                if back.degrees() in ([], [0]) and hull_compose(cat, back, a) == cat.unit(c):
                    if hull_compose(cat, a, back) == cat.unit(a.tgt):
                        return back
        except StructureError:  # alpha_e, alpha_{g^-1} or theta does not fit
            pass
    return cat.invert(a)


def symmetrize_parts(laction: GroupAction, c):
    """The parts rho_h(c) of the symmetrization, in group element order
    (applied through the lifted object maps)."""
    return [laction.rho(h).apply_obj(tuple(c)) for h in laction.group.elements]


def symmetrize_tuple(laction: GroupAction, c):
    """Underlying tuple of the symmetrization: concat of its parts."""
    return sum(symmetrize_parts(laction, c), ())


def symmetrize(laction: GroupAction, c) -> EquivariantObject:
    """The symmetrization of a hull object: underlying ⊕_h rho_h(c) with
    alpha_g placing theta[g,h]^{-1} at block (h, hg)."""
    grp = laction.group
    cat = laction.category
    c = tuple(c)
    underlying = symmetrize_tuple(laction, c)
    if underlying not in cat.objects:
        raise CapacityError(f"symmetrization of {c} not materialized")
    parts = symmetrize_parts(laction, c)
    index = grp.elements.index
    alpha = {}
    for g in grp.elements:
        blocks = {}
        for h in grp.elements:
            inv = cat.invert(laction.theta_at(g, h).at(c))
            if inv is None:
                raise StructureError(f"theta[{g},{h}] is not invertible at {c}")
            blocks[(index(h), index(grp.mul(h, g)))] = inv
        tgt_parts = [laction.rho(g).apply_obj(part) for part in parts]
        alpha[g] = block_mor(parts, tgt_parts, blocks)
    return EquivariantObject(f"S({c})", underlying, alpha)


def rep_tensor(laction: GroupAction, rep, obj: EquivariantObject) -> EquivariantObject:
    """Tensor a roster object by a representation: dim(V) copies of the
    underlying object with alpha blocks rho_V(g)_{ij}·alpha_g."""
    cat = laction.category
    c = obj.underlying
    underlying = c * rep.dim
    if underlying not in cat.objects:
        raise CapacityError(f"{rep.name}⊗{obj.name} not materialized")
    alpha = {}
    for g in laction.group.elements:
        blocks = {
            (i, j): obj.alpha[g].scale(entry)
            for i in range(rep.dim)
            for j in range(rep.dim)
            if (entry := rep.entry(g, i, j))
        }
        tgt_parts = [laction.rho(g).apply_obj(c)] * rep.dim
        alpha[g] = block_mor([c] * rep.dim, tgt_parts, blocks)
    return EquivariantObject(f"{rep.name}⊗{obj.name}", underlying, alpha)


class EquivariantCategory:
    """The dg category of a finite roster of equivariant objects.

    Hom complexes are the exactly-solved equivariance subspaces of the
    ambient homs; basis labels are "q<deg>_0", "q<deg>_1", ... per degree
    in solving order.  A subspace whose differential leaves it raises
    StructureError.  ``embed``/``restrict`` convert between roster
    morphisms and ambient morphisms.  Each roster object is validated
    first, and an invalid one raises StructureError with its report: the
    homs are solved from the conditions of a generating set of G, which
    cut out the same subspace only for objects that satisfy the coherence
    square (see ``_solve_pair``).  ``base_valid`` is the verdict of
    ``base_violation`` on the base, if already known.  The alpha_g^{-1}
    that validation finds are kept in ``inverses``.
    """

    def __init__(self, laction: GroupAction, roster, base_valid=None):
        self.laction = laction
        self.ambient = laction.category
        self.roster = {}
        self.order = []
        self.inverses = {}  # name -> g -> alpha_g^{-1}
        for obj in roster:
            inverses = self.inverses[obj.name] = alpha_inverses(laction, obj)
            report = validate_equivariant(laction, obj, inverses)
            if not report.ok:
                raise StructureError(report.summary())
        for obj in roster:
            if obj.name in self.roster:
                raise StructureError(f"duplicate roster name {obj.name}")
            self.roster[obj.name] = obj
            self.order.append(obj.name)
        self._signatures = {o.signature(): name for name, o in self.roster.items()}
        self._solved = {}  # (src_name, tgt_name) -> dict[(deg,label) -> ambient coeffs]
        # (src_name, tgt_name) -> {free key: (deg, place among the pair's
        # solved vectors, label, ambient coeffs)}, built on first use
        self._free = LazyDict(lambda pair: {
            next(reversed(vec)): (label[0], n, label, vec)
            for n, (label, vec) in enumerate(self._solved.get(pair, {}).items())
        })
        self._sym_names = {}  # hull tuple c -> roster name of S(c)
        self._base_valid = base_valid
        self._conditions = self._condition_elements()
        self.category = self._build()

    # -- plumbing --------------------------------------------------------

    def find(self, obj: EquivariantObject, what) -> str:
        """Roster name of the entry with obj's underlying tuple and alpha;
        CapacityError naming ``what`` if there is none."""
        name = self._signatures.get(obj.signature())
        if name is None:
            raise CapacityError(f"{what} is not in the roster")
        return name

    def sym_name(self, c) -> str:
        """Roster name of the symmetrization S(c) of the hull tuple c."""
        c = tuple(c)
        if c not in self._sym_names:
            self._sym_names[c] = self.find(symmetrize(self.laction, c), f"symmetrization of {c}")
        return self._sym_names[c]

    def _condition_elements(self):
        """The elements whose equivariance conditions ``_solve_pair``
        stacks: G's generating set when the base of a lifted action is
        valid (``base_violation`` finds nothing), every element otherwise,
        as for an action that was not lifted.  A caller that has already
        run ``base_violation`` passes its verdict as ``base_valid``.  The
        hull's composition, its rho_g and its theta are built blockwise
        from the base's, so they inherit its associativity, functoriality
        and naturality."""
        grp = self.laction.group
        valid = self._base_valid
        if valid is None:
            base = getattr(self.laction, "base", None)
            valid = base is not None and base_violation(base) is None
        return grp.generating_set() if valid else list(grp.elements)

    def _solve_pair(self, src: EquivariantObject, tgt: EquivariantObject):
        """Kernel of the stacked equivariance conditions, one matrix per
        degree; deterministic elimination order gives reproducible bases.

        Only the elements of ``_condition_elements`` are stacked: a
        generating set of G when the base validates.  The lemma: if φ
        satisfies alpha'_g∘φ = rho_g(φ)∘alpha_g at g and at h, it does at
        hg = mul(h, g).  With the coherence square of both objects,
        alpha_{hg} = theta[g,h]∘rho_g(alpha_h)∘alpha_g, and associativity
        throughout:

            alpha'_{hg}∘φ = theta[g,h]∘rho_g(alpha'_h)∘alpha'_g∘φ
                = theta[g,h]∘rho_g(alpha'_h∘φ)∘alpha_g       (at g; rho_g a functor)
                = theta[g,h]∘rho_g(rho_h(φ))∘rho_g(alpha_h)∘alpha_g    (at h)
                = rho_{hg}(φ)∘alpha_{hg}               (theta[g,h] natural)

        A finite group is the monoid its generators generate, so their
        conditions cut out the kernel of all |G|.

        The condition alpha'_g∘φ - rho_g(φ)∘alpha_g on a basis key φ is
        read blockwise off the base's composition tables
        (``dgcat.hull_product``), with no hull table: per g, alpha'_g is
        indexed by column and alpha_g by row once, so the key φ at
        (i, j, lab) meets only alpha'_g's column i and alpha_g's rows at
        the columns of rho_g(φ) (``DgFunctor.image``), column j for a
        lifted action.  Rows are numbered in first-seen (g index, key)
        order; for a lifted action the matrices are those the hull tables
        give, row for row.  Table entries, alphas and images hold canonical
        scalars (``scalars.rational``), so the conditions are ints where the
        tables are integral; the kernel comes out of ``Echelon`` as
        canonical field scalars.  It is the reduced kernel basis (1 on a
        column that is a combination of earlier ones, the combination's
        coefficients on the earlier independent columns), which depends
        only on the subspace; each vector lists its keys in hom-key order,
        so neither depends on the rows the elimination saw.  A vector's
        last key is its free column, where no other vector of its degree
        is nonzero."""
        cat = self.laction.category
        base = cat.base
        c, c2 = src.underlying, tgt.underlying
        space = cat.hom(c, c2)
        if not space.total_dim():
            return {}
        per_g = []
        for g in self._conditions:
            rho = self.laction.rho(g)
            a_src, a_tgt = src.alpha[g], tgt.alpha[g]
            rho_c, rho_c2 = rho.apply_obj(c), rho.apply_obj(c2)
            if (a_src.src, a_src.tgt, a_tgt.src, a_tgt.tgt) != (c, rho_c, c2, rho_c2):
                raise StructureError(f"alpha[{g}] does not compose with {c}->{c2}")
            per_g.append((
                rho,
                rho_c,
                rho_c2,
                hull_index([a_tgt.coeffs.items()]),
                hull_index([a_src.coeffs.items()], 0),
            ))
        solved = {}
        for deg in space.degrees():
            keys = [(deg, lab) for lab in space.labels(deg)]
            rows = {}
            matrix_cols = []
            for key in keys:
                col = {}
                for gi, (rho, rho_c, rho_c2, tgt_cols, src_rows) in enumerate(per_g):
                    (lhs,) = hull_product(base, c, c2, rho_c2, ((key, 1),), tgt_cols)
                    image = hull_index([rho.image(c, c2, key).coeffs.items()])
                    src_terms = [term for mid in image for term, _ in src_rows.get(mid, ())]
                    (rhs,) = hull_product(base, c, rho_c, rho_c2, src_terms, image)
                    for dkey, val in vec_axpy(lhs, -1, rhs).items():
                        row = rows.setdefault((gi, dkey), len(rows))
                        col[row] = val
                matrix_cols.append(col)
            mat = SparseMatrix(len(rows), len(keys))
            for j, col in enumerate(matrix_cols):
                mat.cols[j] = col
            _, kernel = rank_kernel_image(mat, cat.field)
            basis = [{keys[i]: vec[i] for i in sorted(vec)} for vec in kernel]
            if basis:
                solved[deg] = basis
        return solved

    def _build(self):
        cat = self.laction.category
        homs = {}
        diff = {}
        names = self.order
        for sn in names:
            for tn in names:
                src, tgt = self.roster[sn], self.roster[tn]
                table = {}
                space_basis = {}
                for deg, basis in self._solve_pair(src, tgt).items():
                    space_basis[deg] = [f"q{deg}_{i}" for i in range(len(basis))]
                    for lab, coeffs in zip(space_basis[deg], basis):
                        table[(deg, lab)] = coeffs
                self._solved[(sn, tn)] = table
                space = GradedSpace(space_basis)
                if space.total_dim():
                    homs[(sn, tn)] = space
                # d of a solved vector must lie in the solved space
                dtable = {}
                for key, coeffs in table.items():
                    damb = cat.d(Mor(src.underlying, tgt.underlying, coeffs))
                    if damb.is_zero():
                        continue
                    restricted = self.restrict(damb, sn, tn)
                    if restricted is None:
                        raise StructureError(f"equivariance subspace of ({sn}, {tn}) not d-stable")
                    dtable[key] = restricted.coeffs
                if dtable:
                    diff[(sn, tn)] = dtable
        units = {
            sn: self._restricted(cat.unit(self.roster[sn].underlying), sn, sn, f"unit of {sn}").coeffs
            for sn in names
        }

        def comp_builder(xn, yn, zn):
            # each g against every f in one blockwise pass over the base
            gs, fs = self._solved[(xn, yn)], self._solved[(yn, zn)]
            x, y, z = (self.roster[n].underlying for n in (xn, yn, zn))
            f_by_col = hull_index([f.items() for f in fs.values()])
            table = {}
            for gkey, g in gs.items():
                prods = hull_product(cat.base, x, y, z, g.items(), f_by_col, len(fs))
                for fkey, prod in zip(fs, prods):
                    coords = self._coordinates(prod, xn, zn) if prod else {}
                    if coords is None:
                        raise StructureError(
                            f"composite of ({xn},{yn},{zn}) leaves the solved subspace"
                        )
                    if coords:
                        table[(gkey, fkey)] = coords
            return table

        return DgCategory(
            cat.field, list(names), homs, diff, {}, units, comp_builder=comp_builder
        )

    def embed(self, mor: Mor, src_name, tgt_name) -> Mor:
        """Roster morphism -> ambient morphism."""
        table = self._solved[(src_name, tgt_name)]
        src = self.roster[src_name]
        tgt = self.roster[tgt_name]
        return Mor(src.underlying, tgt.underlying, spread(table.__getitem__, mor.coeffs))

    def restrict(self, amb: Mor, src_name, tgt_name) -> Mor | None:
        """Ambient morphism -> roster morphism, or None if it is not
        equivariant (not in the solved span; ``_coordinates``)."""
        coords = self._coordinates(amb.coeffs, src_name, tgt_name)
        return None if coords is None else Mor(src_name, tgt_name, coords)

    def _coordinates(self, coeffs, src_name, tgt_name):
        """The roster coordinates {label: canonical field scalar} of ambient
        coefficients, or None outside the solved span.  A coordinate is the
        value at its vector's free key, where no other vector of its degree
        is nonzero, so only the free keys that ``coeffs`` holds are read
        (``_free``); coordinates come in degree order of first appearance,
        then free position.  The coefficients are in the span exactly when
        those multiples leave no residual."""
        free = self._free[(src_name, tgt_name)]
        hits = sorted((*free[key], c) for key, c in coeffs.items() if c and key in free)
        if hits and hits[0][0] != hits[-1][0]:  # degrees by first appearance, not value
            first = {deg: n for n, deg in enumerate(dict.fromkeys(deg for deg, _ in coeffs))}
            hits.sort(key=lambda hit: first[hit[0]])
        residual, out = dict(coeffs), {}
        canonical = self.ambient.field.canonical
        for _, _, label, vec, c in hits:
            vec_axpy(residual, -c, vec)
            out[label] = canonical(c)
        return None if residual else out

    def _restricted(self, amb: Mor, src_name, tgt_name, what) -> Mor:
        """``restrict``, raising StructureError "<what> is not equivariant" on None."""
        restricted = self.restrict(amb, src_name, tgt_name)
        if restricted is None:
            raise StructureError(f"{what} is not equivariant")
        return restricted

    # -- canonical functors ----------------------------------------------

    def forgetful_functor(self, src: DgCategory, tgt: DgCategory) -> DgFunctor:
        """forget from a full subcategory of the roster category into a
        hull subcategory holding every underlying object."""
        obj_map = {name: self.roster[name].underlying for name in src.objects}

        def image(sn, tn, key):
            return self.embed(Mor(sn, tn, {key: self.ambient.field.one}), sn, tn)

        return keyed_functor(src, tgt, obj_map, image, name="forget")

    def symmetrization_functor(self, small: DgCategory) -> DgFunctor:
        """S on a hull subcategory whose symmetrizations are all rostered."""
        laction, grp = self.laction, self.laction.group
        obj_map = {c: self.sym_name(c) for c in small.objects}
        parts = {c: symmetrize_parts(laction, c) for c in small.objects}

        def image(xs, ys, key):
            f = Mor(xs, ys, {key: self.ambient.field.one})
            blocks = {(hi, hi): laction.rho(h).apply(f) for hi, h in enumerate(grp.elements)}
            amb = block_mor(parts[xs], parts[ys], blocks)
            return self._restricted(amb, obj_map[xs], obj_map[ys], "symmetrized morphism")

        return keyed_functor(small, self.category, obj_map, image, name="symmetrize")

    def phi_component(self, g, c) -> Mor:
        """The component at the hull tuple c of phi_g: S∘rho_g ⇒ S, that is
        S(rho_g(c)) -> S(c) with blocks theta[h2, g] at (mul(g, h2), h2),
        restricted to the roster."""
        laction = self.laction
        grp = laction.group
        c = tuple(c)
        gc = laction.rho(g).apply_obj(c)
        index = grp.elements.index
        blocks = {
            (index(grp.mul(g, h2)), index(h2)): laction.theta_at(h2, g).at(c)
            for h2 in grp.elements
        }
        amb = block_mor(symmetrize_parts(laction, gc), symmetrize_parts(laction, c), blocks)
        return self._restricted(amb, self.sym_name(gc), self.sym_name(c), f"phi[{g}] at {c}")

    def unit_counit(self, name):
        """(I_X, P_X) for the roster entry X on c = forget X, as roster
        morphisms: I_X: X -> S(c) with blocks alpha_h at (h, 0) and
        P_X: S(c) -> X with blocks alpha_h^{-1} at (0, h), so that
        I_X∘P_X is the sum of the twists phi_g ⋆ alpha_g and P_X∘I_X is
        |G|·id_X.  Either is None where it is not equivariant."""
        obj = self.roster[name]
        c = obj.underlying
        sname = self.sym_name(c)
        parts = symmetrize_parts(self.laction, c)
        elements = self.laction.group.elements
        i_amb = block_mor([c], parts, {(hi, 0): obj.alpha[h] for hi, h in enumerate(elements)})
        p_blocks = {(0, hi): self.inverses[name][h] for hi, h in enumerate(elements)}
        return (
            self.restrict(i_amb, name, sname),
            self.restrict(block_mor(parts, [c], p_blocks), sname, name),
        )

    def rep_tensor_functor(self, rep, source_names) -> DgFunctor:
        """T_V = V⊗(-) from the full subcategory on ``source_names`` into
        the roster category; all images must be rostered."""
        source = full_subcategory(self.category, source_names)
        obj_map = {}
        for name in source_names:
            tensored = rep_tensor(self.laction, rep, self.roster[name])
            obj_map[name] = self.find(tensored, f"{rep.name}⊗{name}")

        def image(sn, tn, key):
            amb = self.embed(Mor(sn, tn, {key: self.ambient.field.one}), sn, tn)
            blocks = {(i, i): amb for i in range(rep.dim)}
            big = block_mor([amb.src] * rep.dim, [amb.tgt] * rep.dim, blocks)
            return self._restricted(big, obj_map[sn], obj_map[tn], "tensored morphism")

        return keyed_functor(source, self.category, obj_map, image, name=f"T[{rep.name}]")


def realize_declared(laction: GroupAction, decl) -> EquivariantObject:
    """Turn a declared roster entry (flat alpha matrices over base labels)
    into an EquivariantObject in the lifted hull."""
    underlying = tuple(decl.underlying)
    alpha = {}
    for g, entries in decl.alpha_entries.items():
        coeffs = {}
        for (i, j, deg, lab), c in entries.items():
            coeffs.update(hull_entries({(deg, lab): c}, i, j))
        alpha[g] = Mor(underlying, laction.rho(g).apply_obj(underlying), coeffs)
    missing = set(laction.group.elements) - set(alpha)
    if missing:
        raise StructureError(f"{decl.name}: alpha missing for {sorted(missing)}")
    return EquivariantObject(decl.name, underlying, alpha)


def base_violation(action: GroupAction):
    """The first violation of ``validate_dgcat`` on the action's category,
    else of ``validate_action``, as one line; None when both validate.  A
    validator that raises a package error fails with that error's text."""
    try:
        for validate, subject in ((validate_dgcat, action.category), (validate_action, action)):
            report = validate(subject)
            if not report.ok:
                v = report.violations[0]
                return f"{report.subject}: [{v.rule}] {v.witness}"
    except EquihhError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# adjunction and the comparison isomorphism


def adjunction_maps(eqcat: EquivariantCategory, cprime, oname):
    """The two correspondences of the symmetrization/forget adjunction for
    one (plain object, roster entry) pair, with their verification.

    Returns a dict with booleans for the chain-map property and the two
    composites, and the dimensions of the two hom complexes.
    As printed, the counit-side formula does not typecheck; inverses are
    placed as forced by composability: φ = eta_c ∘ alpha_e ∘ psi_e ∘ eta_{c'}^{-1}.
    """
    laction = eqcat.laction
    cat = laction.category
    grp = laction.group
    e = grp.identity
    cprime = tuple(cprime)
    obj = eqcat.roster[oname]
    c = obj.underlying
    sname = eqcat.sym_name(cprime)
    parts = symmetrize_parts(laction, cprime)
    alpha_inv = eqcat.inverses[oname]
    eta_c = laction.eta.at(c)
    eta_cprime_inv = cat.invert(laction.eta.at(cprime))
    alpha_e = obj.alpha[e]

    def forward(phi: Mor) -> Mor | None:
        blocks = {
            (0, gi): cat.compose(alpha_inv[g], laction.rho(g).apply(phi))
            for gi, g in enumerate(grp.elements)
        }
        return eqcat.restrict(block_mor(parts, [c], blocks), sname, oname)

    def backward(psi: Mor) -> Mor:
        amb = eqcat.embed(psi, sname, oname)
        psi_e = block_of(amb, parts, [c], 0, grp.elements.index(e))
        return cat.compose(
            eta_c, cat.compose(alpha_e, cat.compose(psi_e, eta_cprime_inv))
        )

    forwarded = 0
    chain_map_ok = True
    round_trip_ok = True
    for key in cat.basis_keys(cprime, c):
        phi = cat.basis_mor(cprime, c, *key)
        img = forward(phi)
        if img is None:
            round_trip_ok = False
            continue
        forwarded += 1
        dimg = forward(cat.d(phi))
        if dimg is None or not dimg == eqcat.category.d(img):
            chain_map_ok = False
        if not backward(img) == phi:
            round_trip_ok = False
    for key in eqcat.category.basis_keys(sname, oname):
        psi = Mor(sname, oname, {key: cat.field.one})
        img = forward(backward(psi))
        if img is None or not img == psi:
            round_trip_ok = False
    dims_match = forwarded == cat.hom(cprime, c).total_dim()
    return {
        "chain_map": chain_map_ok,
        "mutually_inverse": round_trip_ok and dims_match,
        "hom_dimension": cat.hom(cprime, c).total_dim(),
        "equivariant_hom_dimension": eqcat.category.hom(sname, oname).total_dim(),
    }


def sfor_iso(eqcat: EquivariantCategory, oname):
    """The comparison isomorphism (regular rep)⊗o → S(For(o)) given by the
    block matrix with alpha_g at (g, g^{-1}); returned as a roster
    morphism plus a verification report."""
    laction = eqcat.laction
    cat = laction.category
    grp = laction.group
    obj = eqcat.roster[oname]
    c = obj.underlying
    reg = regular_representation(grp, field=cat.field)
    tname = eqcat.find(rep_tensor(laction, reg, obj), f"{reg.name}⊗{oname}")
    sname = eqcat.sym_name(c)
    index = grp.elements.index
    blocks = {(index(g), index(grp.inv(g))): obj.alpha[g] for g in grp.elements}
    amb = block_mor([c] * len(grp), symmetrize_parts(laction, c), blocks)
    report = ValidationReport(f"comparison iso at {oname}")
    mor = eqcat.restrict(amb, tname, sname)
    if mor is None:
        report.add("equivariance", "comparison matrix is not an equivariant morphism")
        return None, report
    if not eqcat.category.d(mor).is_zero():
        report.add("closedness", "comparison morphism is not closed")
    if mor.coeffs and mor.degrees() != [0]:
        report.add("degree", "comparison morphism is not degree 0")
    inv = eqcat.category.invert(mor)
    if inv is None:
        report.add("invertibility", "comparison morphism has no two-sided inverse")
    return mor, report
