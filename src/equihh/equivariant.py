"""Equivariant objects and the equivariant dg category.

An equivariant object is an underlying additive-hull object c together
with closed degree-0 isomorphisms alpha_g: c → rho_g(c) satisfying the
coherence square theta[g,h]^{-1} ∘ alpha_{hg} = rho_g(alpha_h) ∘ alpha_g.
The equivariant category on a finite roster has hom complexes carved out
of the ambient hull homs by the linear condition
alpha'_g ∘ φ = rho_g(φ) ∘ alpha_g for every g, solved exactly per degree.

Also here: the symmetrization functor (left adjoint to the forgetful
functor), tensoring a roster object by a representation, the adjunction
correspondences, and the comparison isomorphism between the regular-
representation tensor and symmetrize-after-forget.
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
    compose_functors,
    hull_subcategory,
    identity_functor,
    lift_functor_to_hull,
)
from .errors import CapacityError, StructureError
from .groups import GroupAction
from .linalg import Echelon, GradedSpace, SparseMatrix, rank_kernel_image


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


def _shift_blocks(coeffs, row_off, col_off):
    return {
        (deg, (i + row_off, j + col_off, lab)): c
        for (deg, (i, j, lab)), c in coeffs.items()
    }


def lift_action(action: GroupAction, tuples, extra_objects=()) -> GroupAction:
    """Lift a base action to the hull subcategory on the closure of the
    given tuples (plus any extra tuples, also closed)."""
    objs = closure_under_action(action, list(tuples) + list(extra_objects))
    hull = hull_subcategory(action.category, objs)
    functors = {
        g: lift_functor_to_hull(action.rho(g), hull, hull, name=f"rho[{g}]")
        for g in action.group.elements
    }

    def lift_components(base_nat):
        def build(xs):
            blocks = {}
            srcs = []
            tgts = []
            for j, x in enumerate(xs):
                comp = base_nat.at(x)
                blocks[(j, j)] = comp
                srcs.append(comp.src)
                tgts.append(comp.tgt)
            coeffs = {}
            for (j, _), comp in blocks.items():
                coeffs.update(
                    {
                        (deg, (j, j, lab)): c
                        for (deg, lab), c in comp.coeffs.items()
                    }
                )
            return Mor(tuple(srcs), tuple(tgts), coeffs)

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


def validate_equivariant(laction: GroupAction, obj: EquivariantObject) -> ValidationReport:
    """Closedness, degree, invertibility and the coherence square per
    pair (g, h), each instance checked exactly."""
    report = ValidationReport(f"equivariant object {obj.name}")
    cat = laction.category
    grp = laction.group
    c = obj.underlying
    inverses = {}
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
        inv = cat.invert(a)
        if inv is None:
            report.add("invertibility", f"alpha[{g}] not invertible")
        inverses[g] = inv
    if not report.ok:
        return report
    for g, h in itertools.product(grp.elements, repeat=2):
        hg = grp.mul(h, g)
        theta_inv_at_c = cat.invert(laction.theta_at(g, h).at(c))
        lhs = cat.compose(theta_inv_at_c, obj.alpha[hg])
        rhs = cat.compose(laction.rho(g).apply(obj.alpha[h]), obj.alpha[g])
        if not lhs == rhs:
            report.add("cocycle", f"coherence square fails at ({g}, {h})")
    return report


def symmetrize_tuple(laction: GroupAction, c):
    """Underlying tuple of the symmetrization: concat of rho_h(c) in group
    element order (applied through the lifted object maps)."""
    out = ()
    for h in laction.group.elements:
        out = out + laction.rho(h).apply_obj(tuple(c))
    return out


def symmetrize(laction: GroupAction, c, name=None) -> EquivariantObject:
    """The symmetrization of a hull object: underlying ⊕_h rho_h(c) with
    alpha_g placing theta[g,h]^{-1} at block (h, hg)."""
    grp = laction.group
    cat = laction.category
    c = tuple(c)
    ell = len(c)
    slots = {h: i * ell for i, h in enumerate(grp.elements)}
    underlying = symmetrize_tuple(laction, c)
    if underlying not in cat.objects:
        raise CapacityError(f"symmetrization of {c} not materialized")
    alpha = {}
    for g in grp.elements:
        coeffs = {}
        for h in grp.elements:
            h2 = grp.mul(h, g)
            block = cat.invert(laction.theta_at(g, h).at(c))
            coeffs.update(_shift_blocks(block.coeffs, slots[h], slots[h2]))
        tgt = laction.rho(g).apply_obj(underlying)
        alpha[g] = Mor(underlying, tgt, coeffs)
    return EquivariantObject(name or f"S({c})", underlying, alpha)


def rep_tensor(laction: GroupAction, rep, obj: EquivariantObject, name=None) -> EquivariantObject:
    """Tensor a roster object by a representation: dim(V) copies of the
    underlying object with alpha blocks rho_V(g)_{ij}·alpha_g."""
    cat = laction.category
    c = obj.underlying
    ell = len(c)
    underlying = c * rep.dim
    if underlying not in cat.objects:
        raise CapacityError(f"{rep.name}⊗{obj.name} not materialized")
    alpha = {}
    for g in laction.group.elements:
        coeffs = {}
        base = obj.alpha[g]
        for i in range(rep.dim):
            for j in range(rep.dim):
                entry = rep.entry(g, i, j)
                if entry:
                    coeffs.update(
                        _shift_blocks(base.scale(entry).coeffs, i * ell, j * ell)
                    )
        alpha[g] = Mor(underlying, laction.rho(g).apply_obj(underlying), coeffs)
    return EquivariantObject(name or f"{rep.name}⊗{obj.name}", underlying, alpha)


class EquivariantCategory:
    """The dg category of a finite roster of equivariant objects.

    Hom complexes are the exactly-solved equivariance subspaces of the
    ambient homs; basis labels are "q0", "q1", ... per degree in solving
    order.  ``embed``/``restrict`` convert between roster morphisms and
    ambient morphisms.
    """

    def __init__(self, laction: GroupAction, roster, check_invariance=True):
        self.laction = laction
        self.ambient = laction.category
        self.roster = {}
        self.order = []
        for obj in roster:
            if obj.name in self.roster:
                raise StructureError(f"duplicate roster name {obj.name}")
            self.roster[obj.name] = obj
            self.order.append(obj.name)
        self._signatures = {o.signature(): name for name, o in self.roster.items()}
        self._solved = {}  # (src_name, tgt_name) -> dict[(deg,label) -> ambient coeffs]
        self._echelons = {}  # (src_name, tgt_name, deg) -> Echelon over flat ambient idx
        self._flat = {}  # (x_tuple, y_tuple, deg) -> (key list, key index)
        self.category = self._build(check_invariance)

    # -- plumbing --------------------------------------------------------

    def find(self, underlying, alpha) -> str | None:
        probe = EquivariantObject("?", underlying, alpha)
        return self._signatures.get(probe.signature())

    def _flatten_space(self, x, y, deg):
        key = (x, y, deg)
        if key not in self._flat:
            space = self.laction.category.hom(x, y)
            keys = [(deg, lab) for lab in space.labels(deg)]
            self._flat[key] = (keys, {k: i for i, k in enumerate(keys)})
        return self._flat[key]

    def _solve_pair(self, src: EquivariantObject, tgt: EquivariantObject):
        """Kernel of the stacked equivariance conditions, one matrix per
        degree; deterministic elimination order gives reproducible bases."""
        cat = self.laction.category
        grp = self.laction.group
        c, c2 = src.underlying, tgt.underlying
        space = cat.hom(c, c2)
        solved = {}
        for deg in space.degrees():
            keys, _ = self._flatten_space(c, c2, deg)
            rows = {}
            matrix_cols = []
            for key in keys:
                phi = cat.basis_mor(c, c2, *key)
                col = {}
                for gi, g in enumerate(grp.elements):
                    lhs = cat.compose(tgt.alpha[g], phi)
                    rhs = cat.compose(self.laction.rho(g).apply(phi), src.alpha[g])
                    dif = lhs - rhs
                    for dkey, val in dif.coeffs.items():
                        row = rows.setdefault((gi, dkey), len(rows))
                        col[row] = val
                matrix_cols.append(col)
            mat = SparseMatrix(len(rows), len(keys))
            for j, col in enumerate(matrix_cols):
                mat.cols[j] = col
            _, kernel, _ = rank_kernel_image(mat)
            basis = []
            for vec in kernel:
                coeffs = {keys[i]: v for i, v in vec.items()}
                basis.append(coeffs)
            if basis:
                solved[deg] = basis
        return solved

    def _build(self, check_invariance):
        cat = self.laction.category
        homs = {}
        diff = {}
        units = {}
        names = self.order
        for sn in names:
            for tn in names:
                src, tgt = self.roster[sn], self.roster[tn]
                solved = self._solve_pair(src, tgt)
                table = {}
                space_basis = {}
                for deg, basis in solved.items():
                    labels = [f"q{deg}_{i}" for i in range(len(basis))]
                    space_basis[deg] = labels
                    ech = Echelon()
                    keys, keyidx = self._flatten_space(
                        src.underlying, tgt.underlying, deg
                    )
                    for i, coeffs in enumerate(basis):
                        flat = {keyidx[k]: v for k, v in coeffs.items()}
                        ech.add(flat, tag=i)
                    self._echelons[(sn, tn, deg)] = ech
                    for lab, coeffs in zip(labels, basis):
                        table[(deg, lab)] = coeffs
                self._solved[(sn, tn)] = table
                space = GradedSpace(space_basis)
                if space.total_dim():
                    homs[(sn, tn)] = space
        # differentials: d of a solved vector must lie in the solved space
        for sn in names:
            for tn in names:
                table = self._solved[(sn, tn)]
                src, tgt = self.roster[sn], self.roster[tn]
                dtable = {}
                for (deg, lab), coeffs in table.items():
                    amb = Mor(src.underlying, tgt.underlying, coeffs)
                    damb = cat.d(amb)
                    if damb.is_zero():
                        continue
                    restricted = self.restrict(damb, sn, tn)
                    if restricted is None:
                        if check_invariance:
                            raise StructureError(
                                f"equivariance subspace of ({sn}, {tn}) not d-stable"
                            )
                        continue
                    dtable[(deg, lab)] = restricted.coeffs
                if dtable:
                    diff[(sn, tn)] = dtable
        for sn in names:
            obj = self.roster[sn]
            unit = cat.unit(obj.underlying)
            restricted = self.restrict(unit, sn, sn)
            if restricted is None:
                raise StructureError(f"unit of {sn} is not equivariant")
            units[sn] = restricted.coeffs

        builder_self = self

        def comp_builder(xn, yn, zn):
            table = {}
            for gkey in builder_self._solved[(xn, yn)]:
                gmor = builder_self.embed(
                    Mor(xn, yn, {gkey: cat.field.one}), xn, yn
                )
                for fkey in builder_self._solved[(yn, zn)]:
                    fmor = builder_self.embed(
                        Mor(yn, zn, {fkey: cat.field.one}), yn, zn
                    )
                    prod = cat.compose(fmor, gmor)
                    restricted = builder_self.restrict(prod, xn, zn)
                    if restricted is None:
                        raise StructureError(
                            f"composite of ({xn},{yn},{zn}) leaves the solved subspace"
                        )
                    if not restricted.is_zero():
                        table[(gkey, fkey)] = restricted.coeffs
            return table

        return DgCategory(
            cat.field, list(names), homs, diff, {}, units, comp_builder=comp_builder
        )

    def embed(self, mor: Mor, src_name=None, tgt_name=None) -> Mor:
        """Roster morphism -> ambient morphism."""
        sn = src_name if src_name is not None else mor.src
        tn = tgt_name if tgt_name is not None else mor.tgt
        table = self._solved[(sn, tn)]
        src = self.roster[sn]
        tgt = self.roster[tn]
        out = Mor(src.underlying, tgt.underlying, {})
        for key, c in mor.coeffs.items():
            out = out + Mor(src.underlying, tgt.underlying, table[key]).scale(c)
        return out

    def restrict(self, amb: Mor, src_name, tgt_name) -> Mor | None:
        """Ambient morphism -> roster morphism, or None if it is not
        equivariant (not in the solved span)."""
        out = {}
        src = self.roster[src_name]
        tgt = self.roster[tgt_name]
        by_deg = {}
        for (deg, lab), c in amb.coeffs.items():
            by_deg.setdefault(deg, {})[(deg, lab)] = c
        for deg, coeffs in by_deg.items():
            ech = self._echelons.get((src_name, tgt_name, deg))
            if ech is None:
                return None
            keys, keyidx = self._flatten_space(src.underlying, tgt.underlying, deg)
            flat = {keyidx[k]: v for k, v in coeffs.items()}
            coords = ech.express(flat)
            if coords is None:
                return None
            for pos, c in coords.items():
                for tag, w in ech.combos[pos].items():
                    key = (deg, f"q{deg}_{tag}")
                    out[key] = out.get(key, self.ambient.field.zero) + c * w
        return Mor(src_name, tgt_name, out)

    # -- canonical functors ----------------------------------------------

    def forgetful_functor(self, src: DgCategory, tgt: DgCategory) -> DgFunctor:
        """forget from a full subcategory of the roster category into a
        hull subcategory holding every underlying object."""
        obj_map = {name: self.roster[name].underlying for name in src.objects}

        def build(pair):
            sn, tn = pair
            return {
                key: self.embed(Mor(sn, tn, {key: self.ambient.field.one}), sn, tn)
                for key in src.basis_keys(sn, tn)
            }

        return DgFunctor(src, tgt, obj_map, LazyDict(build), name="forget")

    def symmetrization_functor(self, small: DgCategory) -> DgFunctor:
        """S on a hull subcategory whose symmetrizations are all rostered."""
        laction = self.laction
        grp = laction.group
        obj_map = {}
        for c in small.objects:
            target = symmetrize(laction, c)
            name = self.find(target.underlying, target.alpha)
            if name is None:
                raise CapacityError(f"symmetrization of {c} is not in the roster")
            obj_map[c] = name

        def build(pair):
            xs, ys = pair
            table = {}
            ellx = len(xs)
            elly = len(ys)
            for key in small.basis_keys(xs, ys):
                f = self.ambient.mor(tuple(xs), tuple(ys), {key: self.ambient.field.one})
                coeffs = {}
                for hi, h in enumerate(grp.elements):
                    img = laction.rho(h).apply(f)
                    coeffs.update(_shift_blocks(img.coeffs, hi * elly, hi * ellx))
                amb = Mor(
                    symmetrize_tuple(laction, xs),
                    symmetrize_tuple(laction, ys),
                    coeffs,
                )
                restricted = self.restrict(amb, obj_map[xs], obj_map[ys])
                if restricted is None:
                    raise StructureError("symmetrized morphism is not equivariant")
                table[key] = restricted
            return table

        return DgFunctor(small, self.category, obj_map, LazyDict(build), name="symmetrize")

    def rep_tensor_functor(self, rep, source_names=None) -> DgFunctor:
        """T_V = V⊗(-) from the full subcategory on ``source_names`` (the
        whole roster by default) into the roster category; all images must
        be rostered."""
        from .dgcat import full_subcategory

        names = list(source_names) if source_names is not None else list(self.order)
        source = (
            self.category
            if source_names is None
            else full_subcategory(self.category, names)
        )
        obj_map = {}
        for name in names:
            target = rep_tensor(self.laction, rep, self.roster[name])
            found = self.find(target.underlying, target.alpha)
            if found is None:
                raise CapacityError(f"{rep.name}⊗{name} is not in the roster")
            obj_map[name] = found

        def build(pair):
            sn, tn = pair
            src, tgt = self.roster[sn], self.roster[tn]
            ells, ellt = len(src.underlying), len(tgt.underlying)
            table = {}
            for key in source.basis_keys(sn, tn):
                amb = self.embed(Mor(sn, tn, {key: self.ambient.field.one}), sn, tn)
                coeffs = {}
                for i in range(rep.dim):
                    coeffs.update(_shift_blocks(amb.coeffs, i * ellt, i * ells))
                big = Mor(
                    src.underlying * rep.dim, tgt.underlying * rep.dim, coeffs
                )
                restricted = self.restrict(big, obj_map[sn], obj_map[tn])
                if restricted is None:
                    raise StructureError("tensored morphism is not equivariant")
                table[key] = restricted
            return table

        return DgFunctor(
            source, self.category, obj_map, LazyDict(build), name=f"T[{rep.name}]"
        )


def realize_declared(laction: GroupAction, decl) -> EquivariantObject:
    """Turn a declared roster entry (flat alpha matrices over base labels)
    into an EquivariantObject in the lifted hull."""
    underlying = tuple(decl.underlying)
    alpha = {}
    for g, entries in decl.alpha_entries.items():
        coeffs = {(deg, (i, j, lab)): c for (i, j, deg, lab), c in entries.items()}
        alpha[g] = Mor(underlying, laction.rho(g).apply_obj(underlying), coeffs)
    missing = set(laction.group.elements) - set(alpha)
    if missing:
        raise StructureError(f"{decl.name}: alpha missing for {sorted(missing)}")
    return EquivariantObject(decl.name, underlying, alpha)


def build_equivariant_category(laction: GroupAction, roster, validate=True) -> EquivariantCategory:
    if validate:
        for obj in roster:
            report = validate_equivariant(laction, obj)
            if not report.ok:
                raise StructureError(report.summary())
    return EquivariantCategory(laction, roster)


# ---------------------------------------------------------------------------
# adjunction and the comparison isomorphism


def adjunction_maps(eqcat: EquivariantCategory, cprime, oname):
    """The two correspondences of the symmetrization/forget adjunction for
    one (plain object, roster entry) pair, with their verification.

    Returns a dict with the two linear maps (as {basis key: image Mor})
    and booleans for the chain-map property and the two composites.
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
    sym = symmetrize(laction, cprime)
    sname = eqcat.find(sym.underlying, sym.alpha)
    if sname is None:
        raise CapacityError(f"symmetrization of {cprime} is not in the roster")
    ell = len(cprime)
    slots = {h: i * ell for i, h in enumerate(grp.elements)}
    alpha_inv = {g: cat.invert(obj.alpha[g]) for g in grp.elements}
    eta_c = laction.eta.at(c)
    eta_cprime_inv = cat.invert(laction.eta.at(cprime))
    alpha_e = obj.alpha[e]

    def forward(phi: Mor) -> Mor | None:
        coeffs = {}
        for g in grp.elements:
            block = cat.compose(alpha_inv[g], laction.rho(g).apply(phi))
            coeffs.update(_shift_blocks(block.coeffs, 0, slots[g]))
        amb = Mor(sym.underlying, c, coeffs)
        return eqcat.restrict(amb, sname, oname)

    def backward(psi: Mor) -> Mor:
        amb = eqcat.embed(psi, sname, oname)
        e_coeffs = {}
        for (deg, (i, j, lab)), v in amb.coeffs.items():
            if slots[e] <= j < slots[e] + ell:
                e_coeffs[(deg, (i, j - slots[e], lab))] = v
        psi_e = Mor(laction.rho(e).apply_obj(cprime), c, e_coeffs)
        return cat.compose(
            eta_c, cat.compose(alpha_e, cat.compose(psi_e, eta_cprime_inv))
        )

    forward_images = {}
    chain_map_ok = True
    round_trip_ok = True
    for key in cat.basis_keys(cprime, c):
        phi = cat.basis_mor(cprime, c, *key)
        img = forward(phi)
        if img is None:
            round_trip_ok = False
            continue
        forward_images[key] = img
        dimg = forward(cat.d(phi))
        if dimg is None or not dimg == eqcat.category.d(img):
            chain_map_ok = False
        if not backward(img) == phi:
            round_trip_ok = False
    backward_images = {}
    for key in eqcat.category.basis_keys(sname, oname):
        psi = Mor(sname, oname, {key: cat.field.one})
        phi = backward(psi)
        backward_images[key] = phi
        img = forward(phi)
        if img is None or not img == psi:
            round_trip_ok = False
    dims_match = len(forward_images) == cat.hom(cprime, c).total_dim()
    return {
        "symmetrization": sname,
        "forward": forward_images,
        "backward": backward_images,
        "chain_map": chain_map_ok,
        "mutually_inverse": round_trip_ok and dims_match,
        "hom_dimension": cat.hom(cprime, c).total_dim(),
        "equivariant_hom_dimension": eqcat.category.hom(sname, oname).total_dim(),
    }


def sfor_iso(eqcat: EquivariantCategory, oname):
    """The comparison isomorphism (regular rep)⊗o → S(For(o)) given by the
    block matrix with alpha_g at (g, g^{-1}); returned as a roster
    morphism plus a verification report."""
    from .groups import regular_representation

    laction = eqcat.laction
    cat = laction.category
    grp = laction.group
    obj = eqcat.roster[oname]
    c = obj.underlying
    ell = len(c)
    reg = regular_representation(grp, field=cat.field)
    tensored = rep_tensor(laction, reg, obj)
    tname = eqcat.find(tensored.underlying, tensored.alpha)
    sym = symmetrize(laction, c)
    sname = eqcat.find(sym.underlying, sym.alpha)
    if tname is None or sname is None:
        raise CapacityError(f"comparison endpoints for {oname} are not rostered")
    slots = {h: i * ell for i, h in enumerate(grp.elements)}
    coeffs = {}
    for g in grp.elements:
        gprime = grp.inv(g)
        coeffs.update(_shift_blocks(obj.alpha[g].coeffs, slots[g], slots[gprime]))
    amb = Mor(tensored.underlying, sym.underlying, coeffs)
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


def sfor_iso_natural(eqcat: EquivariantCategory, phi: Mor, iso_by_name):
    """One naturality square of the comparison isomorphism, exactly:
    iso_tgt ∘ T_reg(φ) = S(For(φ)) ∘ iso_src."""
    from .groups import regular_representation

    laction = eqcat.laction
    cat = eqcat.category
    reg = regular_representation(laction.group, field=eqcat.ambient.field)
    sn, tn = phi.src, phi.tgt
    t_reg = eqcat.rep_tensor_functor(reg, source_names=[sn, tn] if sn != tn else [sn])
    amb = eqcat.embed(phi, sn, tn)
    grp = laction.group
    ells, ellt = len(eqcat.roster[sn].underlying), len(eqcat.roster[tn].underlying)
    coeffs = {}
    for hi, h in enumerate(grp.elements):
        img = laction.rho(h).apply(amb)
        coeffs.update(_shift_blocks(img.coeffs, hi * ellt, hi * ells))
    sym_src = symmetrize(laction, eqcat.roster[sn].underlying)
    sym_tgt = symmetrize(laction, eqcat.roster[tn].underlying)
    s_for_phi = eqcat.restrict(
        Mor(sym_src.underlying, sym_tgt.underlying, coeffs),
        eqcat.find(sym_src.underlying, sym_src.alpha),
        eqcat.find(sym_tgt.underlying, sym_tgt.alpha),
    )
    lhs = cat.compose(iso_by_name[tn], t_reg.apply(phi))
    rhs = cat.compose(s_for_phi, iso_by_name[sn])
    return lhs == rhs
