"""The decomposition of equivariant Hochschild homology into centralizer
invariants, verified mechanically.

The pipeline builds four window families over one ambient hull:

  W_hh    C(roster restricted to the declared covering objects; id)
  W_full  C(whole roster; id)
  W_small C(generator objects; rho_g)           per conjugacy class
  W_big   C(generators + forgotten roster; rho_g)

and the chain maps between them: the inclusion isos mu and lambda, the
projection (forget, alpha_g), the inclusion (symmetrize, phi_g), the
one-shot composite (symmetrize∘forget, phi_g ⋆ alpha_g), the centralizer
actions, and the representation tensor.  Five checks, all as exact
homology-matrix identities (with chain-level certificates where windows
are small enough):

  1. the projection is centralizer-invariant;
  2. projection∘inclusion = |C(g)|·id on invariants (trace decomposition);
  3. cross-class composites vanish;
  4. the class projector is representative-independent;
  5. the weighted projectors sum to the identity.

The averaged centralizer action realizes the invariant subspaces; the
per-class projectors are pairwise orthogonal idempotents.  A
representation acts on the class projector image by its character value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .dgcat import (
    DgFunctor,
    LazyDict,
    Mor,
    NatTransform,
    compose_functors,
    full_subcategory,
    functors_equal,
    hull_inclusion,
    identity_functor,
    nat_inverse,
    nat_vertical,
    parity_sign,
)
from .equivariant import (
    build_equivariant_category,
    closure_under_action,
    lift_action,
    realize_declared,
    rep_tensor,
    symmetrize,
    symmetrize_tuple,
    validate_equivariant,
    _shift_blocks,
)
from .errors import EquihhError as EquihhErrorBase
from .errors import StructureError
from .groups import GroupAction, character, conjugacy_data
from .hochschild import (
    HomotopyCertificate,
    InducedMap,
    LinearComboMap,
    build_window,
    compose_induced,
    conjugate_transport,
    verify_trace_decomposition,
)
from .linalg import SparseMatrix, matrix_inverse, rank_kernel_image

CERTIFICATE_CHAIN_BUDGET = 6000  # skip homotopy certificates above this window size


def restrict_endofunctor(fun: DgFunctor, sub) -> DgFunctor:
    """View of an ambient endofunctor on a full subcategory closed under it."""
    obj_map = {x: fun.apply_obj(x) for x in sub.objects}
    for x, img in obj_map.items():
        if img not in sub.objects:
            raise StructureError(f"subcategory not closed under {fun.name}: {x} -> {img}")

    def build(pair):
        x, y = pair
        return {key: fun.apply(sub.basis_mor(x, y, *key)) for key in sub.basis_keys(x, y)}

    return DgFunctor(sub, sub, obj_map, LazyDict(build), name=fun.name)


@dataclass
class ClassBlock:
    representative: str
    members: list
    centralizer: list
    summand_dims: dict = dc_field(default_factory=dict)
    matrices: dict = dc_field(default_factory=dict)  # degree -> {name: rows}


@dataclass
class DecompositionReport:
    group_name: str
    class_blocks: list
    roster_names: list
    hh_names: list
    degrees: list
    certification: str
    lhs_dims: dict
    dims_match: bool
    checks: dict  # named boolean results incl. the five main checks
    witnesses: list
    rep_checks: dict
    certificates: list  # (name, mode, ok)
    runtime: float

    @property
    def theorem_holds(self):
        return self.dims_match and all(self.checks.values()) and all(
            ok for ok, _ in self.rep_checks.values()
        )

    def to_dict(self):
        return {
            "schema": "equihh-schema-1",
            "group": self.group_name,
            "degrees": self.degrees,
            "certification": self.certification,
            "roster": self.roster_names,
            "covering_objects": self.hh_names,
            "equivariant_dims": {str(k): v for k, v in self.lhs_dims.items()},
            "classes": [
                {
                    "representative": b.representative,
                    "members": b.members,
                    "centralizer_order": len(b.centralizer),
                    "invariant_dims": {str(k): v for k, v in b.summand_dims.items()},
                    "homology_matrices": {
                        str(k): mats for k, mats in sorted(b.matrices.items())
                    },
                }
                for b in self.class_blocks
            ],
            "dims_match": self.dims_match,
            "checks": self.checks,
            "representation_checks": {
                name: {"passed": ok, "character": {g: str(v) for g, v in chi.items()}}
                for name, (ok, chi) in self.rep_checks.items()
            },
            "certificates": [
                {"name": n, "mode": m, "passed": ok} for (n, m, ok) in self.certificates
            ],
            "witnesses": self.witnesses,
            "theorem_holds": self.theorem_holds,
            "runtime_seconds": round(self.runtime, 3),
        }

    def to_text(self):
        lines = []
        lines.append(f"group {self.group_name} | degrees {self.degrees} | {self.certification}")
        lines.append(f"roster: {', '.join(self.roster_names)}")
        lines.append(f"covering objects: {', '.join(self.hh_names)}")
        for k in self.degrees:
            parts = " + ".join(
                f"{b.summand_dims.get(k, 0)} [{b.representative}]" for b in self.class_blocks
            )
            total = sum(b.summand_dims.get(k, 0) for b in self.class_blocks)
            lines.append(
                f"degree {k}: dim HH = {self.lhs_dims.get(k, 0)} vs {parts} = {total}"
            )
        for name, ok in sorted(self.checks.items()):
            lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
        for name, (ok, chi) in sorted(self.rep_checks.items()):
            chis = ", ".join(f"{g}:{v}" for g, v in chi.items())
            lines.append(f"representation {name}: {'pass' if ok else 'FAIL'} (character {chis})")
        for n, m, ok in self.certificates:
            lines.append(f"certificate {n} [{m}]: {'pass' if ok else 'FAIL'}")
        if self.witnesses:
            lines.append("witnesses:")
            lines.extend(f"  {w}" for w in self.witnesses)
        lines.append(f"theorem: {'PASS' if self.theorem_holds else 'FAIL'} ({self.runtime:.2f}s)")
        return "\n".join(lines)


class DecompositionPipeline:
    """Builds everything needed to verify the decomposition for one
    action, roster and degree range."""

    def __init__(
        self,
        action: GroupAction,
        declared,
        generators,
        hh_names=None,
        representations=None,
        degrees=(0, 0),
        bar_cap=None,
        certificates=True,
    ):
        self.base_action = action
        self.group = action.group
        self.classes = conjugacy_data(self.group)
        self.declared = list(declared)
        self.generators = list(generators)
        self.representations = dict(representations or {})
        self.dlo, self.dhi = min(degrees), max(degrees)
        self.degree_list = list(range(self.dlo, self.dhi + 1))
        self.bar_cap = bar_cap
        self.certificates_wanted = certificates
        self._plan_and_build(hh_names)

    # -- construction ------------------------------------------------------

    def _plan_and_build(self, hh_names):
        base = self.base_action

        def base_s_tuple(c):
            out = ()
            for h in self.group.elements:
                out = out + tuple(base.rho(h).apply_obj(x) for x in c)
            return out

        gen_tuples = [(g,) for g in self.generators]
        small = sorted(closure_under_action(base, gen_tuples), key=repr)
        decl_tuples = [tuple(d.underlying) for d in self.declared]
        hh_decl = [d.name for d in self.declared] if hh_names is None else list(hh_names)
        if not hh_decl:
            hh_decl = None  # resolved to generator symmetrizations below
        declared_by_name = {d.name: tuple(d.underlying) for d in self.declared}
        if hh_decl is None:
            cover_underlyings = [base_s_tuple(t) for t in gen_tuples]
        else:
            cover_underlyings = [declared_by_name[n] for n in hh_decl]

        hull_tuples = set(small) | set(decl_tuples) | set(cover_underlyings)
        for t in closure_under_action(base, small + cover_underlyings):
            hull_tuples.add(base_s_tuple(t))
        for rep in self.representations.values():
            for t in cover_underlyings:
                hull_tuples.add(t * rep.dim)
        self.laction = lift_action(base, sorted(hull_tuples, key=repr))
        ambient = self.laction.category

        # roster: declared + symmetrizations of the small objects and of the
        # covering objects' underlying objects + representation tensors
        roster = []
        names = set()

        def add(obj):
            for existing in roster:
                if existing.signature() == obj.signature():
                    return existing.name
            if obj.name in names:
                obj.name = obj.name + "'"
                return add(obj)
            names.add(obj.name)
            roster.append(obj)
            return obj.name

        declared_names = []
        for d in self.declared:
            obj = realize_declared(self.laction, d)
            report = validate_equivariant(self.laction, obj)
            if not report.ok:
                raise StructureError(report.summary())
            declared_names.append(add(obj))
        sym_of = {}
        for t in small:
            obj = symmetrize(self.laction, t)
            sym_of[t] = add(obj)
        if hh_decl is None:
            hh_decl = [sym_of[t] for t in gen_tuples]
        self.hh_names = hh_decl
        for name in list(self.hh_names):
            entry = next(o for o in roster if o.name == name)
            for t in sorted(closure_under_action(base, [entry.underlying]), key=repr):
                if t not in sym_of:
                    sym_obj = symmetrize(self.laction, t)
                    sym_of[t] = add(sym_obj)
        for rep in self.representations.values():
            for name in self.hh_names:
                entry = next(o for o in roster if o.name == name)
                add(rep_tensor(self.laction, rep, entry))
        self.eqcat = build_equivariant_category(self.laction, roster, validate=True)
        self.roster_names = list(self.eqcat.order)
        self.sym_of = sym_of

        # window categories
        self.small_objs = small
        big = closure_under_action(base, small + [o.underlying for o in roster])
        self.big_objs = sorted(big, key=repr)
        self.cat_small = full_subcategory(ambient, self.small_objs)
        self.cat_big = full_subcategory(ambient, self.big_objs)
        self.cat_hh = full_subcategory(self.eqcat.category, self.hh_names)
        self.cat_full = self.eqcat.category

        lo, hi = self.dlo - 1, self.dhi + 1
        self.w_hh = build_window(self.cat_hh, identity_functor(self.cat_hh), lo, hi, self.bar_cap)
        self.w_full = build_window(self.cat_full, identity_functor(self.cat_full), lo, hi, self.bar_cap)
        self.certification = self.w_hh.certification

        self._rho_small = {}
        self._rho_big = {}
        for g in self.group.elements:
            self._rho_small[g] = restrict_endofunctor(self.laction.rho(g), self.cat_small)
            self._rho_big[g] = restrict_endofunctor(self.laction.rho(g), self.cat_big)
        self.w_small = {}
        self.w_big = {}
        for g in self.classes.representatives:
            self.w_small[g] = self._window_for(self.cat_small, self._rho_small, g, lo, hi)
            self.w_big[g] = self._window_for(self.cat_big, self._rho_big, g, lo, hi)

        # canonical functors and transformations
        self.forget_full = self.eqcat.forgetful_functor(self.cat_full, self.cat_big)
        self.forget_hh = self.eqcat.forgetful_functor(self.cat_hh, self.cat_big)
        self.s_small = self.eqcat.symmetrization_functor(self.cat_small)
        self.mu = InducedMap(
            self.w_hh,
            self.w_full,
            hull_inclusion(self.cat_hh, self.cat_full, name="incl"),
            self._identity_eps(self.cat_hh, self.cat_full),
            name="mu",
        )

    def _window_for(self, cat, rho_table, g, lo, hi):
        fun = rho_table[g]
        table = self.w_small if cat is self.cat_small else self.w_big
        base = self.base_action
        for g2, win in list(table.items()):
            if base.rho(g2) is base.rho(g) or functors_equal(rho_table[g2], fun):
                return win
        return build_window(cat, fun, lo, hi, self.bar_cap)

    def _identity_eps(self, src_cat, tgt_cat) -> NatTransform:
        comps = {x: tgt_cat.unit(x) for x in src_cat.objects}
        fun = identity_functor(src_cat)
        return NatTransform(fun, fun, comps, name="1")

    # -- transformations per class rep --------------------------------------

    def alpha_nat(self, g, src_cat) -> NatTransform:
        """alpha_g: forget ⇒ rho_g∘forget with components the structure maps."""
        comps = {name: self.eqcat.roster[name].alpha[g] for name in src_cat.objects}
        fun = identity_functor(src_cat)
        return NatTransform(fun, fun, comps, name=f"alpha[{g}]")

    def sym_object(self, c):
        """Cached symmetrization of a hull object."""
        c = tuple(c)
        if not hasattr(self, "_sym_objects"):
            self._sym_objects = {}
        if c not in self._sym_objects:
            self._sym_objects[c] = symmetrize(self.laction, c)
        return self._sym_objects[c]

    def _phi_component(self, g, c) -> Mor:
        """phi_g at one hull object: S(rho_g(c)) -> S(c) with blocks
        theta[h2, g] at (mul(g, h2), h2), restricted to the roster."""
        eq = self.eqcat
        grp = self.group
        c = tuple(c)
        ell = len(c)
        slots = {h: i * ell for i, h in enumerate(grp.elements)}
        rg_c = self.laction.rho(g).apply_obj(c)
        coeffs = {}
        for h2 in grp.elements:
            h = grp.mul(g, h2)
            block = self.laction.theta_at(h2, g).at(c)
            coeffs.update(_shift_blocks(block.coeffs, slots[h], slots[h2]))
        src_obj = self.sym_object(rg_c)
        tgt_obj = self.sym_object(c)
        amb = Mor(src_obj.underlying, tgt_obj.underlying, coeffs)
        sname = eq.find(src_obj.underlying, src_obj.alpha)
        tname = eq.find(tgt_obj.underlying, tgt_obj.alpha)
        if sname is None or tname is None:
            raise StructureError(f"symmetrizations around {c} are not rostered")
        restricted = eq.restrict(amb, sname, tname)
        if restricted is None:
            raise StructureError(f"phi[{g}] at {c} is not equivariant")
        return restricted

    def phi_nat(self, g) -> NatTransform:
        """phi_g on the generator objects (used by the inclusion map)."""
        comps = {c: self._phi_component(g, c) for c in self.cat_small.objects}
        fun = identity_functor(self.cat_small)
        return NatTransform(fun, fun, comps, name=f"phi[{g}]")

    def s_for_functor(self, src_names) -> DgFunctor:
        """S∘forget from a subcategory of the roster into the roster."""
        eq = self.eqcat
        src = full_subcategory(self.cat_full, src_names)
        obj_map = {}
        for name in src_names:
            u = eq.roster[name].underlying
            obj_map[name] = self.sym_of[u]

        def build(pair):
            sn, tn = pair
            table = {}
            grp = self.group
            u_s, u_t = eq.roster[sn].underlying, eq.roster[tn].underlying
            for key in src.basis_keys(sn, tn):
                amb = eq.embed(Mor(sn, tn, {key: eq.ambient.field.one}), sn, tn)
                coeffs = {}
                offs_s = offs_t = 0
                for h in grp.elements:
                    img = self.laction.rho(h).apply(amb)
                    coeffs.update(_shift_blocks(img.coeffs, offs_t, offs_s))
                    offs_s += len(u_s)
                    offs_t += len(u_t)
                big = Mor(
                    symmetrize_tuple(self.laction, u_s),
                    symmetrize_tuple(self.laction, u_t),
                    coeffs,
                )
                restricted = eq.restrict(big, obj_map[sn], obj_map[tn])
                if restricted is None:
                    raise StructureError("symmetrized-forgotten morphism not equivariant")
                table[key] = restricted
            return table

        return DgFunctor(src, self.cat_full, obj_map, LazyDict(build), name="S∘forget")

    def k_twist(self, g, src_names) -> NatTransform:
        """phi_g ⋆ alpha_g: S∘forget ⇒ S∘forget at each covering object:
        phi_g at the underlying object composed with S(alpha_g)."""
        eq = self.eqcat
        grp = self.group
        comps = {}
        for name in src_names:
            obj = eq.roster[name]
            u = obj.underlying
            alpha = obj.alpha[g]
            rg_u = self.laction.rho(g).apply_obj(u)
            # S(alpha): diagonal blocks rho_h(alpha) between the two sums
            coeffs = {}
            off_s = off_t = 0
            for h in grp.elements:
                img = self.laction.rho(h).apply(alpha)
                coeffs.update(_shift_blocks(img.coeffs, off_t, off_s))
                off_s += len(u)
                off_t += len(rg_u)
            s_alpha_amb = Mor(
                symmetrize_tuple(self.laction, u),
                symmetrize_tuple(self.laction, rg_u),
                coeffs,
            )
            src_sym = self.sym_object(u)
            mid_sym = self.sym_object(rg_u)
            sname = eq.find(src_sym.underlying, src_sym.alpha)
            mname = eq.find(mid_sym.underlying, mid_sym.alpha)
            s_alpha = eq.restrict(s_alpha_amb, sname, mname)
            if s_alpha is None:
                raise StructureError(f"S(alpha[{g}]) at {name} is not equivariant")
            comps[name] = self.cat_full.compose(self._phi_component(g, u), s_alpha)
        fun = identity_functor(full_subcategory(self.cat_full, src_names))
        return NatTransform(fun, fun, comps, name=f"phi⋆alpha[{g}]")

    def centralizer_map(self, window, rho_table, h, g) -> InducedMap:
        c_nat = self.laction.centralizer_transform(h, g)
        comps = {x: c_nat.at(x) for x in window.category.objects}
        fun = identity_functor(window.category)
        nat = NatTransform(fun, fun, comps, name=f"C[{h},{g}]")
        return InducedMap(window, window, rho_table[h], nat, name=f"(rho[{h}],C[{h},{g}])*")

    # -- the main maps -------------------------------------------------------

    def projection(self, g) -> InducedMap:
        """(forget, alpha_g)_*: W_full -> W_big."""
        return InducedMap(
            self.w_full,
            self.w_big[g],
            self.forget_full,
            self.alpha_nat(g, self.cat_full),
            name=f"pi[{g}]",
        )

    def projection_hh(self, g) -> InducedMap:
        return InducedMap(
            self.w_hh,
            self.w_big[g],
            self.forget_hh,
            self.alpha_nat(g, self.cat_hh),
            name=f"pi_hh[{g}]",
        )

    def inclusion(self, g) -> InducedMap:
        """(symmetrize, phi_g)_*: W_small -> W_full."""
        return InducedMap(
            self.w_small[g], self.w_full, self.s_small, self.phi_nat(g), name=f"iota[{g}]"
        )

    def lam(self, g) -> InducedMap:
        incl = hull_inclusion(self.cat_small, self.cat_big, name="incl")
        fun = identity_functor(self.cat_small)
        comps = {
            c: self.cat_big.unit(self._rho_small[g].apply_obj(c))
            for c in self.cat_small.objects
        }
        nat = NatTransform(fun, fun, comps, name="1")
        return InducedMap(self.w_small[g], self.w_big[g], incl, nat, name=f"lambda[{g}]")

    def projector_map(self, g, src_names=None) -> InducedMap:
        """(S∘forget, phi_g ⋆ alpha_g)_*: W_hh -> W_full, the one-shot
        inclusion∘projection composite."""
        names = src_names or self.hh_names
        return InducedMap(
            self.w_hh,
            self.w_full,
            self.s_for_functor(names),
            self.k_twist(g, names),
            name=f"iota∘pi[{g}]",
        )

    # ... the verification driver lives in decompose() below.


def _is_idempotent(m: SparseMatrix) -> bool:
    return m * m == m


def decompose(
    action,
    declared,
    generators,
    hh_names=None,
    representations=None,
    degrees=(0, 0),
    bar_cap=None,
    certificates=True,
) -> DecompositionReport:
    start = time.perf_counter()
    pipe = DecompositionPipeline(
        action,
        declared,
        generators,
        hh_names=hh_names,
        representations=representations,
        degrees=degrees,
        bar_cap=bar_cap,
        certificates=certificates,
    )
    report = run_checks(pipe)
    report.runtime = time.perf_counter() - start
    return report


def run_checks(pipe: DecompositionPipeline) -> DecompositionReport:
    degs = pipe.degree_list
    grp = pipe.group
    field = pipe.eqcat.ambient.field
    checks = {"chain_functoriality": True, "centralizer_right_action": True}
    witnesses = []
    cert_log = []

    lhs_dims = {k: pipe.w_hh.homology(k)[0] for k in degs}
    mu_mat = {k: pipe.mu.homology_matrix(k) for k in degs}
    mu_inv = {}
    ok_mu = True
    for k in degs:
        inv = matrix_inverse(mu_mat[k])
        if inv is None:
            ok_mu = False
            witnesses.append(f"covering inclusion not a homology isomorphism at degree {k}")
        mu_inv[k] = inv
    checks["covering_isomorphism"] = ok_mu

    reps_of_classes = pipe.classes.representatives
    small_enough = all(
        pipe.w_big[g].dim(k) <= CERTIFICATE_CHAIN_BUDGET
        for g in reps_of_classes
        for k in range(pipe.w_big[g].lo, pipe.w_big[g].hi + 1)
    ) and all(
        pipe.w_full.dim(k) <= CERTIFICATE_CHAIN_BUDGET
        for k in range(pipe.w_full.lo, pipe.w_full.hi + 1)
    )
    do_certs = pipe.certificates_wanted and small_enough
    if pipe.certificates_wanted and not small_enough:
        cert_log.append(("homotopy certificates", "skipped: window too large", True))

    blocks = {
        g: ClassBlock(
            representative=g,
            members=pipe.classes.classes[reps_of_classes.index(g)],
            centralizer=pipe.classes.centralizers[g],
        )
        for g in reps_of_classes
    }
    class_blocks = [blocks[g] for g in reps_of_classes]
    per_class = {}
    for g in reps_of_classes:
        data, class_checks, class_witnesses = _build_class_data(pipe, g, blocks[g].members, degs)
        per_class[g] = data
        for name, ok in class_checks.items():
            checks[name] = checks[name] and ok
        witnesses.extend(class_witnesses)

    # check 1: projection is centralizer-invariant
    ok1 = True
    for g in reps_of_classes:
        data = per_class[g]
        for h in pipe.classes.centralizers[g]:
            m_big = pipe.centralizer_map(pipe.w_big[g], pipe._rho_big, h, g)
            for k in degs:
                lhs = m_big.homology_matrix(k) * data["A"][k]
                if not lhs == data["A"][k]:
                    ok1 = False
                    witnesses.append(
                        f"projection not invariant under {h} in the class of {g} at degree {k}"
                    )
    checks["projection_invariance"] = ok1
    if do_certs:
        _check1_certificates(pipe, per_class, cert_log)

    # check 2/3: composite with inclusions, diagonal and cross-class
    ok2 = True
    ok3 = True
    for g in reps_of_classes:
        data = per_class[g]
        for g2 in reps_of_classes:
            data2 = per_class[g2]
            for k in degs:
                prod = data["A"][k] * data2["B"][k]
                if g2 == g:
                    want = data["L"][k] * _sum_matrices(
                        [data["M_small"][h][k] for h in pipe.classes.centralizers[g]],
                        data["L"][k].ncols,
                    )
                    if not prod == want:
                        ok2 = False
                        witnesses.append(
                            f"projection∘inclusion mismatch for {g} at degree {k}"
                        )
                else:
                    if not prod.is_zero():
                        ok3 = False
                        witnesses.append(
                            f"cross-class composite ({g}, {g2}) nonzero at degree {k}"
                        )
    checks["projection_inclusion_trace"] = ok2
    checks["cross_class_vanishing"] = ok3
    if do_certs:
        _check23_certificates(pipe, per_class, degs, cert_log)

    # invariant subspaces and summand dims
    for g in reps_of_classes:
        data = per_class[g]
        block = blocks[g]
        for k in degs:
            avg = data["avg"][k]
            if not _is_idempotent(avg):
                checks["averaging_idempotent"] = False
                witnesses.append(f"averaging projector for {g} not idempotent at degree {k}")
            rank, _, _ = rank_kernel_image(avg)
            block.summand_dims[k] = rank
    checks.setdefault("averaging_idempotent", True)

    # check 2b: |C(g)|·id on the invariant image
    ok2b = True
    for g in reps_of_classes:
        data = per_class[g]
        c_order = len(pipe.classes.centralizers[g])
        for k in degs:
            l_inv = matrix_inverse(data["L"][k])
            if l_inv is None:
                ok2b = False
                witnesses.append(f"generator inclusion not iso for {g} at degree {k}")
                continue
            comp = l_inv * data["A"][k] * data["B"][k]
            avg = data["avg"][k]
            if not comp * avg == avg.scale(field.embed(c_order)):
                ok2b = False
                witnesses.append(
                    f"projection∘inclusion is not |C(g)|·id on invariants for {g} at {k}"
                )
            data["L_inv"][k] = l_inv
    checks["trace_scalar_on_invariants"] = ok2b

    # class projectors
    projectors = {}
    ok_factor = True
    for g in reps_of_classes:
        data = per_class[g]
        block = blocks[g]
        c_order = len(pipe.classes.centralizers[g])
        projectors[g] = {}
        for k in degs:
            if mu_inv[k] is None:
                continue
            e_mat = mu_inv[k] * data["K"][k]
            e_mat = e_mat.scale(field.embed(Fraction(1, c_order)))
            projectors[g][k] = e_mat
            block.matrices[k] = {
                "projection": _rows(data["A"][k] * mu_mat[k]),
                "inclusion": _rows(data["B"][k]),
                "projector": _rows(e_mat),
            }
            # factorization through the invariants
            want = data["B"][k] * data["L_inv"][k] * data["A"][k] * mu_mat[k]
            if not data["K"][k] == want:
                ok_factor = False
                witnesses.append(f"projector factorization fails for {g} at degree {k}")
    checks["projector_factorization"] = ok_factor

    # check 4: representative independence (end identity, certified directly)
    ok4 = True
    for g in reps_of_classes:
        data = per_class[g]
        if data["K_alt"] is None:
            continue
        for k in degs:
            if not data["K"][k] == data["K_alt"][k]:
                ok4 = False
                witnesses.append(
                    f"projector differs between conjugate representatives of {g} at {k}"
                )
    checks["representative_independence"] = ok4
    _check4_transports(pipe, per_class, cert_log)

    # check 5: weighted projectors sum to the identity
    ok5 = True
    for k in degs:
        if mu_inv[k] is None:
            ok5 = False
            continue
        n = lhs_dims[k]
        total = SparseMatrix(n, n)
        for g in reps_of_classes:
            total = total + projectors[g][k]
        if not total == SparseMatrix.identity(n, one=field.one):
            ok5 = False
            witnesses.append(f"projectors do not sum to the identity at degree {k}")
    checks["projector_sum_identity"] = ok5
    if do_certs:
        _check5_certificate(pipe, per_class, cert_log)

    # idempotents, orthogonality
    ok_idem = True
    for k in degs:
        if mu_inv[k] is None:
            ok_idem = False
            continue
        for g in reps_of_classes:
            if not _is_idempotent(projectors[g][k]):
                ok_idem = False
                witnesses.append(f"projector of {g} not idempotent at degree {k}")
        for g in reps_of_classes:
            for g2 in reps_of_classes:
                if g2 == g:
                    continue
                prod = projectors[g][k] * projectors[g2][k]
                if not prod.is_zero():
                    ok_idem = False
                    witnesses.append(f"projectors of {g}, {g2} not orthogonal at degree {k}")
    checks["projectors_orthogonal_idempotent"] = ok_idem

    dims_match = all(
        lhs_dims[k] == sum(b.summand_dims.get(k, 0) for b in class_blocks) for k in degs
    )
    if not dims_match:
        witnesses.append("dimension sum mismatch")

    # representation ring action
    rep_checks = {}
    for rname, rep in pipe.representations.items():
        chi = character(rep, pipe.classes)
        t_fun = pipe.eqcat.rep_tensor_functor(rep, source_names=pipe.hh_names)
        comps = {
            name: pipe.cat_full.unit(t_fun.apply_obj(name)) for name in pipe.hh_names
        }
        fun = identity_functor(pipe.cat_hh)
        t_map = InducedMap(
            pipe.w_hh,
            pipe.w_full,
            t_fun,
            NatTransform(fun, fun, comps, name="1"),
            name=f"T[{rname}]",
        )
        rep_ok = True
        for k in degs:
            if mu_inv[k] is None:
                rep_ok = False
                continue
            t_g = mu_inv[k] * t_map.homology_matrix(k)
            for g in reps_of_classes:
                e_mat = projectors[g][k]
                if not t_g * e_mat == e_mat.scale(chi[g]):
                    rep_ok = False
                    witnesses.append(
                        f"representation {rname} does not act by its character on the"
                        f" class of {g} at degree {k}"
                    )
        rep_checks[rname] = (rep_ok, chi)

    report = DecompositionReport(
        group_name=pipe.group.name,
        class_blocks=class_blocks,
        roster_names=pipe.roster_names,
        hh_names=pipe.hh_names,
        degrees=degs,
        certification=pipe.certification.describe(),
        lhs_dims=lhs_dims,
        dims_match=dims_match,
        checks=checks,
        witnesses=witnesses,
        rep_checks=rep_checks,
        certificates=cert_log,
        runtime=0.0,
    )
    return report


def _rows(matrix: SparseMatrix):
    from .scalars import format_scalar

    return [[format_scalar(v) for v in row] for row in matrix.to_rows()]


def _sum_matrices(mats, ncols):
    if not mats:
        return SparseMatrix(0, ncols)
    out = mats[0]
    for m in mats[1:]:
        out = out + m
    return out


def _build_class_data(pipe, g, members, degs):
    """Homology matrices and maps of one conjugacy class, with the results
    and witnesses of its two per-class checks: chain-level functoriality of
    pi∘mu and the centralizer right-action law.

    Returns (data, checks, witnesses).
    """
    witnesses = []
    data = {"A": {}, "B": {}, "K": {}, "L": {}, "L_inv": {}, "M_small": {}, "avg": {}}
    proj = pipe.projection(g)
    proj_hh = pipe.projection_hh(g)
    inc = pipe.inclusion(g)
    k_map = pipe.projector_map(g)
    lam = pipe.lam(g)
    data["proj"] = proj
    data["proj_hh"] = proj_hh
    data["inc"] = inc
    data["k_map"] = k_map
    field = pipe.eqcat.ambient.field
    # chain-level functoriality: pi restricted to the covering objects
    _, _, mismatches = compose_induced(proj, pipe.mu)
    if mismatches:
        witnesses.append(f"chain-level functoriality fails for pi∘mu at {g}")
    for k in degs:
        data["A"][k] = proj.homology_matrix(k)
        data["B"][k] = inc.homology_matrix(k)
        data["K"][k] = k_map.homology_matrix(k)
        data["L"][k] = lam.homology_matrix(k)
    for h in pipe.classes.centralizers[g]:
        m = pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h, g)
        data["M_small"][h] = {k: m.homology_matrix(k) for k in degs}
    c_order = len(pipe.classes.centralizers[g])
    for k in degs:
        n = pipe.w_small[g].homology(k)[0]
        total = SparseMatrix(n, n)
        for h in pipe.classes.centralizers[g]:
            total = total + data["M_small"][h][k]
        data["avg"][k] = total.scale(field.embed(Fraction(1, c_order)))
    # right-action law of the centralizer
    ok_action = True
    for h in pipe.classes.centralizers[g]:
        for h2 in pipe.classes.centralizers[g]:
            prod_target = pipe.group.mul(h2, h)
            for k in degs:
                lhs = data["M_small"][h][k] * data["M_small"][h2][k]
                rhs_map = pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, prod_target, g)
                if not lhs == rhs_map.homology_matrix(k):
                    ok_action = False
                    witnesses.append(
                        f"centralizer right-action law fails for ({h},{h2}) at {g}, degree {k}"
                    )

    # alternate conjugate representative for representative independence
    data["K_alt"] = None
    if len(members) > 1:
        for a in pipe.group.elements:
            g2 = pipe.group.mul(pipe.group.mul(pipe.group.inv(a), g), a)
            if g2 != g:
                data["conjugator"] = a
                data["alt_rep"] = g2
                alt = pipe.projector_map(g2)
                data["K_alt"] = {k: alt.homology_matrix(k) for k in degs}
                break
    checks = {"chain_functoriality": not mismatches, "centralizer_right_action": ok_action}
    return data, checks, witnesses


def _check1_certificates(pipe, per_class, cert_log):
    """Chain-level route for check 1: the centralizer action composed with
    the projection equals the projection conjugated along alpha_h, with an
    explicit transport homotopy back to the projection itself."""
    for g in pipe.classes.representatives:
        data = per_class[g]
        proj = data["proj"]
        for h in pipe.classes.centralizers[g]:
            if h == pipe.group.identity:
                continue
            m_big = pipe.centralizer_map(pipe.w_big[g], pipe._rho_big, h, g)
            combined, composed, mismatches = compose_induced(m_big, proj)
            ok = not mismatches
            # transport (forget, alpha_g) along alpha_h: forget ⇒ rho_h∘forget
            alpha_h = pipe.alpha_nat(h, pipe.cat_full)
            transported, cert = conjugate_transport(proj, alpha_h, combined.phi)
            # the composed twist C[h,g] ⋆ alpha_g must equal the conjugated
            # twist alpha_h · alpha_g · alpha_h^{-1} componentwise
            same_twist = all(
                combined.eps.at(name) == transported.eps.at(name)
                for name in pipe.cat_full.objects
            )
            cert_ok = cert.check()
            same_matrix = all(
                transported.homology_matrix(k) == data["A"][k]
                and (m_big.homology_matrix(k) * data["A"][k]) == data["A"][k]
                for k in pipe.degree_list
            )
            cert_log.append(
                (
                    f"projection invariance [{g}] under {h}",
                    "transport",
                    ok and same_twist and cert_ok and same_matrix,
                )
            )


def _check23_certificates(pipe, per_class, degs, cert_log):
    """Trace-decomposition certificates for the diagonal and cross-class
    composites: projection∘inclusion = (forget∘symmetrize, alpha⋆phi)."""
    grp = pipe.group
    for g in pipe.classes.representatives:
        data = per_class[g]
        for g2 in pipe.classes.representatives:
            data2 = per_class[g2]
            combined, composed, mismatches = compose_induced(data["proj"], data2["inc"])
            ok = not mismatches
            summands = []
            for h in grp.elements:
                in_diag = grp.mul(h, g) == grp.mul(g2, h)
                if in_diag:
                    c_nat = _lifted_centralizer_block(pipe, h, g, g2)
                    summands.append((_embedded_rho(pipe, h, g), c_nat))
                else:
                    summands.append((_embedded_rho(pipe, h, g), None))
            try:
                result = verify_trace_decomposition(
                    pipe.w_small[g2],
                    pipe.w_big[g],
                    combined.phi,
                    combined.eps,
                    summands,
                    degs,
                    certificates=True,
                )
                mats_ok = all(result["matrices_equal"].values())
                cert_ok = result["certificate"] is not None
                mode = result["certificate_mode"] or "matrix-only"
            except StructureError as exc:
                mats_ok = cert_ok = False
                mode = f"error: {exc}"
            name = (
                f"trace decomposition [{g}]" if g2 == g else f"cross-class [{g},{g2}]"
            )
            cert_log.append((name, mode, ok and mats_ok and cert_ok))


def _embedded_rho(pipe, h, g):
    """lambda∘rho_h: the summand functor of forget∘symmetrize."""
    incl = hull_inclusion(pipe.cat_small, pipe.cat_big, name="incl")
    return compose_functors(incl, pipe._rho_small[h], name=f"rho[{h}]")


def _lifted_centralizer_block(pipe, h, g, g2):
    """The (h, h)-diagonal twist of alpha_g ⋆ phi_g2 when hg = g2 h:
    theta[g,h]^{-1} ∘ theta[h,g2] componentwise on the small objects."""
    t_hg2 = pipe.laction.theta_at(h, g2)
    t_gh_inv = nat_inverse(pipe.laction.theta_at(g, h))
    comps = {}
    for c in pipe.cat_small.objects:
        comps[c] = pipe.cat_big.compose(t_gh_inv.at(c), t_hg2.at(c))
    fun = identity_functor(pipe.cat_small)
    return NatTransform(fun, fun, comps, name=f"C[{h};{g},{g2}]")


# ---------------------------------------------------------------------------
# symmetric powers


def graded_sym_power(dims: dict, n: int) -> dict:
    """Dimensions of the graded-symmetric n-th power of a graded vector
    space: multisets of basis elements where odd-degree elements may not
    repeat (the Koszul sign kills squares of odd classes)."""
    import itertools as it

    degrees = sorted(dims)
    basis = [d for d in degrees for _ in range(dims[d])]
    out = {}
    for combo in it.combinations_with_replacement(range(len(basis)), n):
        if any(
            combo.count(i) > 1 and basis[i] % 2 != 0 for i in set(combo)
        ):
            continue
        total = sum(basis[i] for i in combo)
        out[total] = out.get(total, 0) + 1
    return out


def sym_power_summand(category, n, degrees=(0, 0), bar_cap=None):
    """Compare the graded-symmetric power of HH(category) with the
    invariants of the symmetric-group action on HH(category^{⊗n}).

    Returns a report dict with both dimension tables and their equality;
    the invariants are the image of the averaged permutation action, the
    symmetric power uses the Koszul rule on odd classes.
    """
    from .groups import permutation_action
    from .hochschild import hh_dimensions

    if n < 1:
        raise StructureError("symmetric power needs n >= 1")
    dlo, dhi = min(degrees), max(degrees)
    base_res = hh_dimensions(
        category,
        identity_functor(category),
        list(range(n * dlo, dhi + 1)),
        bar_cap=bar_cap,
    )
    sym_dims_all = graded_sym_power(base_res["dims"], n)
    sym_dims = {k: sym_dims_all.get(k, 0) for k in range(dlo, dhi + 1)}

    action, power = permutation_action(category, n)
    win = build_window(
        power, identity_functor(power), dlo - 1, dhi + 1, bar_cap=bar_cap
    )
    field = category.field
    ident = action.group.identity
    invariant_dims = {}
    power_dims = {}
    for k in range(dlo, dhi + 1):
        hdim = win.homology(k)[0]
        power_dims[k] = hdim
        total = SparseMatrix(hdim, hdim)
        for s in action.group.elements:
            m = InducedMap(
                win,
                win,
                action.rho(s),
                action.centralizer_transform(s, ident),
                name=f"perm[{s}]*",
            )
            total = total + m.homology_matrix(k)
        avg = total.scale(field.embed(Fraction(1, len(action.group))))
        if not _is_idempotent(avg):
            raise StructureError("averaged permutation action is not idempotent")
        rank, _, _ = rank_kernel_image(avg)
        invariant_dims[k] = rank
    return {
        "sym_dims": sym_dims,
        "invariant_dims": invariant_dims,
        "power_dims": power_dims,
        "base_dims": base_res["dims"],
        "certification": base_res["certification"].describe(),
        "match": sym_dims == invariant_dims,
    }


def _check4_transports(pipe, per_class, cert_log):
    """Record whether the printed intermediate transports of the
    representative-independence argument certify: the twist
    theta[g2,h]^{-1}∘theta[h,g] carries the projection for g into the
    alpha_h-conjugate of the projection for g2 = h^{-1} g h, with a
    transport homotopy back."""
    budget_ok = all(
        pipe.w_full.dim(k) <= CERTIFICATE_CHAIN_BUDGET
        for k in range(pipe.w_full.lo, pipe.w_full.hi + 1)
    )
    if not budget_ok:
        return
    for g in pipe.classes.representatives:
        data = per_class[g]
        if data["K_alt"] is None:
            continue
        h = data["conjugator"]
        g2 = data["alt_rep"]
        try:
            lo, hi = pipe.w_full.lo, pipe.w_full.hi
            w_big_g2 = pipe._window_for(pipe.cat_big, pipe._rho_big, g2, lo, hi)
            tau_base = nat_vertical(
                nat_inverse(pipe.laction.theta_at(g2, h)), pipe.laction.theta_at(h, g)
            )
            fun = identity_functor(pipe.cat_big)
            tau = NatTransform(
                fun, fun, {x: tau_base.at(x) for x in pipe.cat_big.objects}, name="tau"
            )
            m_tau = InducedMap(
                pipe.w_big[g], w_big_g2, pipe._rho_big[h], tau, name=f"(rho[{h}],tau)*"
            )
            proj_g = data["proj"]
            combined, _, _ = compose_induced(m_tau, proj_g, verify=False)
            proj_g2 = InducedMap(
                pipe.w_full,
                w_big_g2,
                pipe.forget_full,
                pipe.alpha_nat(g2, pipe.cat_full),
                name=f"pi[{g2}]",
            )
            alpha_h = pipe.alpha_nat(h, pipe.cat_full)
            transported, cert = conjugate_transport(proj_g2, alpha_h, combined.phi)
            same_twist = all(
                combined.eps.at(name) == transported.eps.at(name)
                for name in pipe.cat_full.objects
            )
            cert_degrees = [
                k
                for k in pipe.degree_list
                if k - 1 >= w_big_g2.lo and k + 1 <= pipe.w_full.hi and k <= w_big_g2.hi
            ]
            matrices_agree = all(
                combined.homology_matrix(k)
                == m_tau.homology_matrix(k) * data["A"][k]
                for k in pipe.degree_list
            )
            ok = same_twist and matrices_agree and cert.check(degrees=cert_degrees)
        except EquihhErrorBase as exc:
            cert_log.append((f"representative transport [{g}]", f"error: {exc}", False))
            continue
        cert_log.append(
            (f"representative transport [{g}->{g2}] via {h}", "transport", ok)
        )


def _check5_certificate(pipe, per_class, cert_log):
    """The explicit homotopy for the projector sum: inserting the unit
    component of the comparison isomorphism."""
    eq = pipe.eqcat
    grp = pipe.group
    field = eq.ambient.field
    # I and P: the inclusion/projection of the identity block, unnormalized
    i_comps = {}
    p_comps = {}
    for name in pipe.hh_names:
        obj = eq.roster[name]
        u = obj.underlying
        ell = len(u)
        sname = pipe.sym_of[u]
        i_coeffs = {}
        p_coeffs = {}
        for hi, h in enumerate(grp.elements):
            alpha = obj.alpha[h]
            i_coeffs.update(_shift_blocks(alpha.coeffs, hi * ell, 0))
            inv = pipe.laction.category.invert(alpha)
            p_coeffs.update(_shift_blocks(inv.coeffs, 0, hi * ell))
        s_u = symmetrize_tuple(pipe.laction, u)
        i_mor = eq.restrict(Mor(u, s_u, i_coeffs), name, sname)
        p_mor = eq.restrict(Mor(s_u, u, p_coeffs), sname, name)
        if i_mor is None or p_mor is None:
            cert_log.append(("projector sum", "error: I/P not equivariant", False))
            return
        i_comps[name] = i_mor
        p_comps[name] = p_mor
    # sum of the twists over the whole group equals I∘P
    twist_sum = None
    for g in grp.elements:
        tw = pipe.k_twist(g, pipe.hh_names)
        if twist_sum is None:
            twist_sum = {n: tw.at(n) for n in pipe.hh_names}
        else:
            twist_sum = {n: twist_sum[n] + tw.at(n) for n in pipe.hh_names}
    ip_ok = True
    for name in pipe.hh_names:
        ip = pipe.cat_full.compose(i_comps[name], p_comps[name])
        if not ip == twist_sum[name]:
            ip_ok = False
    cert_log.append(("sum of twists equals I∘P", "matrix", ip_ok))

    s_for = pipe.s_for_functor(pipe.hh_names)
    fun = identity_functor(pipe.cat_hh)
    sum_nat = NatTransform(fun, fun, twist_sum, name="Σ twists")
    sum_map = InducedMap(pipe.w_hh, pipe.w_full, s_for, sum_nat, name="(S∘forget,Σ)*")
    order = field.embed(len(grp))
    scaled_mu = LinearComboMap(pipe.w_hh, pipe.w_full, [(order, pipe.mu)], name="|G|·mu")

    cat = pipe.cat_full

    def h_map(k, idx):
        chain = pipe.w_hh.chains_at(k)[idx]
        objs = chain.objects
        m = chain.bar_degree
        pairs = pipe.w_hh._slot_pairs(objs)
        slots = [
            pipe.cat_hh.basis_mor(x, y, *key) for (x, y), key in zip(pairs, chain.keys)
        ]
        out = {}
        for i in range(m + 1):
            first = cat.compose(p_comps[objs[0]], s_for.apply(slots[0]))
            mors = [first]
            mors += [s_for.apply(slots[t]) for t in range(1, i + 1)]
            cut = objs[(i + 1) % (m + 1)]
            mors.append(i_comps[cut])
            mors += [slots[t] for t in range(i + 1, m + 1)]
            new_objs = (
                (objs[0],)
                + tuple(s_for.apply_obj(objs[t]) for t in range(1, i + 2) if t <= m)
                + ((s_for.apply_obj(objs[0]),) if i == m else ())
                + tuple(objs[t] for t in range(i + 1, m + 1))
            )
            pipe.w_full._add_image(out, new_objs, mors, parity_sign(i))
        return out

    # the insertion homotopy contracts |G|·mu onto the summed projector map
    cert = HomotopyCertificate(scaled_mu, sum_map, h_map, name="projector sum homotopy")
    ok = cert.check()
    # the summed twist map must also agree with the per-class matrices
    agree = True
    for k in pipe.degree_list:
        total = None
        for g2 in pipe.classes.representatives:
            size = len(pipe.classes.classes[pipe.classes.representatives.index(g2)])
            part = per_class[g2]["K"][k].scale(field.embed(size))
            total = part if total is None else total + part
        if not sum_map.homology_matrix(k) == total:
            agree = False
    cert_log.append(("projector sum over the group", "matrix", agree))
    cert_log.append(("projector sum homotopy", "formula", ok))
