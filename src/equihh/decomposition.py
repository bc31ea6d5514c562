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
actions, and the representation tensor.  The one-shot composite is
``(compose_functors(S, forget), eps_star(S, phi_g, forget, alpha_g))_*``
with S the symmetrization functor on the covering objects' underlying
objects, and every centralizer or conjugation twist
theta[g,h]^{-1}∘theta[h,g2] is ``GroupAction.conjugation_transform``,
passed to the induced map as it is.  Every piece of S comes from the
equivariant category: the roster name of S(c), S on morphisms, the
components of phi_g and the pair I, P of the projector-sum certificate;
this module names objects and composes functors, and lays out no block
matrix.  Five checks, all as exact
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

The checks read one record per conjugacy class, built once by
``_build_class_data`` and never written afterwards.  ``_failures`` is one
ordered stream of (check name, witness or None) pairs, one per failed
instance in report order; ``run_checks`` starts every name in ``CHECKS``
as passed and fails it on each pair.  With ``certificates=False``
(``--no-certificates``) no certificate runs; otherwise none runs on a
truncated window, the homotopy certificates run only while every window
fits the chain budget, and the representative transports while W_full
does.

The transport certificates of checks 1 and 4 compose a map with the
projection (check 1 verifying the composite chain by chain) and then run
through one routine, ``_transport_certificate``: transport a projection
along alpha_h to the composite's functor, compare the two twists
componentwise, compare homology matrices (each check its own), and check
the transport homotopy.  A trace-decomposition certificate
records how its homotopy was found: "formula", "formula+solved" or
"failed".
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .dgcat import (
    DgFunctor,
    NatTransform,
    compose_functors,
    full_subcategory,
    functors_equal,
    hull_inclusion,
    identity_functor,
)
from .equivariant import (
    EquivariantCategory,
    base_violation,
    closure_under_action,
    lift_action,
    realize_declared,
    rep_tensor,
    symmetrize,
)
from .errors import EquihhError as EquihhErrorBase
from .errors import InputError, StructureError
from .groups import GroupAction, character, conjugacy_data, permutation_action
from .hochschild import (
    HomotopyCertificate,
    InducedMap,
    InsertionHomotopy,
    build_window,
    compose_induced,
    conjugate_transport,
    degree_bounds,
    eps_star,
    hh_dimensions,
    induced_composite,
    verify_trace_decomposition,
)
from .linalg import SparseMatrix, matrix_inverse, rank_kernel_image
from .scalars import format_scalar

CERTIFICATE_CHAIN_BUDGET = 6000  # skip homotopy certificates above this window size


def restrict_endofunctor(fun: DgFunctor, sub) -> DgFunctor:
    """View of an ambient endofunctor on a full subcategory closed under it;
    the subcategory keeps the ambient basis keys, so it shares the
    ambient morphism table."""
    obj_map = {x: fun.apply_obj(x) for x in sub.objects}
    for x, img in obj_map.items():
        if img not in sub.objects:
            raise StructureError(f"subcategory not closed under {fun.name}: {x} -> {img}")
    return DgFunctor(sub, sub, obj_map, fun.mor_map, name=fun.name)


@dataclass
class ClassBlock:
    representative: str
    members: list
    centralizer: list
    summand_dims: dict
    matrices: dict  # degree -> {name: rows}


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
        self.dlo, self.dhi = degree_bounds(degrees)
        self.degree_list = list(range(self.dlo, self.dhi + 1))
        self.bar_cap = bar_cap
        self.certificates_wanted = certificates
        self._plan_and_build(hh_names)

    # -- construction ------------------------------------------------------

    def _plan_and_build(self, hh_names):
        base = self.base_action
        violation = base_violation(base)
        if violation is not None:
            raise InputError(f"the action does not validate: {violation}", "action")

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

        for d in self.declared:
            # validated with the whole roster by EquivariantCategory
            add(realize_declared(self.laction, d))
        symmetrized = {t: add(symmetrize(self.laction, t)) for t in small}
        if hh_decl is None:
            hh_decl = [symmetrized[t] for t in gen_tuples]
        self.hh_names = hh_decl
        by_name = {o.name: o for o in roster}
        for name in self.hh_names:
            if name not in by_name:  # add() merged it into an equal roster object
                raise InputError(f"{name!r} duplicates another roster object", "covering")
            for t in sorted(closure_under_action(base, [by_name[name].underlying]), key=repr):
                if t not in symmetrized:
                    symmetrized[t] = add(symmetrize(self.laction, t))
        for rep in self.representations.values():
            for name in self.hh_names:
                add(rep_tensor(self.laction, rep, by_name[name]))
        self.eqcat = EquivariantCategory(self.laction, roster, base_valid=True)
        self.roster_names = list(self.eqcat.order)

        # window categories
        self.small_objs = small
        big = closure_under_action(base, small + [o.underlying for o in roster])
        self.big_objs = sorted(big, key=repr)
        self.cat_small = full_subcategory(ambient, self.small_objs)
        self.cat_big = full_subcategory(ambient, self.big_objs)
        # the covering objects' underlying tuples, closed under the action
        cover = [self.eqcat.roster[name].underlying for name in self.hh_names]
        self.cat_cover = full_subcategory(ambient, closure_under_action(base, cover))
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
            self.w_small[g] = self._window_for(self.cat_small, self._rho_small, g)
            self.w_big[g] = self._window_for(self.cat_big, self._rho_big, g)

        # canonical functors and transformations
        self.forget_full = self.eqcat.forgetful_functor(self.cat_full, self.cat_big)
        self.forget_hh = self.eqcat.forgetful_functor(self.cat_hh, self.cat_cover)
        self.s_small = self.eqcat.symmetrization_functor(self.cat_small)
        self.s_cover = self.eqcat.symmetrization_functor(self.cat_cover)
        self.s_forget = compose_functors(self.s_cover, self.forget_hh, name="S∘forget")
        self.incl_small = hull_inclusion(self.cat_small, self.cat_big)
        self.mu = _unit_twisted(
            self.w_hh, self.w_full, hull_inclusion(self.cat_hh, self.cat_full), "mu"
        )

    def _window_for(self, cat, rho_table, g):
        """The window of rho_g on ``cat``: a representative's own, else the
        window of a representative with the same rho, else a new one."""
        table = self.w_small if cat is self.cat_small else self.w_big
        if g in table:
            return table[g]
        fun = rho_table[g]
        base = self.base_action
        for g2, win in table.items():
            if base.rho(g2) is base.rho(g) or functors_equal(rho_table[g2], fun):
                return win
        return build_window(cat, fun, self.dlo - 1, self.dhi + 1, self.bar_cap)

    # -- transformations per class rep --------------------------------------

    def alpha_nat(self, g) -> NatTransform:
        """alpha_g: forget ⇒ rho_g∘forget with components the structure maps."""
        comps = {name: self.eqcat.roster[name].alpha[g] for name in self.cat_full.objects}
        return _twist(self.cat_full, comps, f"alpha[{g}]")

    def phi_nat(self, g, cat) -> NatTransform:
        """phi_g: S∘rho_g ⇒ S on the objects of the hull subcategory ``cat``."""
        comps = {c: self.eqcat.phi_component(g, c) for c in cat.objects}
        return _twist(cat, comps, f"phi[{g}]")

    def k_twist(self, g) -> NatTransform:
        """phi_g ⋆ alpha_g: S∘forget ⇒ S∘forget, phi_g at each covering
        object's underlying object composed with S(alpha_g)."""
        return eps_star(
            self.s_cover,
            self.phi_nat(g, self.cat_cover),
            self.forget_hh,
            self.alpha_nat(g),
            name=f"phi⋆alpha[{g}]",
        )

    def centralizer_map(self, window, rho_table, h, g) -> InducedMap:
        c_nat = self.laction.centralizer_transform(h, g)
        return InducedMap(window, window, rho_table[h], c_nat, name=f"(rho[{h}],C[{h},{g}])*")

    # -- the main maps -------------------------------------------------------

    def projection(self, g) -> InducedMap:
        """(forget, alpha_g)_*: W_full -> the big window of rho_g."""
        return InducedMap(
            self.w_full,
            self._window_for(self.cat_big, self._rho_big, g),
            self.forget_full,
            self.alpha_nat(g),
            name=f"pi[{g}]",
        )

    def inclusion(self, g) -> InducedMap:
        """(symmetrize, phi_g)_*: W_small -> W_full."""
        phi = self.phi_nat(g, self.cat_small)
        return InducedMap(self.w_small[g], self.w_full, self.s_small, phi, name=f"iota[{g}]")

    def lam(self, g) -> InducedMap:
        return _unit_twisted(self.w_small[g], self.w_big[g], self.incl_small, f"lambda[{g}]")

    def projector_map(self, g) -> InducedMap:
        """(S∘forget, phi_g ⋆ alpha_g)_*: W_hh -> W_full, the one-shot
        inclusion∘projection composite."""
        return InducedMap(
            self.w_hh, self.w_full, self.s_forget, self.k_twist(g), name=f"iota∘pi[{g}]"
        )


def _twist(cat, comps, name) -> NatTransform:
    """A twist of the pipeline's induced maps: components ``comps`` at the
    objects of ``cat``, with the identity functor of ``cat`` as nominal
    source and target (an induced map reads only the components)."""
    fun = identity_functor(cat)
    return NatTransform(fun, fun, comps, name=name)


def _unit_twisted(src, tgt, phi, name) -> InducedMap:
    """(phi, 1)_*: src -> tgt for a functor phi that commutes with the
    windows' twists F, G on objects; the twist is the unit at phi(F c)."""
    unit = tgt.category.unit
    comps = {c: unit(phi.apply_obj(src.functor.apply_obj(c))) for c in src.category.objects}
    return InducedMap(src, tgt, phi, _twist(src.category, comps, "1"), name=name)


def _is_idempotent(m: SparseMatrix) -> bool:
    return m * m == m


def _fits_budget(window) -> bool:
    """Whether every degree of ``window`` is small enough for certificates."""
    return all(
        window.dim(k) <= CERTIFICATE_CHAIN_BUDGET for k in range(window.lo, window.hi + 1)
    )


def decompose(action, declared, generators, **options) -> DecompositionReport:
    """Build the pipeline (``options`` are DecompositionPipeline's keyword
    parameters) and run every check, timing both."""
    start = time.perf_counter()
    report = run_checks(DecompositionPipeline(action, declared, generators, **options))
    report.runtime = time.perf_counter() - start
    return report


# the named checks of a report; each passes until a failure of it is seen
CHECKS = (
    "chain_functoriality",
    "centralizer_right_action",
    "covering_isomorphism",
    "projection_invariance",
    "projection_inclusion_trace",
    "cross_class_vanishing",
    "averaging_idempotent",
    "trace_scalar_on_invariants",
    "projector_factorization",
    "representative_independence",
    "projector_sum_identity",
    "projectors_orthogonal_idempotent",
)


def run_checks(pipe: DecompositionPipeline) -> DecompositionReport:
    degs = pipe.degree_list
    reps = pipe.classes.representatives
    lhs_dims = {k: pipe.w_hh.homology(k)[0] for k in degs}
    mu_mat = {k: pipe.mu.homology_matrix(k) for k in degs}
    mu_inv = {k: matrix_inverse(mu_mat[k]) for k in degs}
    data = {g: _build_class_data(pipe, g, degs, mu_mat, mu_inv) for g in reps}

    checks = dict.fromkeys(CHECKS, True)
    witnesses = []
    for name, witness in _failures(pipe, data, mu_mat, mu_inv):
        checks[name] = False
        if witness is not None:
            witnesses.append(witness)

    class_blocks = [
        ClassBlock(
            representative=g,
            members=members,
            centralizer=pipe.classes.centralizers[g],
            summand_dims={k: rank_kernel_image(data[g]["avg"][k])[0] for k in degs},
            matrices=data[g]["matrices"],
        )
        for g, members in zip(reps, pipe.classes.classes)
    ]
    dims_match = all(
        lhs_dims[k] == sum(b.summand_dims[k] for b in class_blocks) for k in degs
    )
    if not dims_match:
        witnesses.append("dimension sum mismatch")

    rep_checks = {}
    for rname, rep in pipe.representations.items():
        chi = character(rep, pipe.classes)
        failures = list(_representation_failures(pipe, data, mu_inv, rname, rep, chi))
        witnesses.extend(w for w in failures if w is not None)
        rep_checks[rname] = (not failures, chi)

    return DecompositionReport(
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
        certificates=_certificates(pipe, data),
        runtime=0.0,
    )


def _rows(matrix: SparseMatrix):
    return [[format_scalar(v) for v in row] for row in matrix.to_rows()]


def _build_class_data(pipe, g, degs, mu_mat, mu_inv):
    """Everything the checks and certificates read about the class of g,
    built once and not changed afterwards.

    Per degree: the homology matrices A (projection), B (inclusion), K
    (projector map) and L (generator inclusion lambda) with L_inv (None
    where lambda is singular); the centralizer action M_small[h] on the
    small window, its sum M_sum and average avg, and M_big[h] on the big
    window; and, where mu is invertible, the class projector E and the
    report's matrices.  Besides: the chain-level mismatches of pi∘mu, and
    a conjugate (a, g2 = a^-1 g a ≠ g) with its projector matrices K_alt,
    both None when g is central.
    """
    grp = pipe.group
    field = pipe.eqcat.ambient.field
    cent = pipe.classes.centralizers[g]
    inv_order = field.embed(Fraction(1, len(cent)))
    proj = pipe.projection(g)
    inc = pipe.inclusion(g)
    k_map = pipe.projector_map(g)
    lam = pipe.lam(g)
    _, mismatches = compose_induced(proj, pipe.mu)
    a_mat = {k: proj.homology_matrix(k) for k in degs}
    b_mat = {k: inc.homology_matrix(k) for k in degs}
    k_mat = {k: k_map.homology_matrix(k) for k in degs}
    l_mat = {k: lam.homology_matrix(k) for k in degs}
    m_small = {}
    m_big = {}
    for h in cent:
        m = pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h, g)
        m_small[h] = {k: m.homology_matrix(k) for k in degs}
        m = pipe.centralizer_map(pipe.w_big[g], pipe._rho_big, h, g)
        m_big[h] = {k: m.homology_matrix(k) for k in degs}
    m_sum = {}
    for k in degs:
        n = pipe.w_small[g].homology(k)[0]
        m_sum[k] = sum((m_small[h][k] for h in cent), SparseMatrix(n, n))
    e_mat = {
        k: (mu_inv[k] * k_mat[k]).scale(inv_order) for k in degs if mu_inv[k] is not None
    }
    matrices = {
        k: {
            "projection": _rows(a_mat[k] * mu_mat[k]),
            "inclusion": _rows(b_mat[k]),
            "projector": _rows(e),
        }
        for k, e in e_mat.items()
    }
    conjugate = k_alt = None
    for a in grp.elements:
        g2 = grp.mul(grp.mul(grp.inv(a), g), a)
        if g2 != g:
            conjugate = (a, g2)
            alt = pipe.projector_map(g2)
            k_alt = {k: alt.homology_matrix(k) for k in degs}
            break
    return {
        "proj": proj,
        "inc": inc,
        "mismatches": mismatches,
        "A": a_mat,
        "B": b_mat,
        "K": k_mat,
        "L": l_mat,
        "L_inv": {k: matrix_inverse(l_mat[k]) for k in degs},
        "M_small": m_small,
        "M_big": m_big,
        "M_sum": m_sum,
        "avg": {k: m_sum[k].scale(inv_order) for k in degs},
        "E": e_mat,
        "matrices": matrices,
        "conjugate": conjugate,
        "K_alt": k_alt,
    }


def _failures(pipe, data, mu_mat, mu_inv):
    """(check name, witness) for every failed instance of a check in
    CHECKS, in report order.  A check that cannot be evaluated where an
    inverse is missing fails with witness None."""
    degs = pipe.degree_list
    reps = pipe.classes.representatives
    cent = pipe.classes.centralizers
    field = pipe.eqcat.ambient.field
    for k in degs:
        if mu_inv[k] is None:
            yield "covering_isomorphism", (
                f"covering inclusion not a homology isomorphism at degree {k}"
            )

    # per class: chain-level functoriality of pi∘mu, right-action law
    for g in reps:
        if data[g]["mismatches"]:
            yield "chain_functoriality", f"chain-level functoriality fails for pi∘mu at {g}"
        m = data[g]["M_small"]
        for h in cent[g]:
            for h2 in cent[g]:
                hh2 = pipe.group.mul(h2, h)
                for k in degs:
                    if not m[h][k] * m[h2][k] == m[hh2][k]:
                        yield "centralizer_right_action", (
                            f"centralizer right-action law fails for ({h},{h2}) at {g}, degree {k}"
                        )

    # check 1: projection is centralizer-invariant
    for g in reps:
        a_mat = data[g]["A"]
        for h in cent[g]:
            for k in degs:
                if not data[g]["M_big"][h][k] * a_mat[k] == a_mat[k]:
                    yield "projection_invariance", (
                        f"projection not invariant under {h} in the class of {g} at degree {k}"
                    )

    # check 2/3: composite with inclusions, diagonal and cross-class
    for g in reps:
        for g2 in reps:
            for k in degs:
                prod = data[g]["A"][k] * data[g2]["B"][k]
                if g2 != g:
                    if not prod.is_zero():
                        yield "cross_class_vanishing", (
                            f"cross-class composite ({g}, {g2}) nonzero at degree {k}"
                        )
                elif not prod == data[g]["L"][k] * data[g]["M_sum"][k]:
                    yield "projection_inclusion_trace", (
                        f"projection∘inclusion mismatch for {g} at degree {k}"
                    )

    for g in reps:
        for k in degs:
            if not _is_idempotent(data[g]["avg"][k]):
                yield "averaging_idempotent", (
                    f"averaging projector for {g} not idempotent at degree {k}"
                )

    # check 2b: |C(g)|·id on the invariant image
    for g in reps:
        d = data[g]
        c_order = field.embed(len(cent[g]))
        for k in degs:
            avg = d["avg"][k]
            if d["L_inv"][k] is None:
                yield "trace_scalar_on_invariants", (
                    f"generator inclusion not iso for {g} at degree {k}"
                )
            elif not d["L_inv"][k] * d["A"][k] * d["B"][k] * avg == avg.scale(c_order):
                yield "trace_scalar_on_invariants", (
                    f"projection∘inclusion is not |C(g)|·id on invariants for {g} at {k}"
                )

    # the class projector factors through the invariants
    for g in reps:
        d = data[g]
        for k in degs:
            if d["L_inv"][k] is None:
                yield "projector_factorization", None
            elif not d["K"][k] == d["B"][k] * d["L_inv"][k] * d["A"][k] * mu_mat[k]:
                yield "projector_factorization", (
                    f"projector factorization fails for {g} at degree {k}"
                )

    # check 4: representative independence (end identity, certified directly)
    for g in reps:
        d = data[g]
        if d["K_alt"] is None:
            continue
        for k in degs:
            if not d["K"][k] == d["K_alt"][k]:
                yield "representative_independence", (
                    f"projector differs between conjugate representatives of {g} at {k}"
                )

    # check 5: weighted projectors sum to the identity
    for k in degs:
        if mu_inv[k] is None:
            yield "projector_sum_identity", None
            continue
        n = mu_mat[k].ncols
        total = sum((data[g]["E"][k] for g in reps), SparseMatrix(n, n))
        if not total == SparseMatrix.identity(n, one=field.one):
            yield "projector_sum_identity", (
                f"projectors do not sum to the identity at degree {k}"
            )

    # idempotents, orthogonality
    for k in degs:
        if mu_inv[k] is None:
            yield "projectors_orthogonal_idempotent", None
            continue
        for g in reps:
            if not _is_idempotent(data[g]["E"][k]):
                yield "projectors_orthogonal_idempotent", (
                    f"projector of {g} not idempotent at degree {k}"
                )
        for g in reps:
            for g2 in reps:
                if g2 != g and not (data[g]["E"][k] * data[g2]["E"][k]).is_zero():
                    yield "projectors_orthogonal_idempotent", (
                        f"projectors of {g}, {g2} not orthogonal at degree {k}"
                    )


def _representation_failures(pipe, data, mu_inv, rname, rep, chi):
    """A witness, or None where mu is not invertible, for every class and
    degree on which rep does not act on the class projector by its
    character chi."""
    t_fun = pipe.eqcat.rep_tensor_functor(rep, source_names=pipe.hh_names)
    t_map = _unit_twisted(pipe.w_hh, pipe.w_full, t_fun, f"T[{rname}]")
    for k in pipe.degree_list:
        if mu_inv[k] is None:
            yield None
            continue
        t_g = mu_inv[k] * t_map.homology_matrix(k)
        for g in pipe.classes.representatives:
            e_mat = data[g]["E"][k]
            if not t_g * e_mat == e_mat.scale(chi[g]):
                yield (
                    f"representation {rname} does not act by its character on the"
                    f" class of {g} at degree {k}"
                )


def _certificates(pipe, data):
    """The chain-level certificates, in report order: none unless wanted,
    one skipped entry when a window is truncated (a homotopy raises the
    bar degree past the cap), and only the representative transports
    unless every window fits the budget."""
    if not pipe.certificates_wanted:
        return []
    windows = [pipe.w_hh, pipe.w_full, *pipe.w_small.values(), *pipe.w_big.values()]
    if not all(w.certification.exact for w in windows):
        return [("homotopy certificates", "skipped: window truncated", True)]
    if not all(_fits_budget(w) for w in [pipe.w_full, *pipe.w_big.values()]):
        skipped = ("homotopy certificates", "skipped: window too large", True)
        return [skipped, *_check4_transports(pipe, data)]
    return [
        *_check1_certificates(pipe, data),
        *_check23_certificates(pipe, data),
        *_check4_transports(pipe, data),
        *_check5_certificate(pipe, data),
    ]


def _transport_certificate(pipe, combined, target, h, agree):
    """The route checks 1 and 4 share, given the induced map ``combined`` of
    a map composed with a projection: transport the projection ``target``
    along alpha_h: forget ⇒ rho_h∘forget to the functor of ``combined``.
    Passes when the twist of ``combined`` equals the conjugated twist
    alpha_h · eta · alpha_h^{-1} componentwise, the site's own homology
    comparison ``agree(transported)`` holds, and the transport homotopy
    checks; each part runs only if the ones before it passed."""
    transported, cert = conjugate_transport(target, pipe.alpha_nat(h), combined.phi)
    same_twist = all(
        combined.eps.at(name) == transported.eps.at(name) for name in pipe.cat_full.objects
    )
    return same_twist and agree(transported) and cert.check()


def _check1_certificates(pipe, data):
    """Chain-level route for check 1: the centralizer action composed with
    the projection is chain-level functorial and equals the projection
    conjugated along alpha_h, with an explicit transport homotopy back to
    the projection itself."""
    for g in pipe.classes.representatives:
        proj = data[g]["proj"]
        a_mat = data[g]["A"]
        for h in pipe.classes.centralizers[g]:
            if h == pipe.group.identity:
                continue
            m_big = pipe.centralizer_map(pipe.w_big[g], pipe._rho_big, h, g)
            combined, mismatches = compose_induced(m_big, proj)

            def agree(transported):
                return all(
                    transported.homology_matrix(k) == a_mat[k]
                    and (data[g]["M_big"][h][k] * a_mat[k]) == a_mat[k]
                    for k in pipe.degree_list
                )

            ok = not mismatches and _transport_certificate(pipe, combined, proj, h, agree)
            yield f"projection invariance [{g}] under {h}", "transport", ok


def _check23_certificates(pipe, data):
    """Trace-decomposition certificates for the diagonal and cross-class
    composites: projection∘inclusion = (forget∘symmetrize, alpha⋆phi)."""
    grp = pipe.group
    for g in pipe.classes.representatives:
        for g2 in pipe.classes.representatives:
            combined, mismatches = compose_induced(data[g]["proj"], data[g2]["inc"])
            summands = [
                (
                    _embedded_rho(pipe, h),
                    pipe.laction.conjugation_transform(h, g, g2)
                    if grp.mul(h, g) == grp.mul(g2, h)
                    else None,
                )
                for h in grp.elements
            ]
            try:
                matrices_equal, mode = verify_trace_decomposition(
                    combined, summands, pipe.degree_list
                )
                mats_ok = all(matrices_equal.values())
                cert_ok = mode != "failed"
            except StructureError as exc:
                mats_ok = cert_ok = False
                mode = f"error: {exc}"
            name = (
                f"trace decomposition [{g}]" if g2 == g else f"cross-class [{g},{g2}]"
            )
            yield name, mode, not mismatches and mats_ok and cert_ok


def _embedded_rho(pipe, h):
    """lambda∘rho_h: the summand functor of forget∘symmetrize."""
    return compose_functors(pipe.incl_small, pipe._rho_small[h], name=f"rho[{h}]")


def _check4_transports(pipe, data):
    """Record whether the printed intermediate transports of the
    representative-independence argument certify: the twist
    theta[g2,h]^{-1}∘theta[h,g] carries the projection for g into the
    alpha_h-conjugate of the projection for g2 = h^{-1} g h, with a
    transport homotopy back."""
    if not _fits_budget(pipe.w_full):
        return
    for g in pipe.classes.representatives:
        if data[g]["conjugate"] is None:
            continue
        h, g2 = data[g]["conjugate"]
        try:
            proj_g2 = pipe.projection(g2)
            tau = pipe.laction.conjugation_transform(h, g2, g)
            m_tau = InducedMap(
                pipe.w_big[g], proj_g2.tgt, pipe._rho_big[h], tau, name=f"(rho[{h}],tau)*"
            )
            combined = induced_composite(m_tau, data[g]["proj"])

            def agree(_transported):
                return all(
                    combined.homology_matrix(k) == m_tau.homology_matrix(k) * data[g]["A"][k]
                    for k in pipe.degree_list
                )

            ok = _transport_certificate(pipe, combined, proj_g2, h, agree)
        except EquihhErrorBase as exc:
            yield f"representative transport [{g}]", f"error: {exc}", False
            continue
        yield f"representative transport [{g}->{g2}] via {h}", "transport", ok


def _check5_certificate(pipe, data):
    """The explicit homotopy for the projector sum: inserting the unit
    component of the comparison isomorphism."""
    grp = pipe.group
    field = pipe.eqcat.ambient.field
    # I and P: the inclusion/projection of the identity block, unnormalized
    i_comps = {}
    p_comps = {}
    for name in pipe.hh_names:
        i_comps[name], p_comps[name] = pipe.eqcat.unit_counit(name)
        if i_comps[name] is None or p_comps[name] is None:
            yield "projector sum", "error: I/P not equivariant", False
            return
    # sum of the twists over the whole group equals I∘P
    twists = [pipe.k_twist(g) for g in grp.elements]
    twist_sum = {n: sum((tw.at(n) for tw in twists[1:]), twists[0].at(n)) for n in pipe.hh_names}
    ip_ok = all(
        pipe.cat_full.compose(i_comps[n], p_comps[n]) == twist_sum[n] for n in pipe.hh_names
    )
    yield "sum of twists equals I∘P", "matrix", ip_ok

    s_for = pipe.s_forget
    sum_nat = _twist(pipe.cat_hh, twist_sum, "Σ twists")
    sum_map = InducedMap(pipe.w_hh, pipe.w_full, s_for, sum_nat, name="(S∘forget,Σ)*")
    # |G|·mu as the induced map (mu.phi, |G|·1)_*, so that the certificate
    # below relates two induced maps and takes the table pass
    order = field.embed(len(grp))
    units = {c: unit.scale(order) for c, unit in pipe.mu.eps.components.items()}
    scaled = _twist(pipe.cat_hh, units, "|G|·1")
    scaled_mu = InducedMap(pipe.w_hh, pipe.w_full, pipe.mu.phi, scaled, name="|G|·mu")

    cat = pipe.cat_full

    def first(a0, c0):
        return cat.compose(p_comps[c0], s_for.apply(a0))

    h = InsertionHomotopy(
        pipe.w_hh, pipe.w_full, first, s_for.apply, i_comps.__getitem__, lambda a: a
    )

    # the insertion homotopy contracts |G|·mu onto the summed projector map
    cert = HomotopyCertificate(scaled_mu, sum_map, h, name="projector sum homotopy")
    ok = cert.check()
    # the summed twist map must also agree with the per-class matrices
    classes = list(zip(pipe.classes.representatives, pipe.classes.classes))
    agree = True
    for k in pipe.degree_list:
        parts = [data[g]["K"][k].scale(field.embed(len(members))) for g, members in classes]
        agree &= sum_map.homology_matrix(k) == sum(parts[1:], parts[0])
    yield "projector sum over the group", "matrix", agree
    yield "projector sum homotopy", "formula", ok


# ---------------------------------------------------------------------------
# symmetric powers


def graded_sym_power(dims: dict, n: int) -> dict:
    """Dimensions of the graded-symmetric n-th power of a graded vector
    space: multisets of basis elements where odd-degree elements may not
    repeat (the Koszul sign kills squares of odd classes)."""
    degrees = sorted(dims)
    basis = [d for d in degrees for _ in range(dims[d])]
    out = {}
    for combo in itertools.combinations_with_replacement(range(len(basis)), n):
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

    Returns a report dict: both dimension tables (``sym_dims``,
    ``invariant_dims``), their equality (``match``), HH of the power
    (``power_dims``) and the base window's flag.  The invariants are the
    image of the averaged permutation action, the symmetric power uses the
    Koszul rule on odd classes.
    """
    if n < 1:
        raise StructureError("symmetric power needs n >= 1")
    dlo, dhi = degree_bounds(degrees)
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
        rank, _ = rank_kernel_image(avg)
        invariant_dims[k] = rank
    return {
        "sym_dims": sym_dims,
        "invariant_dims": invariant_dims,
        "power_dims": power_dims,
        "certification": base_res["certification"].describe(),
        "match": sym_dims == invariant_dims,
    }
