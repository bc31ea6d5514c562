from fractions import Fraction

import pytest

from equihh.decomposition import (
    DecompositionPipeline,
    decompose,
    graded_sym_power,
    run_checks,
    sym_power_summand,
)
from equihh.examples import (
    DeclaredObject,
    example_e1,
    example_e2,
    example_e5,
    group_algebra_z2_category,
    point_category,
)
import equihh.cli as cli
import equihh.decomposition as decomposition
import equihh.equivariant as equivariant
from equihh.errors import InputError, StructureError
from equihh.groups import permutation_action
from equihh.hochschild import ColumnMap, HomotopyCertificate, LinearComboMap
from equihh.linalg import SparseMatrix
from tests_support import negative_degree_exterior_category
from equihh.scalars import QQ


def run_bundle(bundle, certificates=True):
    return decompose(
        bundle.action,
        bundle.declared,
        bundle.generators,
        hh_names=bundle.hh_names or None,
        representations=bundle.representations,
        degrees=bundle.degrees,
        certificates=certificates,
    )


def test_e1_report():
    rep = run_bundle(example_e1())
    assert rep.theorem_holds
    assert rep.lhs_dims[0] == 2
    sums = {b.representative: b.summand_dims[0] for b in rep.class_blocks}
    assert sums == {"e": 1, "s": 1}
    assert rep.certification == "Exact"
    assert all(ok for _, _, ok in rep.certificates)
    assert rep.rep_checks["sign"][0]
    assert rep.rep_checks["sign"][1] == {"e": 1, "s": -1}
    assert rep.rep_checks["regular"][1] == {"e": 2, "s": 0}


def test_e2_report():
    rep = run_bundle(example_e2())
    assert rep.theorem_holds
    assert rep.lhs_dims[0] == 1
    sums = {b.representative: b.summand_dims[0] for b in rep.class_blocks}
    assert sums == {"e": 1, "s": 0}
    assert all(ok for _, _, ok in rep.certificates)


def test_e5_report():
    rep = run_bundle(example_e5())
    assert rep.theorem_holds
    assert rep.lhs_dims[0] == 3
    assert [b.summand_dims[0] for b in rep.class_blocks] == [1, 1, 1]
    assert {b.representative for b in rep.class_blocks} == {"123", "132", "231"}
    orders = sorted(len(b.centralizer) for b in rep.class_blocks)
    assert orders == [2, 3, 6]
    assert rep.rep_checks["regular"][0]
    chi = rep.rep_checks["regular"][1]
    assert sorted(chi.values(), reverse=True) == [6, 0, 0]
    assert rep.runtime < 60


def test_e1_projection_and_inclusion_matrices():
    b = example_e1()
    pipe = DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names,
        representations={}, degrees=(0, 0),
    )
    proj_e = pipe.projection("e")
    a_mat = proj_e.homology_matrix(0) * pipe.mu.homology_matrix(0)
    # surjection from the 2-dim equivariant HH0 onto the 1-dim target
    assert a_mat.nrows == 1 and a_mat.ncols == 2
    assert not a_mat.is_zero()
    inc_e = pipe.inclusion("e")
    b_mat = inc_e.homology_matrix(0)
    assert b_mat.ncols == 1
    lam = pipe.lam("e").homology_matrix(0)
    from equihh.linalg import matrix_inverse

    comp = matrix_inverse(lam) * proj_e.homology_matrix(0) * b_mat
    # projection∘inclusion = |C(e)| = 2 on the invariants
    assert comp == SparseMatrix.from_rows([[2]])


def test_e2_twisted_projection_is_zero_map():
    b = example_e2()
    pipe = DecompositionPipeline(
        b.action, [], b.generators, hh_names=None, representations={}, degrees=(0, 0)
    )
    proj_s = pipe.projection("s")
    m = proj_s.homology_matrix(0)
    assert m.nrows == 0  # the twisted homology vanishes
    assert pipe.w_small["s"].homology(0)[0] == 0


def test_sabotaged_alpha_fails_with_witness():
    b = example_e1()
    bad = DeclaredObject(
        "minus",
        ("pt",),
        {"e": {(0, 0, 0, "1"): QQ.one}, "s": {(0, 0, 0, "1"): Fraction(2)}},
    )
    with pytest.raises(StructureError) as err:
        decompose(
            b.action,
            [b.declared[0], bad],
            b.generators,
            hh_names=b.hh_names,
            representations={},
            degrees=(0, 0),
        )
    assert "cocycle" in str(err.value) or "invertib" in str(err.value)


def test_each_roster_object_is_validated_once(monkeypatch):
    """decompose on E5 validates each of its 8 roster objects once, the 3
    declared ones included."""
    names = []
    validate = equivariant.validate_equivariant

    def counting(laction, obj):
        names.append(obj.name)
        return validate(laction, obj)

    monkeypatch.setattr(equivariant, "validate_equivariant", counting)
    # and wherever it is imported by name
    for module in (decomposition, cli):
        monkeypatch.setattr(module, "validate_equivariant", counting, raising=False)
    report = run_bundle(example_e5())
    assert report.theorem_holds
    assert len(names) == len(set(names)) == len(report.roster_names) == 8


def test_pipeline_with_no_degrees_is_an_input_error():
    b = example_e1()
    with pytest.raises(InputError) as exc:
        DecompositionPipeline(b.action, b.declared, b.generators, degrees=())
    assert exc.value.location == "degrees"


def test_sym_power_with_no_degrees_is_an_input_error():
    with pytest.raises(InputError) as exc:
        sym_power_summand(point_category(), 2, degrees=())
    assert exc.value.location == "degrees"


def test_graded_sym_power_function():
    # even case: Sym^2 of a 2-dim degree-0 space has dimension 3
    assert graded_sym_power({0: 2}, 2) == {0: 3}
    # odd case: the Koszul sign turns Sym^2 into the exterior square
    assert graded_sym_power({-1: 2}, 2) == {-2: 1}
    assert graded_sym_power({1: 1}, 2) == {}
    # mixed: odd-odd pairs once, even square, even-odd products
    mixed = graded_sym_power({0: 1, -1: 1}, 2)
    assert mixed == {0: 1, -1: 1}


def test_sym_square_point():
    report = sym_power_summand(point_category(), 2, degrees=(0, 0))
    assert report["match"]
    assert report["sym_dims"] == {0: 1}
    assert report["invariant_dims"] == {0: 1}


def test_sym_square_group_algebra():
    report = sym_power_summand(group_algebra_z2_category(), 2, degrees=(-1, 0))
    assert report["match"]
    assert report["sym_dims"][0] == 3
    assert report["invariant_dims"][0] == 3
    assert report["power_dims"][0] == 4


def test_sym_cube_group_algebra():
    report = sym_power_summand(group_algebra_z2_category(), 3, degrees=(0, 0))
    assert report["match"]
    assert report["sym_dims"][0] == 4  # multisets of size 3 from 2 classes
    assert report["invariant_dims"][0] == 4


def test_sym_square_odd_generator():
    # HH of the degree -1 exterior point has one class in each degree <= 0;
    # the odd classes square to zero in the graded-symmetric power
    report = sym_power_summand(
        negative_degree_exterior_category(), 2, degrees=(-2, 0)
    )
    assert report["match"], report
    assert report["sym_dims"][0] == 1
    # degree -1: only (0-class)·(-1-class); the square of the odd class is gone
    assert report["sym_dims"][-1] == 1
    # degree -2: (0)·(-2) plus nothing from (-1,-1)
    assert report["sym_dims"][-2] == 1


def test_sym_square_full_equivariant_route():
    # the equivariant category of the swap action on k[Z/2]⊗k[Z/2],
    # with the four sign objects and the symmetrized generator: the
    # identity-class summand equals the symmetric square
    base = group_algebra_z2_category()
    action, power = permutation_action(base, 2)
    (obj,) = power.objects
    one = QQ.one
    k11 = (0, ((0, "1"), (0, "1")))
    kgg = (0, ((0, "g"), (0, "g")))

    def decl(name, e_coeff, s_coeffs):
        return DeclaredObject(
            name,
            (obj,),
            {
                "12": {(0, 0) + k11: one},
                "21": {(0, 0) + key: c for key, c in s_coeffs.items()},
            },
        )

    declared = [
        decl("plus_one", one, {k11: one}),
        decl("minus_one", one, {k11: -one}),
        decl("plus_gg", one, {kgg: one}),
        decl("minus_gg", one, {kgg: -one}),
        DeclaredObject(
            "reg2",
            (obj, obj),
            {
                "12": {(0, 0) + k11: one, (1, 1) + k11: one},
                "21": {(0, 1) + k11: one, (1, 0) + k11: one},
            },
        ),
    ]
    rep = decompose(
        action,
        declared,
        [obj],
        hh_names=[d.name for d in declared],
        representations={},
        degrees=(0, 0),
        certificates=False,
    )
    assert rep.theorem_holds
    assert rep.lhs_dims[0] == 5
    sums = {b.representative: b.summand_dims[0] for b in rep.class_blocks}
    assert sums == {"12": 3, "21": 2}
    sym = sym_power_summand(base, 2, degrees=(0, 0))
    assert sums["12"] == sym["sym_dims"][0] == 3


def test_scaled_nonstrict_action_decomposes():
    # the nontrivial eta/theta force alpha_e = 4 and alpha_s = ±2: two
    # isomorphism classes of equivariant structures on the point
    from tests_support import scaled_action

    act = scaled_action()
    plus = DeclaredObject(
        "plus2",
        ("pt",),
        {"e": {(0, 0, 0, "1"): Fraction(4)}, "s": {(0, 0, 0, "1"): Fraction(2)}},
    )
    minus = DeclaredObject(
        "minus2",
        ("pt",),
        {"e": {(0, 0, 0, "1"): Fraction(4)}, "s": {(0, 0, 0, "1"): Fraction(-2)}},
    )
    rep = decompose(
        act,
        [plus, minus],
        ["pt"],
        hh_names=["plus2", "minus2"],
        representations={},
        degrees=(0, 0),
    )
    assert rep.theorem_holds, rep.witnesses
    assert rep.lhs_dims[0] == 2
    sums = {b.representative: b.summand_dims[0] for b in rep.class_blocks}
    assert sums == {"e": 1, "s": 1}


def test_undersized_covering_detected():
    # declaring only one of the two structures leaves the covering
    # inclusion non-surjective on homology, which the report flags
    from tests_support import scaled_action

    act = scaled_action()
    decl = DeclaredObject(
        "unit4",
        ("pt",),
        {"e": {(0, 0, 0, "1"): Fraction(4)}, "s": {(0, 0, 0, "1"): Fraction(2)}},
    )
    rep = decompose(
        act, [decl], ["pt"], hh_names=["unit4"], representations={}, degrees=(0, 0)
    )
    assert not rep.theorem_holds
    assert not rep.checks["covering_isomorphism"]
    assert rep.witnesses == [
        "covering inclusion not a homology isomorphism at degree 0",
        "dimension sum mismatch",
    ]


def test_projector_factorization_is_evaluated_where_mu_is_singular():
    # the factorization reads mu's matrix, not its inverse, so a doubled
    # projector map fails it on the undersized covering too
    from tests_support import scaled_action

    decl = DeclaredObject(
        "unit4",
        ("pt",),
        {"e": {(0, 0, 0, "1"): Fraction(4)}, "s": {(0, 0, 0, "1"): Fraction(2)}},
    )
    pipe = DecompositionPipeline(
        scaled_action(), [decl], ["pt"], hh_names=["unit4"], representations={},
        degrees=(0, 0),
    )
    projector_map = pipe.projector_map
    pipe.projector_map = lambda g: LinearComboMap(
        pipe.w_hh, pipe.w_full, [(Fraction(2), projector_map(g))]
    )
    rep = run_checks(pipe)
    assert not rep.checks["covering_isomorphism"]
    assert not rep.checks["projector_factorization"]
    assert "projector factorization fails for e at degree 0" in rep.witnesses


def bundle_pipeline(bundle, degrees=None, certificates=True):
    return DecompositionPipeline(
        bundle.action,
        bundle.declared,
        bundle.generators,
        hh_names=bundle.hh_names or None,
        representations=bundle.representations,
        degrees=degrees or bundle.degrees,
        certificates=certificates,
    )


def test_no_certificates_skips_every_certificate():
    # the representative transports of E5 are certificates too
    rep = run_bundle(example_e5(), certificates=False)
    assert rep.certificates == []
    assert rep.theorem_holds
    assert all(rep.checks.values())


def test_singular_generator_inclusion_fails_its_checks():
    # a zero lambda has no inverse: the checks that need L^-1 fail
    # instead of the run crashing
    pipe = bundle_pipeline(example_e1(), degrees=(-2, 0), certificates=False)
    pipe.lam = lambda g: LinearComboMap(pipe.w_small[g], pipe.w_big[g], [])
    rep = run_checks(pipe)
    failed = sorted(name for name, ok in rep.checks.items() if not ok)
    assert failed == [
        "projection_inclusion_trace",
        "projector_factorization",
        "trace_scalar_on_invariants",
    ]
    assert rep.witnesses == [
        "projection∘inclusion mismatch for e at degree 0",
        "projection∘inclusion mismatch for s at degree 0",
        "generator inclusion not iso for e at degree 0",
        "generator inclusion not iso for s at degree 0",
    ]
    assert not rep.theorem_holds


def test_witness_order_with_doubled_inclusion():
    pipe = bundle_pipeline(example_e1(), certificates=False)
    inclusion = pipe.inclusion
    two = pipe.eqcat.ambient.field.embed(2)
    pipe.inclusion = lambda g: LinearComboMap(
        pipe.w_small[g], pipe.w_full, [(two, inclusion(g))]
    )
    rep = run_checks(pipe)
    failed = sorted(name for name, ok in rep.checks.items() if not ok)
    assert failed == [
        "projection_inclusion_trace",
        "projector_factorization",
        "trace_scalar_on_invariants",
    ]
    assert rep.witnesses == [
        "projection∘inclusion mismatch for e at degree 0",
        "projection∘inclusion mismatch for s at degree 0",
        "projection∘inclusion is not |C(g)|·id on invariants for e at 0",
        "projection∘inclusion is not |C(g)|·id on invariants for s at 0",
        "projector factorization fails for e at degree 0",
        "projector factorization fails for s at degree 0",
    ]
    assert rep.dims_match and all(ok for ok, _ in rep.rep_checks.values())


def sabotaged_class_data(monkeypatch, change):
    """Let ``change(g, data)`` alter the class data of g after it is built
    and before any check reads it."""
    build = decomposition._build_class_data

    def changed(pipe, g, degs, mu_mat, mu_inv):
        data = build(pipe, g, degs, mu_mat, mu_inv)
        change(g, data)
        return data

    monkeypatch.setattr(decomposition, "_build_class_data", changed)


def doubled(matrices, key):
    matrices[key] = {k: m.scale(Fraction(2)) for k, m in matrices[key].items()}


def class_witnesses(text):
    return [text.format(g=g) for g in ("e", "s")]


def set_projector(g, data, projectors):
    """Replace the class projector of g at degree 0 where ``projectors``
    names one."""
    if g in projectors:
        rows = [[Fraction(x) for x in row] for row in projectors[g]]
        data["E"][0] = SparseMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "change, failed, witnesses",
    [
        (
            lambda g, data: data.update(mismatches=[(0, 0)]),
            "chain_functoriality",
            class_witnesses("chain-level functoriality fails for pi∘mu at {g}"),
        ),
        (
            lambda g, data: doubled(data["M_small"], "s"),
            "centralizer_right_action",
            class_witnesses("centralizer right-action law fails for (s,s) at {g}, degree 0"),
        ),
        (
            lambda g, data: doubled(data["M_big"], "s"),
            "projection_invariance",
            class_witnesses("projection not invariant under s in the class of {g} at degree 0"),
        ),
        (
            lambda g, data: doubled(data, "avg"),
            "averaging_idempotent",
            class_witnesses("averaging projector for {g} not idempotent at degree 0"),
        ),
        # E_s = 0: both projectors stay idempotent and orthogonal, and every
        # representation still acts on them by its character
        (
            lambda g, data: set_projector(g, data, {"s": [[0, 0], [0, 0]]}),
            "projector_sum_identity",
            ["projectors do not sum to the identity at degree 0"],
        ),
    ],
    ids=[
        "chain-functoriality",
        "centralizer-right-action",
        "projection-invariance",
        "averaging",
        "projector-sum",
    ],
)
def test_witness_of_each_sabotaged_check(change, failed, witnesses, monkeypatch):
    """E1 with one piece of its class data changed: only the check that
    reads it fails, with its witnesses."""
    sabotaged_class_data(monkeypatch, change)
    rep = run_checks(bundle_pipeline(example_e1(), certificates=False))
    assert [name for name, ok in rep.checks.items() if not ok] == [failed]
    assert rep.witnesses == witnesses
    assert not rep.theorem_holds


def test_witness_of_projectors_that_are_not_orthogonal_idempotents(monkeypatch):
    """E1's projectors E_e ± X with X = [[0, 1], [0, 0]] still sum to the
    identity; no representation acts on both by its character (the sign
    would need X = -X), so this run has none."""
    projectors = {"e": [["1/2", "3/2"], ["1/2", "1/2"]], "s": [["1/2", "-3/2"], ["-1/2", "1/2"]]}
    sabotaged_class_data(monkeypatch, lambda g, data: set_projector(g, data, projectors))
    pipe = bundle_pipeline(example_e1(), certificates=False)
    pipe.representations = {}
    rep = run_checks(pipe)
    assert [name for name, ok in rep.checks.items() if not ok] == [
        "projectors_orthogonal_idempotent"
    ]
    assert rep.witnesses == [
        *class_witnesses("projector of {g} not idempotent at degree 0"),
        "projectors of e, s not orthogonal at degree 0",
        "projectors of s, e not orthogonal at degree 0",
    ]
    assert not rep.theorem_holds


def test_witness_of_conjugate_representatives_that_disagree(monkeypatch):
    # S3's transpositions and 3-cycles have conjugate representatives
    sabotaged_class_data(
        monkeypatch, lambda g, data: data["K_alt"] and doubled(data, "K_alt")
    )
    rep = run_checks(bundle_pipeline(example_e5(), certificates=False))
    assert [name for name, ok in rep.checks.items() if not ok] == ["representative_independence"]
    assert rep.witnesses == [
        f"projector differs between conjugate representatives of {g} at 0" for g in ("132", "231")
    ]
    assert not rep.theorem_holds


def test_witness_of_a_representation_acting_by_another_character(monkeypatch):
    """The sign representation's character read with s -> +1: T[sign] acts
    on E_s by -1, not by the character."""
    read = decomposition.character

    def wrong_sign(rep, classes):
        chi = read(rep, classes)
        return {**chi, "s": abs(chi["s"])} if rep.name == "sign" else chi

    monkeypatch.setattr(decomposition, "character", wrong_sign)
    rep = run_checks(bundle_pipeline(example_e1(), certificates=False))
    assert all(rep.checks.values())
    assert rep.witnesses == [
        "representation sign does not act by its character on the class of s at degree 0"
    ]
    assert [name for name, (ok, _) in rep.rep_checks.items() if not ok] == ["sign"]
    assert not rep.theorem_holds


def test_full_window_over_the_budget_skips_every_certificate(monkeypatch):
    """E5's W_full (and every W_big) exceeds a budget of one chain, so not
    even the representative transports run."""
    monkeypatch.setattr(decomposition, "CERTIFICATE_CHAIN_BUDGET", 1)
    rep = run_checks(bundle_pipeline(example_e5()))
    assert rep.certificates == [("homotopy certificates", "skipped: window too large", True)]
    assert rep.theorem_holds


def transport_with_wrong_homotopy(transport):
    """``transport`` whose certificate's H is off by one target chain b
    with db != 0 on every source chain of the lowest checked degree k, so
    dH + Hd misses f - g by db on each chain of degree k."""

    def wrong(induced, alpha, psi):
        transported, cert = transport(induced, alpha, psi)
        src, tgt = cert.f.src, cert.f.tgt
        k, b = next(
            (k, b)
            for k in range(src.lo + 1, src.hi)
            if src.dim(k)
            for b, col in enumerate(tgt.differential(k - 1).cols)
            if col
        )
        one = tgt.field.one
        off = ColumnMap(src, tgt, {k: [{b: one}] * src.dim(k)})
        h = LinearComboMap(src, tgt, [(one, cert.h), (one, off)])
        return transported, HomotopyCertificate(cert.f, cert.g, h, name=cert.name)

    return wrong


def test_wrong_transport_homotopy_fails_checks_1_and_4(monkeypatch):
    import equihh.decomposition as decomposition

    monkeypatch.setattr(
        decomposition,
        "conjugate_transport",
        transport_with_wrong_homotopy(decomposition.conjugate_transport),
    )
    for bundle, degrees, kind in [
        (example_e1(), (-2, 0), "projection invariance ["),
        (example_e5(), None, "representative transport ["),
    ]:
        rep = run_checks(bundle_pipeline(bundle, degrees=degrees))
        hit = [c for c in rep.certificates if c[0].startswith(kind)]
        assert hit and all(mode == "transport" and not ok for _, mode, ok in hit), hit
        # the other certificates do not transport and still pass
        others = [c for c in rep.certificates if c not in hit]
        assert others and all(ok for _, _, ok in others), others


def test_restrict_endofunctor_views_the_ambient_functor():
    from equihh.decomposition import restrict_endofunctor
    from equihh.dgcat import full_subcategory

    pipe = bundle_pipeline(example_e2())
    sub = pipe.cat_small
    for g in pipe.group.elements:
        fun = pipe.laction.rho(g)
        view = restrict_endofunctor(fun, sub)
        for x, y, key in sub.all_basis_morphisms():
            assert view.apply_obj(x) == fun.apply_obj(x)
            assert view.image(x, y, key) == fun.apply(sub.basis_mor(x, y, *key))
    lone = full_subcategory(pipe.laction.category, [("x1",)])
    with pytest.raises(StructureError, match="not closed"):
        restrict_endofunctor(pipe.laction.rho("s"), lone)
