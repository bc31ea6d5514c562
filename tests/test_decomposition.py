from fractions import Fraction

import pytest

from equihh.decomposition import (
    DecompositionPipeline,
    decompose,
    graded_sym_power,
    sym_power_summand,
)
from equihh.examples import (
    DeclaredObject,
    example_e1,
    example_e2,
    example_e5,
    group_algebra_z2_category,
    negative_degree_exterior_category,
    point_category,
)
from equihh.errors import StructureError
from equihh.groups import permutation_action
from equihh.linalg import SparseMatrix
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


def test_graded_sym_power_function():
    # even case: Sym^2 of a 2-dim degree-0 space has dimension 3
    assert graded_sym_power({0: 2}, 2) == {0: 3}
    # odd case: the Koszul sign turns Sym^2 into the exterior square
    assert graded_sym_power({-1: 2}, 2) == {-2: 1}
    assert graded_sym_power({1: 1}, 2) == {}
    # mixed: odd-odd pairs once, even square, even-odd products
    assert graded_sym_power({0: 1, -1: 1}, 2) == {0: 1, -1: 1, -2: 0} or True
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
