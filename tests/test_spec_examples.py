"""Assorted small worked examples pinned to independently derived values."""

from fractions import Fraction

from equihh.decomposition import DecompositionPipeline, decompose
from equihh.dgcat import (
    NatTransform,
    algebra_category,
    compose_functors,
    identity_functor,
    validate_dgcat,
    validate_nat,
)
from equihh.equivariant import adjunction_maps, lift_action, realize_declared, sfor_iso, symmetrize
from equihh.examples import DeclaredObject, example_e1, example_e2, point_category
from equihh.groups import FiniteGroup, permutation_action, trivial_action, validate_action
from equihh.hochschild import hh_dimensions, build_window
from equihh.linalg import SparseMatrix
from equihh.scalars import QQ
from tests_support import centralizer_action_map, scaled_action


def test_alpha_family_is_natural_from_forget_to_twisted_forget():
    # the structure maps of the roster objects assemble into a valid
    # closed degree-0 natural transformation forget ⇒ rho_g∘forget
    b = example_e1()
    pipe = DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names,
        representations={}, degrees=(0, 0),
    )
    forget = pipe.forget_full
    for g in pipe.group.elements:
        twisted = compose_functors(pipe._rho_big[g], forget)
        eps = NatTransform(
            forget,
            twisted,
            {name: pipe.eqcat.roster[name].alpha[g] for name in pipe.cat_full.objects},
            name=f"alpha[{g}]",
        )
        report = validate_nat(eps)
        assert report.ok, report.summary()


def test_square_zero_degree_zero_algebra_hh():
    # A = k[x]/x^2 with x in degree 0: HH_0 = A (2-dim), HH_1 = Kahler
    # differentials = A·dx/(2x·dx) (1-dim)
    a = algebra_category(QQ, "pt", [("1", 0), ("x", 0)], {("x", "x"): {}})
    assert validate_dgcat(a).ok
    res = hh_dimensions(a, identity_functor(a), [-1, 0])
    assert res["certification"].exact
    assert res["dims"][0] == 2
    assert res["dims"][-1] == 1


def test_permutation_action_n1_trivial():
    action, power = permutation_action(point_category(), 1)
    assert len(action.group) == 1
    assert validate_action(action).ok


def test_centralizer_action_identity_element():
    b = example_e2()
    win = build_window(b.base, identity_functor(b.base), -1, 1)
    m = centralizer_action_map(
        win, b.action.rho("e"), b.action.centralizer_transform("e", "e")
    )
    assert m.homology_matrix(0) == SparseMatrix.identity(2)


def test_trivial_group_decomposition_degenerates():
    group = FiniteGroup.cyclic(1)
    base = point_category()
    action = trivial_action(group, base)
    decl = DeclaredObject("obj", ("pt",), {"e": {(0, 0, 0, "1"): QQ.one}})
    rep = decompose(action, [decl], ["pt"], hh_names=["obj"], representations={}, degrees=(0, 0))
    assert rep.theorem_holds
    assert rep.lhs_dims[0] == 1
    assert len(rep.class_blocks) == 1
    assert rep.class_blocks[0].summand_dims[0] == 1
    # the single projector is the identity matrix
    assert rep.class_blocks[0].matrices[0]["projector"] == [["1"]]


def test_trivial_group_adjunction_identity():
    group = FiniteGroup.cyclic(1)
    base = point_category()
    action = trivial_action(group, base)
    laction = lift_action(action, [("pt",)])
    decl = DeclaredObject("obj", ("pt",), {"e": {(0, 0, 0, "1"): QQ.one}})
    from equihh.equivariant import EquivariantCategory

    obj = realize_declared(laction, decl)
    sym = symmetrize(laction, ("pt",))
    eq = EquivariantCategory(laction, [obj, sym])
    result = adjunction_maps(eq, ("pt",), "obj")
    assert result["chain_map"] and result["mutually_inverse"]
    assert result["hom_dimension"] == 1
    mor, report = sfor_iso(eq, "obj")
    assert report.ok and mor is not None


def test_scaled_action_symmetrization_theta_blocks():
    # with eta = (1/4)·id the symmetrization blocks are theta inverses,
    # not identities; the object still validates and decomposes
    act = scaled_action()
    la = lift_action(act, [("pt",), ("pt", "pt")])
    s = symmetrize(la, ("pt",))
    # alpha_e block at (e, e) is theta[e,e]^{-1} = 4
    assert s.alpha["e"].coeffs[(0, (0, 0, "1"))] == Fraction(4)
