"""Transport homotopy certificates: the table pass of
``HomotopyCertificate.check`` for insertion homotopies against the
chain-by-chain comparison it falls back to, on every transport the
decomposition pipeline builds and on certificates built to break one
identity family each."""

from fractions import Fraction

import pytest

import equihh.decomposition as decomposition
import equihh.hochschild as hochschild
from equihh.decomposition import DecompositionPipeline, run_checks
from equihh.dgcat import (
    DgFunctor,
    Mor,
    NatTransform,
    algebra_category,
    compose_functors,
    identity_functor,
    nat_inverse,
)
from equihh.errors import StructureError
from equihh.examples import (
    DeclaredObject,
    example_e1,
    example_e2,
    example_e5,
    exterior_category,
    point_category,
)
from equihh.hochschild import (
    HomotopyCertificate,
    InducedMap,
    InsertionHomotopy,
    LinearComboMap,
    build_window,
    conjugate_transport,
)
from equihh.scalars import QQ
from tests_support import (
    collapsing_twist,
    doubled,
    doubled_v,
    graded,
    identity_but_e,
    projecting_cut,
    same,
    scaled_action,
    zero,
)


def bundle_pipeline(builder, degrees):
    b = builder()
    return DecompositionPipeline(
        b.action,
        b.declared,
        b.generators,
        hh_names=b.hh_names or None,
        representations=b.representations,
        degrees=degrees or b.degrees,
    )


def scaled_pipeline(degrees):
    """The two equivariant structures alpha_s = ±2 on the point under the
    scaled action (nontrivial theta and eta)."""
    declared = [
        DeclaredObject(
            name, ("pt",), {"e": {(0, 0, 0, "1"): Fraction(4)}, "s": {(0, 0, 0, "1"): s}}
        )
        for name, s in [("plus2", Fraction(2)), ("minus2", Fraction(-2))]
    ]
    return DecompositionPipeline(
        scaled_action(), declared, ["pt"], hh_names=["plus2", "minus2"], representations={},
        degrees=degrees,
    )


@pytest.fixture
def transports(monkeypatch):
    """Every transport certificate the pipeline builds."""
    certs = []

    def recorded(induced, alpha, alpha_inv, psi):
        transported, cert = conjugate_transport(induced, alpha, alpha_inv, psi)
        certs.append(cert)
        return transported, cert

    monkeypatch.setattr(decomposition, "conjugate_transport", recorded)
    return certs


def only_transports(monkeypatch):
    """Lift the certificate budget and drop the trace and projector-sum
    certificates, so run_checks builds every transport of checks 1 and 4
    on windows the budget skips."""
    monkeypatch.setattr(decomposition, "CERTIFICATE_CHAIN_BUDGET", 10**6)
    monkeypatch.setattr(decomposition, "_check23_certificates", lambda pipe, data: iter(()))
    monkeypatch.setattr(decomposition, "_check5_certificate", lambda pipe, data: iter(()))


@pytest.mark.parametrize(
    "pipeline, lifted, count",
    [
        (lambda: bundle_pipeline(example_e1, None), False, 2),
        (lambda: bundle_pipeline(example_e1, (-2, 0)), False, 2),
        (lambda: bundle_pipeline(example_e2, None), False, 2),
        (lambda: bundle_pipeline(example_e2, (-1, 0)), True, 2),
        (lambda: bundle_pipeline(example_e5, None), True, 10),
        (lambda: scaled_pipeline((-2, 0)), False, 2),
    ],
    ids=["E1", "E1-wide", "E2", "E2-wide", "E5", "scaled"],
)
def test_table_pass_certifies_every_transport(pipeline, lifted, count, transports, monkeypatch):
    if lifted:
        only_transports(monkeypatch)
    rep = run_checks(pipeline())
    assert rep.theorem_holds, rep.witnesses
    assert len(transports) == count
    for cert in transports:
        assert cert.slot_identities_hold(), cert.name
        assert cert.chain_failures() == [], cert.name
        assert cert.check() and cert.failures == []


@pytest.mark.parametrize(
    "builder, degrees, traces",
    [(example_e1, (-2, 0), True), (example_e5, None, False)],
    ids=["E1-wide", "E5"],
)
def test_transports_skip_the_chain_comparison(builder, degrees, traces, monkeypatch):
    """No transport certificate of the run compares chain by chain, nor
    does the projector sum homotopy where it runs (its f = |G|·mu is an
    induced map); the trace certificates, whose H is a sum, still do."""
    checked, compared = [], []
    check, compare = HomotopyCertificate.check, hochschild._differing_chains

    def traced_check(cert):
        checked.append(cert.name)
        return check(cert)

    def traced_compare(*args):
        compared.append(checked[-1] if checked else None)
        return compare(*args)

    monkeypatch.setattr(HomotopyCertificate, "check", traced_check)
    monkeypatch.setattr(hochschild, "_differing_chains", traced_compare)
    rep = run_checks(bundle_pipeline(builder, degrees))
    assert rep.theorem_holds
    assert sum(name.startswith("transport along") for name in checked) == 2
    assert not any(name and name.startswith("transport along") for name in compared)
    assert ("trace decomposition" in compared) == traces
    # E5's windows exceed the certificate budget, which skips check 5
    assert ("projector sum homotopy" in checked) == traces
    assert "projector sum homotopy" not in compared


def test_insertion_homotopies_compute_each_chain_once(monkeypatch):
    """On E1 at -2..0 every certificate runs; an insertion homotopy, summed
    into the trace formula or not, computes each (map, degree, chain) at
    most once across ``check`` and ``solve_homotopy``.  Each map is kept
    alive, so no later map can reuse its id."""
    computed, maps = [], []
    compute = InsertionHomotopy._compute

    def spy(h, k, idx):
        computed.append((id(h), k, idx))
        maps.append(h)
        return compute(h, k, idx)

    monkeypatch.setattr(InsertionHomotopy, "_compute", spy)
    rep = run_checks(bundle_pipeline(example_e1, (-2, 0)))
    assert rep.theorem_holds
    assert computed and len(set(computed)) == len(computed)


# ---------------------------------------------------------------------------
# certificates built to break one identity family each


def triangular_algebra():
    """Upper triangular 2×2 matrices (1, e = e12, p = e11) tensored with
    k[u]/u², |u| = -1, du = 1: noncommutative in degree 0 and with a
    nonzero differential, and every hom lies in degrees <= 0, so every
    window over it is exact."""
    basis = [("1", 0), ("e", 0), ("p", 0), ("u", -1), ("eu", -1), ("pu", -1)]
    products = {
        ("p", "p"): {"p": 1}, ("p", "e"): {"e": 1},
        ("p", "u"): {"pu": 1}, ("u", "p"): {"pu": 1}, ("e", "u"): {"eu": 1}, ("u", "e"): {"eu": 1},
        ("p", "pu"): {"pu": 1}, ("pu", "p"): {"pu": 1}, ("p", "eu"): {"eu": 1}, ("pu", "e"): {"eu": 1},
    }
    differential = {"u": {"1": 1}, "eu": {"e": 1}, "pu": {"p": 1}}
    return algebra_category(QQ, "pt", basis, products, differential=differential)


A = triangular_algebra()


def element(degree=0, **coeffs):
    return Mor("pt", "pt", {(degree, label): Fraction(c) for label, c in coeffs.items()})


def table_functor(images, name):
    """The endofunctor of A given by the images of the basis keys."""
    return DgFunctor(A, A, {"pt": "pt"}, {("pt", "pt"): images}, name=name)


IDENTITY_IMAGES = {key: A.basis_mor("pt", "pt", *key) for key in A.basis_keys("pt", "pt")}


def inner(z, z_inv, name):
    """Conjugation a -> z∘a∘z^-1 by an invertible closed z of degree 0."""
    return table_functor(
        {key: A.compose(A.compose(z, mor), z_inv) for key, mor in IDENTITY_IMAGES.items()}, name
    )


def scaled_images(scales):
    """The identity's images with the keys of ``scales`` multiplied."""
    return {key: mor.scale(scales.get(key[1], 1)) for key, mor in IDENTITY_IMAGES.items()}


X, X_INV = element(**{"1": 1, "e": 1}), element(**{"1": 1, "e": -1})
# conjugation by 1 + 2e: commutes with conjugation by X, so F(X) = X
CONJUGATING = inner(element(**{"1": 1, "e": 2}), element(**{"1": 1, "e": -2}), "F")
# the projection onto span(1, u) along the ideal of e and p
PROJECTING = table_functor(
    {
        key: mor if key[1] in ("1", "u") else Mor("pt", "pt", {})
        for key, mor in IDENTITY_IMAGES.items()
    },
    "F",
)


def transport(tail=None, twist=CONJUGATING, target_twist=None):
    """The transport certificate of (T, 1)_* along X: T ⇒ conj(X)∘T, for T
    = ``tail`` (the identity by default), from the window [-3, 1] of A
    with twist ``twist`` to the one with ``target_twist`` (the same by
    default)."""
    tail = tail or identity_functor(A)
    src = build_window(A, twist, -3, 1)
    tgt = src if target_twist is None else build_window(A, target_twist, -3, 1)
    f = InducedMap(src, tgt, tail, NatTransform(tail, tail, {"pt": A.unit("pt")}, name="1"))
    middle = compose_functors(inner(X, X_INV, "conj X"), tail)
    alpha = NatTransform(tail, middle, {"pt": X}, name="X")
    _, cert = conjugate_transport(f, alpha, nat_inverse(alpha), middle)
    return cert


def with_slots(cert, **slots):
    """``cert`` with some slot maps of its insertion homotopy replaced."""
    h = cert.h
    maps = {name: getattr(h, name) for name in ("first", "middle", "cut", "tail")}
    maps.update(slots)
    return HomotopyCertificate(cert.f, cert.g, InsertionHomotopy(h.src, h.tgt, **maps))


def with_twist(cert, which, scale):
    """``cert`` with the twist of f or g multiplied by ``scale``."""
    induced = getattr(cert, which)
    twist = NatTransform(induced.phi, induced.phi, {"pt": induced.eps.at("pt").scale(scale)})
    maps = {"f": cert.f, "g": cert.g}
    maps[which] = InducedMap(induced.src, induced.tgt, induced.phi, twist)
    return HomotopyCertificate(maps["f"], maps["g"], cert.h)


def mixed_degree_cut():
    return with_slots(transport(), cut=lambda c: X + element(-1, u=1))


def doubled_first():
    cert = transport()
    return with_slots(cert, first=lambda a0, c0: cert.h.first(a0, c0).scale(2))


def normalized_source():
    cert = transport()
    src = build_window(A, CONJUGATING, -3, 1, normalized=True)
    f = InducedMap(src, cert.f.tgt, cert.f.phi, cert.f.eps)
    g = InducedMap(src, cert.g.tgt, cert.g.phi, cert.g.eps)
    h = cert.h
    slots = InsertionHomotopy(src, h.tgt, h.first, h.middle, h.cut, h.tail)
    return HomotopyCertificate(f, g, slots)


def truncated_target():
    """The point into the exterior algebra on a degree-1 generator, whose
    window is truncated at bar degree 2, so the bar-3 chains H writes are
    missing; every slot identity holds."""
    point, ext = point_category(), exterior_category(1)
    incl = DgFunctor(point, ext, {"pt": "pt"}, {("pt", "pt"): {(0, "1"): ext.unit("pt")}}, name="i")
    src = build_window(point, identity_functor(point), -3, 1)
    tgt = build_window(ext, identity_functor(ext), -3, 1, bar_cap=2)
    f = InducedMap(src, tgt, incl, NatTransform(incl, incl, {"pt": ext.unit("pt")}))
    alpha = NatTransform(incl, incl, {"pt": ext.unit("pt").scale(2)}, name="2")
    return conjugate_transport(f, alpha, nat_inverse(alpha), incl)[1]


def collapsing(m_e=1, t_e=1, middle_e=1, tail_e=1):
    """The insertion homotopy of the identity cut between (T, 1)_* and
    (M, 1)_* on the window [-3, 1] of ``collapsing_twist``, with slot maps
    middle and tail.  Each of T, M, middle and tail is the identity but for
    e -> (its scale)·e; e never reaches slot 0, so slot 0 holds whatever
    the scales."""
    cat, twist = collapsing_twist()
    win = build_window(cat, twist, -3, 1)

    def scaling(scale):
        return identity_but_e(cat, cat.basis_mor("x", "x", -1, "e").scale(scale), f"e->{scale}e")

    def induced(fun):
        return InducedMap(win, win, fun, NatTransform(fun, fun, {c: cat.unit("y") for c in "xy"}))

    h = InsertionHomotopy(
        win, win, lambda a0, c0: a0, scaling(middle_e).apply, cat.unit, scaling(tail_e).apply
    )
    return HomotopyCertificate(induced(scaling(t_e)), induced(scaling(m_e)), h)


def test_unbroken_settings_pass_the_table_pass():
    for cert in (
        transport(),
        transport(twist=PROJECTING),
        collapsing(),
        collapsing(2, 2, 2, 2),
        projecting_cut(),
        projecting_cut(first_bottom=same),
    ):
        assert cert.chain_failures() == []
        assert cert.slot_identities_hold()


def outcome(run):
    """(what ``run()`` returns, None), or (None, the type and text of the
    error it raises)."""
    try:
        return run(), None
    except Exception as exc:  # the fallback's error is part of its outcome
        return None, (type(exc), str(exc))


@pytest.mark.parametrize(
    "broken",
    [
        # the cut's endpoints, degree and closedness (a degree-0 cut is
        # closed on exact windows: they hold no degree-1 morphism)
        lambda: with_slots(transport(), cut=lambda c: Mor("elsewhere", "pt", X.coeffs)),
        mixed_degree_cut,
        # naturality, K_x∘tail(a) = middle(a)∘K_y (breaks ε_f and ε_g too)
        lambda: with_slots(transport(), cut=lambda c: element(**{"1": 1, "e": 2})),
        # ε_f and ε_g at slot 0
        doubled_first,
        lambda: with_twist(transport(), "f", 2),
        lambda: with_twist(transport(), "g", 2),
        # multiplicativity: T doubles p and pu, so T(p∘p) != T(p)∘T(p)
        lambda: transport(table_functor(scaled_images({"p": 2, "pu": 2}), "T"), twist=PROJECTING),
        # the cyclic pair: T does not commute with the twist, or the
        # target's twist differs from the source's off the cut
        lambda: transport(
            inner(element(**{"1": 1, "p": 1}), element(**{"1": 1, "p": "-1/2"}), "T")
        ),
        lambda: transport(target_twist=identity_functor(A)),
        # d-compatibility: T doubles the degree -1 keys, so T(du) != dT(u)
        lambda: transport(table_functor(scaled_images({"u": 2, "eu": 2, "pu": 2}), "T")),
        normalized_source,
        truncated_target,
        # on a key no slot 0 holds, so every slot-0 identity holds: middle
        # or tail is not M or T, or K is not natural from tail to middle
        lambda: collapsing(m_e=2),
        lambda: collapsing(t_e=2),
        lambda: collapsing(m_e=2, middle_e=2),
        # behind a cut that is not invertible: d middle(a) != middle(d a)
        # alone, d tail(a) != tail(d a) alone, middle not multiplicative,
        # first(a0 a1) != first(a0)∘middle(a1), d first(v) != first(d v)
        lambda: projecting_cut(m_bottom=graded),
        lambda: projecting_cut(t_bottom=graded),
        lambda: projecting_cut(m_bottom=doubled),
        lambda: projecting_cut(m_bottom=zero, first_bottom=same),
        lambda: projecting_cut(first_bottom=doubled_v),
    ],
    ids=[
        "cut-endpoints",
        "cut-degree",
        "naturality",
        "first-doubled",
        "eps-f",
        "eps-g",
        "multiplicativity",
        "cyclic-tail",
        "cyclic-target-twist",
        "differential",
        "normalized-source",
        "truncated-target",
        "middle-not-M",
        "tail-not-T",
        "naturality-off-slot-0",
        "projected-d-middle",
        "projected-d-tail",
        "projected-multiplicativity",
        "projected-first-multiplicativity",
        "projected-d-first",
    ],
)
def test_broken_certificate_fails_table_pass_and_falls_back(broken):
    """The table pass fails, and check() ends exactly as the chain-by-chain
    comparison alone: with its failures, or with its error."""
    cert = broken()
    assert not cert.slot_identities_hold()
    alone = outcome(cert.chain_failures)
    assert alone != ([], None), "the broken H is still a homotopy"
    assert outcome(lambda: (cert.check(), cert.failures)) == outcome(
        lambda: (False, cert.chain_failures())
    )


def test_certificate_of_a_map_that_is_not_induced_takes_the_chain_comparison():
    """f as a linear combination of induced maps (as check 5's |G|·mu once
    was) has no slot tables: the table pass declines, and the chain
    comparison certifies the homotopy."""
    cert = transport()
    combo = LinearComboMap(cert.f.src, cert.f.tgt, [(QQ.one, cert.f)])
    cert = HomotopyCertificate(combo, cert.g, cert.h)
    assert not cert.slot_identities_hold()
    assert cert.check() and cert.failures == []


def test_mixed_degree_slot_value_is_a_structure_error():
    """[cut-degree]'s cut of mixed degree (X + u) writes terms of degree k - 2 into H's
    degree-(k - 1) vector; the chain loop reports the term and the degree
    it was written into instead of indexing another degree's chains."""
    cert = mixed_degree_cut()
    with pytest.raises(StructureError, match=r"has degree -?\d+, not -?\d+"):
        cert.chain_failures()


def test_package_error_in_table_pass_falls_back(monkeypatch):
    def raising(*_args):
        raise StructureError("functor has no action on a key no chain uses")

    monkeypatch.setattr(hochschild, "_insertion_identities_hold", raising)
    cert = transport()
    assert not cert.slot_identities_hold()
    assert cert.check() and cert.failures == []
