"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance is identically zero).  Each test prints a single summary line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import hashlib
import json
import time

import pytest

from equihh.decomposition import (
    DecompositionPipeline,
    decompose,
    graded_sym_power,
    sym_power_summand,
)
from equihh.dgcat import identity_functor, tensor_category, validate_dgcat
from equihh.documents import canonical_json, parse_document, serialize_bundle
from equihh.equivariant import adjunction_maps, sfor_iso, symmetrize_tuple
from equihh.examples import (
    ExampleBundle,
    example_e1,
    example_e2,
    example_e3,
    example_e4,
    example_e5,
    get_example,
    group_algebra_z2_category,
    leibniz_sabotage_pair,
    negative_degree_exterior_category,
    point_category,
)
from equihh.groups import permutation_action
from equihh.hochschild import (
    InducedMap,
    build_window,
    compose_induced,
    shuffle_map,
)
from equihh.linalg import rank_kernel_image

RESULTS = {}


def record(criterion, ok, detail):
    RESULTS[criterion] = ok
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def reports():
    out = {}
    for builder in (example_e1, example_e2, example_e5):
        b = builder()
        out[b.name] = (
            b,
            decompose(
                b.action,
                b.declared,
                b.generators,
                hh_names=b.hh_names or None,
                representations=b.representations,
                degrees=b.degrees,
                certificates=True,
            ),
        )
    return out


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for builder in (example_e1, example_e2, example_e5):
        b = builder()
        out[b.name] = (
            b,
            DecompositionPipeline(
                b.action,
                b.declared,
                b.generators,
                hh_names=b.hh_names or None,
                representations=b.representations,
                degrees=b.degrees,
            ),
        )
    return out


def test_criterion_1_sign_conventions():
    start = time.time()
    total = 0
    bad = []
    jobs = [
        (example_e3().base, (-12, 0), None),
        (example_e4().base, (-6, 1), 8),
        (example_e1().base, (-4, 0), None),
        (example_e2().base, (-4, 0), None),
        (example_e5().base, (-4, 0), None),
        (negative_degree_exterior_category(), (-6, 0), None),
    ]
    for cat, rng, cap in jobs:
        win = build_window(cat, identity_functor(cat), rng[0], rng[1], bar_cap=cap)
        count, violations = win.verify_d_squared()
        total += count
        bad += violations
        bad += win.verify_sign_identities()
    # twisted windows for every group element of E2
    b2 = example_e2()
    for g in b2.group.elements:
        win = build_window(b2.base, b2.action.rho(g), -4, 0)
        count, violations = win.verify_d_squared()
        total += count
        bad += violations
    elapsed = time.time() - start
    record(
        1,
        not bad and total >= 10_000 and elapsed < 30,
        f"d^2 = 0 on {total} chains across the bundled examples in {elapsed:.1f}s",
    )


def test_criterion_2_chain_level_functoriality(pipelines):
    mismatch_total = 0
    pairs = 0
    for name, (b, pipe) in pipelines.items():
        for g in pipe.classes.representatives:
            proj = pipe.projection(g)
            _, _, mm = compose_induced(proj, pipe.mu)
            mismatch_total += len(mm)
            pairs += 1
            inc = pipe.inclusion(g)
            _, _, mm = compose_induced(proj, inc)
            mismatch_total += len(mm)
            pairs += 1
            for h in pipe.classes.centralizers[g]:
                m_small = pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h, g)
                for h2 in pipe.classes.centralizers[g]:
                    m2 = pipe.centralizer_map(pipe.w_small[g], pipe._rho_small, h2, g)
                    _, _, mm = compose_induced(m_small, m2)
                    mismatch_total += len(mm)
                    pairs += 1
    record(
        2,
        mismatch_total == 0 and pairs > 10,
        f"composite = star-twisted induced map entry-exactly on {pairs} bundled pairs",
    )


def test_criterion_3_homotopy_certificates(reports):
    kinds = [
        "projection invariance",  # the conjugation-transport homotopy
        "trace decomposition",  # the reconstructed direct-sum homotopies
        "cross-class",
        "projector sum homotopy",  # the unit-component insertion homotopy
    ]
    ok = True
    lines = []
    for name in ("E1", "E2"):
        _, rep = reports[name]
        for kind in kinds:
            matching = [c for c in rep.certificates if kind in c[0]]
            if not matching or not all(passed for _, _, passed in matching):
                ok = False
            lines.append(f"{name}:{kind}x{len(matching)}")
    record(3, ok, f"dH + Hd certificates hold entry-exactly ({', '.join(lines)})")


def test_criterion_4_kunneth():
    cases = {
        "(pt, pt)": (point_category(), point_category(), 1),
        "(E3, E3)": (group_algebra_z2_category(), group_algebra_z2_category(), 4),
        "(E2 base, E3)": (example_e2().base, group_algebra_z2_category(), 4),
    }
    ok = True
    details = []
    for label, (ca, cb, expected) in cases.items():
        wa = build_window(ca, identity_functor(ca), -2, 1)
        wb = build_window(cb, identity_functor(cb), -2, 1)
        assert wa.certification.exact and wb.certification.exact
        tw, tgt, sh = shuffle_map(wa, wb, tensor_category(ca, cb), -2, 1)
        _, failures = sh.verify_chain_map()
        bij = True
        for k in (-1, 0):
            m = sh.homology_matrix(k)
            rank, _, _ = rank_kernel_image(m)
            bij = bij and rank == m.nrows == m.ncols
        m0 = sh.homology_matrix(0)
        ok = ok and not failures and bij and m0.ncols == expected
        details.append(f"{label}: {m0.ncols}")
    # S2-equivariance on E3 ⊗ E3
    kz2 = group_algebra_z2_category()
    w = build_window(kz2, identity_functor(kz2), -2, 1)
    action, power = permutation_action(kz2, 2)
    from equihh.hochschild import ShuffleMap, TensorWindow, koszul_swap_map

    tw = TensorWindow(w, w, -2, 1)
    tgt = build_window(power, identity_functor(power), -2, 1)
    sh = ShuffleMap(tw, tgt)
    swap = koszul_swap_map(tw, tw)
    tau = InducedMap(
        tgt, tgt, action.rho("21"),
        action.centralizer_transform("21", action.group.identity),
    )
    equivariant = all(
        tau.homology_matrix(k) * sh.homology_matrix(k)
        == sh.homology_matrix(k) * swap.homology_matrix(k)
        for k in (-1, 0)
    )
    ok = ok and equivariant
    record(4, ok, f"shuffle bijections {details}; swap-equivariance on homology")


def test_criterion_5_adjunction(pipelines):
    ok = True
    count = 0
    for name, (b, pipe) in pipelines.items():
        for c in pipe.small_objs:
            for oname in pipe.eqcat.order:
                result = adjunction_maps(pipe.eqcat, c, oname)
                count += 1
                if not (result["chain_map"] and result["mutually_inverse"]):
                    ok = False
    record(
        5,
        ok and count >= 12,
        f"both adjunction correspondences mutually inverse on {count} (object, entry) pairs",
    )


def test_criterion_6_symmetrize_forget(pipelines):
    ok = True
    iso_count = 0
    for name, (b, pipe) in pipelines.items():
        for c in pipe.small_objs:
            expected = ()
            for h in pipe.group.elements:
                expected = expected + pipe.laction.rho(h).apply_obj(tuple(c))
            sname = pipe.sym_of[tuple(c)]
            if pipe.eqcat.roster[sname].underlying != expected:
                ok = False
        for oname in pipe.hh_names:
            mor, report = sfor_iso(pipe.eqcat, oname)
            iso_count += 1
            if mor is None or not report.ok:
                ok = False
    record(
        6,
        ok and iso_count >= 6,
        f"comparison iso certified at {iso_count} roster objects;"
        " forget∘symmetrize equals the sum of translates on the nose",
    )


def test_criterion_7_main_theorem(reports, tmp_path):
    from equihh.cli import main

    expected = {
        "E1": (2, {"e": 1, "s": 1}),
        "E2": (1, {"e": 1, "s": 0}),
        "E5": (3, {"123": 1, "132": 1, "231": 1}),
    }
    five_checks = [
        "projection_invariance",
        "projection_inclusion_trace",
        "cross_class_vanishing",
        "representative_independence",
        "projector_sum_identity",
    ]
    ok = True
    details = []
    for name, (lhs, sums) in expected.items():
        _, rep = reports[name]
        got_sums = {b.representative: b.summand_dims[0] for b in rep.class_blocks}
        good = (
            rep.theorem_holds
            and rep.lhs_dims[0] == lhs
            and got_sums == sums
            and all(rep.checks[c] for c in five_checks)
            and rep.checks["projectors_orthogonal_idempotent"]
            and rep.runtime < 60
        )
        # and through the command-line surface
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(serialize_bundle(get_example(name))))
        start = time.time()
        good = good and main(["decompose", str(path), "--no-certificates"]) == 0
        good = good and (time.time() - start) < 60
        ok = ok and good
        details.append(
            f"{name}: {rep.lhs_dims[0]} = {'+'.join(str(v) for v in got_sums.values())}"
            f" in {rep.runtime:.1f}s (cli exit 0)"
        )
    record(7, ok, "; ".join(details))


# sha256 of each report's canonical JSON without ``runtime_seconds``: any
# change to a matrix entry, check, certificate or witness order shows here.
REPORT_DIGESTS = {
    "E1": "4948ac183f0b7e5d213b4393c68d52fd09def9998b04910ad6111e7a20cc4353",
    "E2": "af6a394eaea95987281153c513e3e31f0ae7c5d560e99e4c6723b9393fbe8655",
    "E5": "c54e854485148ff0fc2f84802860bdef3620115e9bae93b0df715b14e0eb7e2b",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digests(reports, name):
    payload = reports[name][1].to_dict()
    del payload["runtime_seconds"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == REPORT_DIGESTS[name]


def test_criterion_8_representation_action(reports):
    _, rep1 = reports["E1"]
    _, rep5 = reports["E5"]
    sign_ok, sign_chi = rep1.rep_checks["sign"]
    reg_ok, reg_chi = rep1.rep_checks["regular"]
    reg5_ok, reg5_chi = rep5.rep_checks["regular"]
    e5_identity = rep5.class_blocks[0].representative
    ok = (
        sign_ok
        and sign_chi == {"e": 1, "s": -1}
        and reg_ok
        and reg_chi == {"e": 2, "s": 0}
        and reg5_ok
        and reg5_chi["123"] == 6
        and all(reg5_chi[r] == 0 for r in reg5_chi if r != "123")
    )
    record(
        8,
        ok,
        "sign acts by (+1, -1) and regular by (2, 0) on E1; regular by (6, 0, 0) on E5,"
        " as exact matrix identities on the class projectors",
    )


def test_criterion_9_symmetric_powers():
    sym = sym_power_summand(group_algebra_z2_category(), 2, degrees=(0, 0))
    even_ok = sym["match"] and sym["sym_dims"][0] == 3 and sym["invariant_dims"][0] == 3
    # odd classes: the graded-symmetric square is the exterior square
    odd_table = graded_sym_power({1: 2}, 2)
    odd_ok = odd_table == {2: 1}
    odd_cat = sym_power_summand(negative_degree_exterior_category(), 2, degrees=(-2, 0))
    record(
        9,
        even_ok and odd_ok and odd_cat["match"],
        f"Sym^2 HH_0(E3) has dimension 3 = identity-class invariants;"
        f" odd square collapses to the exterior square {odd_table}",
    )


def test_criterion_10_negative_controls(tmp_path):
    from equihh.cli import main

    # broken theta
    doc = serialize_bundle(get_example("E1"))
    doc.setdefault("action", {}).setdefault("theta", []).append(
        {"g": "e", "g2": "s", "components": {"pt": {"1": "2"}}}
    )
    p = tmp_path / "badtheta.json"
    p.write_text(canonical_json(doc))
    theta_rejected = main(["validate", str(p)]) == 1

    # broken alpha
    doc = serialize_bundle(get_example("E1"))
    doc["roster"][1]["alpha"]["s"][0][0]["1"] = "2"
    p = tmp_path / "badalpha.json"
    p.write_text(canonical_json(doc))
    alpha_rejected = main(["validate", str(p)]) == 1
    alpha_decompose_rejected = main(["decompose", str(p)]) == 1

    # wrong Koszul sign in a tensor-style composition table
    good, bad = leibniz_sabotage_pair()
    bad_doc = serialize_bundle(ExampleBundle(name="koszul", description="", base=bad))
    p = tmp_path / "koszul.json"
    p.write_text(canonical_json(bad_doc))
    koszul_rejected = main(["validate", str(p)]) == 1

    # exterior example: truncation flag and exit 3 without override
    e4 = tmp_path / "e4.json"
    e4.write_text(canonical_json(serialize_bundle(get_example("E4"))))
    truncated_blocked = main(["hh", str(e4), "--degrees=-2..0", "--bar-cap", "6"]) == 3
    truncated_allowed = (
        main(["hh", str(e4), "--degrees=-2..0", "--bar-cap", "6", "--allow-truncated"]) == 0
    )
    ok = (
        theta_rejected
        and alpha_rejected
        and alpha_decompose_rejected
        and koszul_rejected
        and truncated_blocked
        and truncated_allowed
    )
    record(
        10,
        ok,
        "sabotaged theta/alpha/Koszul documents rejected with witnesses;"
        " truncated window exits 3 without the override",
    )
