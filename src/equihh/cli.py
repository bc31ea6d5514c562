"""Batch command-line interface.

Subcommands: validate, hh, decompose, kunneth, examples.  Documents are
JSON (schema "equihh-schema-1") read from a file or stdin.  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 input error,
3 uncertified truncation without --allow-truncated.
"""

from __future__ import annotations

import argparse
import sys

from .decomposition import decompose
from .dgcat import identity_functor, tensor_category, validate_dgcat
from .documents import canonical_json, parse_document, serialize_bundle
from .equivariant import lift_action, realize_declared, validate_equivariant
from .errors import EquihhError, InputError, TruncationError
from .examples import BUILDERS, get_example
from .groups import validate_action
from .hochschild import build_window, hh_dimensions, shuffle_map
from .linalg import rank_kernel_image

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_TRUNCATED = 3


def _parse_degrees(text, default=(0, 0)):
    if text is None:
        return default
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return (int(lo), int(hi))
        value = int(text)
        return (value, value)
    except ValueError as exc:
        raise InputError(f"bad degree range {text!r}", "--degrees") from exc


def _load_document(args):
    if args.document == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.document, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc), args.document) from exc
    return parse_document(text)


def _emit(payload, args, text_renderer=None):
    if args.output == "json":
        print(canonical_json(payload) if isinstance(payload, (dict, list)) else payload)
    else:
        if text_renderer is not None:
            print(text_renderer())
        elif isinstance(payload, (dict, list)):
            print(canonical_json(payload))
        else:
            print(payload)


def cmd_validate(args):
    bundle = _load_document(args)
    sections = {}
    ok = True
    report = validate_dgcat(bundle.base)
    sections["category"] = _report_dict(report)
    ok = ok and report.ok
    if bundle.action is not None:
        areport = validate_action(bundle.action)
        sections["action"] = _report_dict(areport)
        ok = ok and areport.ok
        if bundle.declared:
            tuples = [tuple(d.underlying) for d in bundle.declared]
            laction = lift_action(bundle.action, tuples)
            roster_sections = {}
            for d in bundle.declared:
                try:
                    obj = realize_declared(laction, d)
                    r = validate_equivariant(laction, obj)
                except EquihhError as exc:
                    roster_sections[d.name] = {"ok": False, "violations": [str(exc)]}
                    ok = False
                    continue
                roster_sections[d.name] = _report_dict(r)
                ok = ok and r.ok
            sections["roster"] = roster_sections
    payload = {"document": bundle.name, "valid": ok, "sections": sections}
    _emit(payload, args, text_renderer=lambda: _validate_text(payload))
    return EXIT_OK if ok else EXIT_MATH


def _report_dict(report):
    return {
        "ok": report.ok,
        "violations": [f"[{v.rule}] {v.witness}" for v in report.violations],
    }


def _validate_text(payload):
    lines = [f"document {payload['document']}: {'valid' if payload['valid'] else 'INVALID'}"]
    for name, section in payload["sections"].items():
        if name == "roster":
            for rname, r in section.items():
                lines.append(f"  roster {rname}: {'ok' if r['ok'] else 'INVALID'}")
                lines.extend(f"    {v}" for v in r["violations"])
        else:
            lines.append(f"  {name}: {'ok' if section['ok'] else 'INVALID'}")
            lines.extend(f"    {v}" for v in section["violations"])
    return "\n".join(lines)


def cmd_hh(args):
    bundle = _load_document(args)
    degrees = _parse_degrees(args.degrees, default=bundle.degrees)
    functor_name = args.functor
    cat = bundle.base
    if functor_name in (None, "id"):
        fun = identity_functor(cat)
    else:
        if bundle.action is None or functor_name not in bundle.action.functors:
            raise InputError(f"unknown endofunctor {functor_name!r}", "--functor")
        fun = bundle.action.rho(functor_name)
    bar_cap = args.bar_cap if args.bar_cap is not None else bundle.bar_cap
    try:
        res = hh_dimensions(cat, fun, list(range(degrees[0], degrees[1] + 1)), bar_cap=bar_cap)
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    cert = res["certification"]
    if not cert.exact and not args.allow_truncated:
        print(
            f"window is {cert.describe()}; rerun with --allow-truncated to accept",
            file=sys.stderr,
        )
        return EXIT_TRUNCATED
    payload = {
        "document": bundle.name,
        "functor": functor_name or "id",
        "certification": cert.describe(),
        "dims": {str(k): res["dims"][k] for k in sorted(res["dims"])},
        "homological_index": {f"HH_{-k}": res["dims"][k] for k in sorted(res["dims"])},
    }

    def text():
        lines = [
            f"{bundle.name}: HH with respect to {payload['functor']} [{payload['certification']}]"
        ]
        for k in sorted(res["dims"]):
            lines.append(f"  degree {k} (HH_{-k}): dim {res['dims'][k]}")
        return "\n".join(lines)

    _emit(payload, args, text)
    return EXIT_OK


def cmd_decompose(args):
    bundle = _load_document(args)
    if bundle.action is None:
        raise InputError("document has no group action", "action")
    degrees = _parse_degrees(args.degrees, default=bundle.degrees)
    report = decompose(
        bundle.action,
        bundle.declared,
        bundle.generators,
        hh_names=bundle.hh_names or None,
        representations=bundle.representations,
        degrees=degrees,
        bar_cap=args.bar_cap if args.bar_cap is not None else bundle.bar_cap,
        certificates=not args.no_certificates,
    )
    if not report.certification.startswith("Exact") and not args.allow_truncated:
        print(
            f"window is {report.certification}; rerun with --allow-truncated to accept",
            file=sys.stderr,
        )
        return EXIT_TRUNCATED
    _emit(report.to_dict(), args, report.to_text)
    return EXIT_OK if report.theorem_holds else EXIT_MATH


def cmd_kunneth(args):
    bundle = _load_document(args)
    degrees = _parse_degrees(args.degrees, default=bundle.degrees)
    lo, hi = degrees[0] - 1, degrees[1] + 1
    cat = bundle.base
    bar_cap = args.bar_cap if args.bar_cap is not None else bundle.bar_cap
    try:
        win = build_window(cat, identity_functor(cat), lo, hi, bar_cap=bar_cap)
        square = tensor_category(cat, cat)
        tw, tgt, sh = shuffle_map(
            win, win, square, lo, hi, bar_cap=None if bar_cap is None else 2 * bar_cap
        )
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    if not win.certification.exact and not args.allow_truncated:
        print(
            f"window is {win.certification.describe()}; rerun with --allow-truncated",
            file=sys.stderr,
        )
        return EXIT_TRUNCATED
    checked, failures = sh.verify_chain_map()
    rows = {}
    bijective = True
    for k in range(degrees[0], degrees[1] + 1):
        m = sh.homology_matrix(k)
        rank, kernel, _ = rank_kernel_image(m)
        is_bij = rank == m.nrows == m.ncols
        bijective = bijective and is_bij
        rows[str(k)] = {
            "tensor_dim": m.ncols,
            "square_dim": m.nrows,
            "rank": rank,
            "bijective": is_bij,
        }
    ok = bijective and not failures
    payload = {
        "document": bundle.name,
        "certification": win.certification.describe(),
        "chain_map_checked": checked,
        "chain_map_ok": not failures,
        "degrees": rows,
        "kunneth_isomorphism": bijective,
    }

    def text():
        lines = [
            f"{bundle.name}: shuffle map [{payload['certification']}],"
            f" chain map {'ok' if not failures else 'FAIL'} ({checked} chains)"
        ]
        for k, row in rows.items():
            lines.append(
                f"  degree {k}: {row['tensor_dim']} -> {row['square_dim']}"
                f" rank {row['rank']} {'bijective' if row['bijective'] else 'NOT bijective'}"
            )
        return "\n".join(lines)

    _emit(payload, args, text)
    return EXIT_OK if ok else EXIT_MATH


def cmd_examples(args):
    if args.name is None:
        payload = {name: BUILDERS[name]().description for name in sorted(BUILDERS)}
        _emit(payload, args)
        return EXIT_OK
    bundle = get_example(args.name)
    print(canonical_json(serialize_bundle(bundle)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equihh",
        description="Exact Hochschild homology of dg categories with finite group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_doc=True):
        if with_doc:
            p.add_argument("document", help="input document path, or - for stdin")
        p.add_argument("--degrees", help="degree range LO..HI (cohomological)")
        p.add_argument("--bar-cap", type=int, default=None)
        p.add_argument("--allow-truncated", action="store_true")
        p.add_argument("--output", choices=["json", "text"], default="text")

    p = sub.add_parser("validate", help="run all structural validators")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hh", help="Hochschild homology dimension table")
    add_common(p)
    p.add_argument("--functor", default="id", help="id or a group element name")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("decompose", help="verify the equivariant decomposition")
    add_common(p)
    p.add_argument("--no-certificates", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("kunneth", help="verify the shuffle quasi-isomorphism")
    add_common(p)
    p.set_defaults(func=cmd_kunneth)

    p = sub.add_parser("examples", help="emit a bundled example document")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--output", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TruncationError as exc:
        print(f"truncation: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except EquihhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
