"""JSON document format (schema "equihh-schema-1").

A document carries a base category, optionally a group with its action,
declared equivariant objects, generator objects, representations and
command parameters.  Scalars are strings ("p/q", or "cycM:c0,c1,...").
Basis labels must be strings, unique within each hom complex.  Every parse
error carries a location path.
"""

from __future__ import annotations

import json

from .dgcat import DgCategory, DgFunctor, NatTransform, identity_functor
from .errors import InputError
from .examples import DeclaredObject, ExampleBundle
from .groups import FiniteGroup, GroupAction, Representation
from .linalg import GradedSpace
from .scalars import field_spec, format_scalar, parse_field, parse_scalar

SCHEMA = "equihh-schema-1"


def _coeffs(entry, field, degrees_of, location):
    out = {}
    for label, value in entry.items():
        if label not in degrees_of:
            raise InputError(f"unknown basis label {label!r}", location)
        out[(degrees_of[label], label)] = parse_scalar(value, field)
    return out


def parse_document(doc) -> ExampleBundle:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}", "document") from exc
    if not isinstance(doc, dict):
        raise InputError("document is not a JSON object", "document")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"unknown schema {doc.get('schema')!r}", "schema")
    field = parse_field(doc.get("field", "q"))

    cat_doc = doc.get("category")
    if not isinstance(cat_doc, dict):
        raise InputError("missing category block", "category")
    objects = list(cat_doc.get("objects", []))
    if not objects:
        raise InputError("category has no objects", "category.objects")
    homs = {}
    diff = {}
    comp = {}
    units = {}
    label_degrees = {}
    for i, hom in enumerate(cat_doc.get("homs", [])):
        loc = f"category.homs[{i}]"
        src, tgt = hom.get("source"), hom.get("target")
        if src not in objects or tgt not in objects:
            raise InputError(f"hom between unknown objects {src!r}, {tgt!r}", loc)
        basis = {}
        degrees_of = {}
        for b in hom.get("basis", []):
            label, degree = b.get("label"), int(b.get("degree", 0))
            if label in degrees_of:
                raise InputError(f"duplicate label {label!r}", loc)
            degrees_of[label] = degree
            basis.setdefault(degree, []).append(label)
        homs[(src, tgt)] = GradedSpace(basis)
        label_degrees[(src, tgt)] = degrees_of
        dtable = {}
        for j, d in enumerate(hom.get("differential", [])):
            dloc = f"{loc}.differential[{j}]"
            from_label = d.get("from")
            if from_label not in degrees_of:
                raise InputError(f"unknown label {from_label!r}", dloc)
            img = _coeffs(d.get("image", {}), field, degrees_of, dloc)
            dtable[(degrees_of[from_label], from_label)] = img
        if dtable:
            diff[(src, tgt)] = dtable
    for i, c in enumerate(cat_doc.get("compositions", [])):
        loc = f"category.compositions[{i}]"
        x, y, z = c.get("source"), c.get("middle"), c.get("target")
        for o in (x, y, z):
            if o not in objects:
                raise InputError(f"unknown object {o!r}", loc)
        gl = c.get("first")
        fl = c.get("then")
        dg = label_degrees.get((x, y), {})
        df = label_degrees.get((y, z), {})
        if gl not in dg or fl not in df:
            raise InputError(f"unknown composition labels {gl!r}, {fl!r}", loc)
        result = _coeffs(c.get("result", {}), field, label_degrees.get((x, z), {}), loc)
        comp.setdefault((x, y, z), {})[((dg[gl], gl), (df[fl], fl))] = result
    for x, entry in (cat_doc.get("units") or {}).items():
        if x not in objects:
            raise InputError(f"unit for unknown object {x!r}", "category.units")
        units[x] = _coeffs(entry, field, label_degrees.get((x, x), {}), "category.units")
    missing = [x for x in objects if x not in units]
    if missing:
        raise InputError(f"objects without units: {missing}", "category.units")
    # synthesize unit compositions when the unit is a single basis element
    def single_unit(x):
        u = units[x]
        if len(u) == 1:
            (key, c), = u.items()
            if c == field.one:
                return key
        return None

    for x, y in list(homs):
        for label, degree in label_degrees[(x, y)].items():
            key = (degree, label)
            ux = single_unit(x)
            if ux is not None:
                comp.setdefault((x, x, y), {}).setdefault((ux, key), {key: field.one})
            uy = single_unit(y)
            if uy is not None:
                comp.setdefault((x, y, y), {}).setdefault((key, uy), {key: field.one})
    category = DgCategory(field, objects, homs, diff, comp, units)

    group = None
    action = None
    if "group" in doc:
        gdoc = doc["group"]
        elements = list(gdoc.get("elements", []))
        table = {}
        raw = gdoc.get("table", {})
        for a in elements:
            row = raw.get(a)
            if row is None:
                raise InputError(f"multiplication row missing for {a!r}", "group.table")
            for b in elements:
                if b not in row:
                    raise InputError(f"entry ({a},{b}) missing", "group.table")
                table[(a, b)] = row[b]
        group = FiniteGroup(elements, table, name=gdoc.get("name", "G"))
    if "action" in doc:
        if group is None:
            raise InputError("action without group", "action")
        adoc = doc["action"]
        functors = {}
        for g in group.elements:
            fdoc = (adoc.get("functors") or {}).get(g)
            loc = f"action.functors[{g}]"
            if fdoc is None or fdoc.get("identity"):
                functors[g] = identity_functor(category, name=f"rho[{g}]")
                continue
            obj_map = dict(fdoc.get("objects", {}))
            for x in objects:
                if obj_map.get(x) not in objects:
                    raise InputError(f"object map misses {x!r}", loc)
            mor_map = {pair: {} for pair in homs}
            for j, m in enumerate(fdoc.get("morphisms", [])):
                mloc = f"{loc}.morphisms[{j}]"
                src, tgt, from_label = m.get("source"), m.get("target"), m.get("from")
                dg = label_degrees.get((src, tgt), {})
                if from_label not in dg:
                    raise InputError(f"unknown label {from_label!r}", mloc)
                isrc, itgt = obj_map[src], obj_map[tgt]
                img = _coeffs(m.get("image", {}), field, label_degrees.get((isrc, itgt), {}), mloc)
                mor_map.setdefault((src, tgt), {})[(dg[from_label], from_label)] = category.mor(
                    isrc, itgt, img
                )
            functors[g] = DgFunctor(category, category, obj_map, mor_map, name=f"rho[{g}]")
        theta = {}
        theta_doc = {(t.get("g"), t.get("g2")): t for t in adoc.get("theta", [])}
        from .dgcat import compose_functors

        for g in group.elements:
            for g2 in group.elements:
                comp_fun = compose_functors(functors[g], functors[g2])
                target = functors[group.mul(g2, g)]
                entry = theta_doc.get((g, g2))
                if entry is None:
                    comps = {x: category.unit(comp_fun.apply_obj(x)) for x in objects}
                else:
                    comps = {}
                    for x in objects:
                        raw_comp = (entry.get("components") or {}).get(x)
                        if raw_comp is None:
                            raise InputError(
                                f"theta[{g},{g2}] missing a component at {x!r}", "action.theta"
                            )
                        sobj = comp_fun.apply_obj(x)
                        tobj = target.apply_obj(x)
                        comps[x] = category.mor(
                            sobj,
                            tobj,
                            _coeffs(raw_comp, field, label_degrees.get((sobj, tobj), {}), "action.theta"),
                        )
                theta[(g, g2)] = NatTransform(comp_fun, target, comps, name=f"theta[{g},{g2}]")
        eta_doc = adoc.get("eta")
        rho_e = functors[group.identity]
        if eta_doc is None:
            eta_comps = {x: category.unit(rho_e.apply_obj(x)) for x in objects}
        else:
            eta_comps = {}
            for x in objects:
                raw_comp = (eta_doc.get("components") or {}).get(x)
                if raw_comp is None:
                    raise InputError(f"eta missing a component at {x!r}", "action.eta")
                sobj = rho_e.apply_obj(x)
                eta_comps[x] = category.mor(
                    sobj, x, _coeffs(raw_comp, field, label_degrees.get((sobj, x), {}), "action.eta")
                )
        eta = NatTransform(rho_e, identity_functor(category), eta_comps, name="eta")
        action = GroupAction(group, category, functors, theta, eta, name=doc.get("name", "action"))

    declared = []
    for i, r in enumerate(doc.get("roster", [])):
        loc = f"roster[{i}]"
        name = r.get("name")
        underlying = tuple(r.get("objects", []))
        if not name:
            raise InputError("roster entry without a name", loc)
        for x in underlying:
            if x not in objects:
                raise InputError(f"unknown component {x!r}", loc)
        if group is None:
            raise InputError("roster requires a group action", loc)
        alpha_entries = {}
        for g in group.elements:
            rows = (r.get("alpha") or {}).get(g)
            if rows is None:
                raise InputError(f"alpha missing for {g!r}", loc)
            entries = {}
            image = tuple(action.rho(g).apply_obj(x) for x in underlying)
            for ri, row in enumerate(rows):
                for ci, cell in enumerate(row):
                    if not cell:
                        continue
                    pair = (underlying[ci], image[ri])
                    degrees_of = label_degrees.get(pair, {})
                    for label, value in cell.items():
                        if label not in degrees_of:
                            raise InputError(
                                f"unknown label {label!r} in alpha[{g}]({ri},{ci})", loc
                            )
                        entries[(ri, ci, degrees_of[label], label)] = parse_scalar(value, field)
            alpha_entries[g] = entries
        declared.append(DeclaredObject(name, underlying, alpha_entries))

    representations = {}
    for name, r in (doc.get("representations") or {}).items():
        if group is None:
            raise InputError("representations require a group", f"representations[{name}]")
        dim = int(r.get("dim", 0))
        mats = {}
        for g in group.elements:
            rows = (r.get("matrices") or {}).get(g)
            if rows is None:
                raise InputError(f"matrix missing for {g!r}", f"representations[{name}]")
            mats[g] = [[parse_scalar(v, field) for v in row] for row in rows]
        representations[name] = Representation(group, dim, mats, name=name, field=field)

    params = doc.get("params", {})
    degrees = tuple(params.get("degrees", (0, 0)))
    return ExampleBundle(
        name=doc.get("name", "document"),
        description=doc.get("description", ""),
        base=category,
        group=group,
        action=action,
        declared=declared,
        generators=list(doc.get("generators", [])),
        hh_names=list(doc.get("covering", [])),
        representations=representations,
        degrees=(int(degrees[0]), int(degrees[-1])),
        bar_cap=params.get("bar_cap"),
        hull_cap=params.get("hull_cap", 2),
    )


# ---------------------------------------------------------------------------
# serialization


def _coeffs_out(coeffs):
    return {label: format_scalar(c) for (deg, label), c in sorted(coeffs.items(), key=repr)}


def serialize_category(cat: DgCategory):
    homs = []
    for (src, tgt), space in sorted(cat.homs.items(), key=repr):
        entry = {
            "source": src,
            "target": tgt,
            "basis": [
                {"label": lab, "degree": deg}
                for deg in space.degrees()
                for lab in space.labels(deg)
            ],
        }
        dtable = cat.diff.get((src, tgt), {})
        differential = []
        for (deg, lab), img in sorted(dtable.items(), key=repr):
            differential.append({"from": lab, "image": _coeffs_out(img)})
        if differential:
            entry["differential"] = differential
        homs.append(entry)
    compositions = []
    for x in cat.objects:
        for y in cat.objects:
            for z in cat.objects:
                table = cat.comp_table(x, y, z)
                for ((dg, gl), (df, fl)), result in sorted(table.items(), key=repr):
                    unit_x = cat.units.get(x, {})
                    unit_y = cat.units.get(y, {})
                    if (dg, gl) in unit_x and x == y:
                        continue  # unit compositions are implied
                    if (df, fl) in unit_y and y == z:
                        continue
                    compositions.append(
                        {
                            "source": x,
                            "middle": y,
                            "target": z,
                            "first": gl,
                            "then": fl,
                            "result": _coeffs_out(result),
                        }
                    )
    return {
        "objects": list(cat.objects),
        "homs": homs,
        "compositions": compositions,
        "units": {x: _coeffs_out(u) for x, u in sorted(cat.units.items(), key=repr)},
    }


def serialize_bundle(bundle: ExampleBundle):
    doc = {
        "schema": SCHEMA,
        "name": bundle.name,
        "description": bundle.description,
        "field": field_spec(bundle.base.field),
        "category": serialize_category(bundle.base),
    }
    if bundle.group is not None:
        doc["group"] = {
            "name": bundle.group.name,
            "elements": list(bundle.group.elements),
            "table": {
                a: {b: bundle.group.mul(a, b) for b in bundle.group.elements}
                for a in bundle.group.elements
            },
        }
    if bundle.action is not None:
        functors = {}
        ident = identity_functor(bundle.base)
        from .dgcat import functors_equal

        for g in bundle.group.elements:
            rho = bundle.action.rho(g)
            if functors_equal(rho, ident):
                functors[g] = {"identity": True}
                continue
            morphs = []
            for (src, tgt), space in sorted(bundle.base.homs.items(), key=repr):
                for deg in space.degrees():
                    for lab in space.labels(deg):
                        img = rho.apply(bundle.base.basis_mor(src, tgt, deg, lab))
                        morphs.append(
                            {
                                "source": src,
                                "target": tgt,
                                "from": lab,
                                "image": _coeffs_out(img.coeffs),
                            }
                        )
            functors[g] = {
                "objects": {x: rho.apply_obj(x) for x in bundle.base.objects},
                "morphisms": morphs,
            }
        doc["action"] = {"functors": functors}
        theta_entries = []
        for (g, g2), nat in sorted(bundle.action.theta.items(), key=repr):
            comps = {}
            nontrivial = False
            for x in bundle.base.objects:
                comp = nat.at(x)
                comps[x] = _coeffs_out(comp.coeffs)
                if not comp == bundle.base.unit(comp.src):
                    nontrivial = True
            if nontrivial:
                theta_entries.append({"g": g, "g2": g2, "components": comps})
        if theta_entries:
            doc["action"]["theta"] = theta_entries
        eta_comps = {}
        eta_nontrivial = False
        for x in bundle.base.objects:
            comp = bundle.action.eta.at(x)
            eta_comps[x] = _coeffs_out(comp.coeffs)
            if not comp == bundle.base.unit(comp.src):
                eta_nontrivial = True
        if eta_nontrivial:
            doc["action"]["eta"] = {"components": eta_comps}
    if bundle.declared:
        roster = []
        for d in bundle.declared:
            alpha = {}
            for g, entries in d.alpha_entries.items():
                image = tuple(
                    bundle.action.rho(g).apply_obj(x) for x in d.underlying
                )
                rows = [
                    [dict() for _ in range(len(d.underlying))]
                    for _ in range(len(image))
                ]
                for (i, j, deg, lab), c in entries.items():
                    rows[i][j][lab] = format_scalar(c)
                alpha[g] = rows
            roster.append({"name": d.name, "objects": list(d.underlying), "alpha": alpha})
        doc["roster"] = roster
    if bundle.generators:
        doc["generators"] = list(bundle.generators)
    if bundle.hh_names:
        doc["covering"] = list(bundle.hh_names)
    if bundle.representations:
        doc["representations"] = {
            name: {
                "dim": rep.dim,
                "matrices": {
                    g: [
                        [format_scalar(rep.entry(g, i, j)) for j in range(rep.dim)]
                        for i in range(rep.dim)
                    ]
                    for g in bundle.group.elements
                },
            }
            for name, rep in sorted(bundle.representations.items())
        }
    params = {"degrees": list(bundle.degrees)}
    if bundle.bar_cap is not None:
        params["bar_cap"] = bundle.bar_cap
    params["hull_cap"] = bundle.hull_cap
    doc["params"] = params
    return doc


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
