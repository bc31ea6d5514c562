"""JSON document format (schema "equihh-schema-1").

A document carries a base category, optionally a group with its action,
declared equivariant objects, generator objects, representations and
command parameters.  Scalars are strings ("p/q", or "cycM:c0,c1,...").
Every parse error carries a location path.

Each convention of the format has one reader, and the writer follows it:
- ``_key`` reads a basis label (a string) as its key (degree, label);
- ``_coeffs`` reads a coefficient object {label: scalar}: an image, a
  result, a unit, a component or a roster alpha cell;
- ``_new`` rejects a repeated key: of a JSON object, or of an entry of a
  keyed list (objects, group elements, homs, basis labels, differential
  sources, compositions, functor morphisms, theta pairs, roster names and
  objects, covering and generator names);
- ``_implied_units`` names the units that are one key with coefficient 1,
  whose unit compositions a document omits and parsing supplies.
"""

from __future__ import annotations

import json

from .dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    compose_functors,
    functors_equal,
    identity_functor,
)
from .errors import FieldMismatchError, InputError, StructureError
from .examples import DeclaredObject, ExampleBundle
from .groups import FiniteGroup, GroupAction, Representation
from .linalg import GradedSpace
from .scalars import field_spec, format_scalar, parse_field, parse_scalar

SCHEMA = "equihh-schema-1"

# JSON type of each top-level block that may appear in a document
BLOCK_TYPES = {
    "category": dict,
    "group": dict,
    "action": dict,
    "roster": list,
    "representations": dict,
    "params": dict,
    "covering": list,
    "generators": list,
}


def _expect(value, kind, location):
    """``value`` after checking that its JSON type is ``kind`` (dict for
    an object, list for an array)."""
    if not isinstance(value, kind):
        raise InputError(f"must be a JSON {'object' if kind is dict else 'array'}", location)
    return value


def _expect_int(value, location):
    if type(value) is not int:
        raise InputError("must be an integer", location)
    return value


def _name(value, location, required=False):
    """An object, basis label or group element name: a JSON string.  A
    required name (of the document, its group or a roster entry) is not
    empty."""
    if not isinstance(value, str):
        raise InputError(f"name {value!r} must be a string", location)
    if required and not value:
        raise InputError("name must not be empty", location)
    return value


def _new(key, earlier, location, what):
    """``key``, the key of a document entry (a name, a hom pair, a
    composition, ...), unless ``earlier`` entries hold it: a repeated key
    is an input error at the repeat's own location."""
    if key in earlier:
        raise InputError(f"repeats {what}", location)
    return key


def _scalar(value, field, location):
    if not isinstance(value, str):
        raise InputError(f"scalar {value!r} must be a string", location)
    try:
        return parse_scalar(value, field)
    except (FieldMismatchError, InputError) as exc:
        raise InputError(str(exc), location) from exc


def _key(value, degrees_of, location):
    """The basis key (degree, label) of the label ``value`` of a hom complex
    whose labels have the degrees ``degrees_of``."""
    label = _name(value, location)
    if label not in degrees_of:
        raise InputError(f"unknown basis label {label!r}", location)
    return degrees_of[label], label


def _coeffs(entry, field, degrees_of, location):
    """A morphism's coefficients {key: scalar} from a document's {label: scalar}."""
    return {
        _key(label, degrees_of, location): _scalar(value, field, location)
        for label, value in _expect(entry, dict, location).items()
    }


def _implied_units(units, field):
    """{object: key} for each unit that is one basis key with coefficient 1:
    a document omits the compositions with such a unit, and parsing supplies
    them."""
    return {x: next(iter(u)) for x, u in units.items() if list(u.values()) == [field.one]}


def _object(pairs):
    """A JSON object from its (key, value) pairs; a repeated key is an input
    error, where ``json`` would keep its last value."""
    out = {}
    for key, value in pairs:
        out[_new(key, out, "document", f"the key {key!r} of a JSON object")] = value
    return out


def _transformation(src, tgt, components, name, location, label_degrees):
    """The transformation ``name``: src ⇒ tgt from a document's {object:
    coefficients}, or of units (src, tgt agreeing) where ``components`` is None."""
    cat = src.src
    comps = {}
    for x in cat.objects:
        sobj, tobj = src.apply_obj(x), tgt.apply_obj(x)
        if components is None:
            if sobj != tobj:
                raise InputError(f"{name} is not an identity at {x!r}; give its components", location)
            comps[x] = cat.unit(sobj)
            continue
        raw_comp = components.get(x)
        if raw_comp is None:
            raise InputError(f"{name} missing a component at {x!r}", location)
        degrees_of = label_degrees.get((sobj, tobj), {})
        comps[x] = Mor(sobj, tobj, _coeffs(raw_comp, cat.field, degrees_of, location))
    return NatTransform(src, tgt, comps, name=name)


def parse_document(doc) -> ExampleBundle:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc, object_pairs_hook=_object)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}", "document") from exc
    if not isinstance(doc, dict):
        raise InputError("document is not a JSON object", "document")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"unknown schema {doc.get('schema')!r}", "schema")
    for key, kind in BLOCK_TYPES.items():
        if key in doc:
            _expect(doc[key], kind, key)
    field = parse_field(doc.get("field", "q"))

    cat_doc = doc.get("category")
    if cat_doc is None:
        raise InputError("missing category block", "category")
    objects = []
    for i, x in enumerate(_expect(cat_doc.get("objects", []), list, "category.objects")):
        x = _name(x, "category.objects")
        objects.append(_new(x, objects, f"category.objects[{i}]", f"object {x!r}"))
    if not objects:
        raise InputError("category has no objects", "category.objects")
    homs = {}
    diff = {}
    comp = {}
    units = {}
    label_degrees = {}
    for i, hom in enumerate(_expect(cat_doc.get("homs", []), list, "category.homs")):
        loc = f"category.homs[{i}]"
        src, tgt = _expect(hom, dict, loc).get("source"), hom.get("target")
        if src not in objects or tgt not in objects:
            raise InputError(f"hom between unknown objects {src!r}, {tgt!r}", loc)
        _new((src, tgt), homs, loc, f"the hom {src}->{tgt}")
        basis = {}
        degrees_of = {}
        for k, b in enumerate(_expect(hom.get("basis", []), list, f"{loc}.basis")):
            bloc = f"{loc}.basis[{k}]"
            label = _name(_expect(b, dict, bloc).get("label"), f"{bloc}.label")
            degree = _expect_int(b.get("degree", 0), f"{bloc}.degree")
            degrees_of[_new(label, degrees_of, bloc, f"label {label!r}")] = degree
            basis.setdefault(degree, []).append(label)
        homs[(src, tgt)] = GradedSpace(basis)
        label_degrees[(src, tgt)] = degrees_of
        dtable = {}
        for j, d in enumerate(_expect(hom.get("differential", []), list, f"{loc}.differential")):
            dloc = f"{loc}.differential[{j}]"
            key = _key(_expect(d, dict, dloc).get("from"), degrees_of, dloc)
            img = _coeffs(d.get("image", {}), field, degrees_of, dloc)
            dtable[_new(key, dtable, dloc, f"the differential of {key[1]!r}")] = img
        if dtable:
            diff[(src, tgt)] = dtable
    for i, c in enumerate(_expect(cat_doc.get("compositions", []), list, "category.compositions")):
        loc = f"category.compositions[{i}]"
        x, y, z = _expect(c, dict, loc).get("source"), c.get("middle"), c.get("target")
        for o in (x, y, z):
            if o not in objects:
                raise InputError(f"unknown object {o!r}", loc)
        (dg, gl), (df, fl) = key = (
            _key(c.get("first"), label_degrees.get((x, y), {}), loc),
            _key(c.get("then"), label_degrees.get((y, z), {}), loc),
        )
        result = _coeffs(c.get("result", {}), field, label_degrees.get((x, z), {}), loc)
        for deg, label in result:
            if deg != dg + df:
                raise InputError(
                    f"{fl!r}∘{gl!r} has degree {dg + df}, but {label!r} has degree {deg}", loc
                )
        table = comp.setdefault((x, y, z), {})
        table[_new(key, table, loc, f"{fl!r}∘{gl!r} in {x}->{y}->{z}")] = result
    for x, entry in _expect(cat_doc.get("units") or {}, dict, "category.units").items():
        if x not in objects:
            raise InputError(f"unit for unknown object {x!r}", "category.units")
        units[x] = _coeffs(entry, field, label_degrees.get((x, x), {}), "category.units")
    missing = [x for x in objects if x not in units]
    if missing:
        raise InputError(f"objects without units: {missing}", "category.units")
    implied = _implied_units(units, field)
    for (x, y), degrees_of in label_degrees.items():
        for label, degree in degrees_of.items():
            key = (degree, label)
            if x in implied:
                comp.setdefault((x, x, y), {}).setdefault((implied[x], key), {key: field.one})
            if y in implied:
                comp.setdefault((x, y, y), {}).setdefault((key, implied[y]), {key: field.one})
    category = DgCategory(field, objects, homs, diff, comp, units)

    group = None
    action = None
    if "group" in doc:
        gdoc = doc["group"]
        elements = []
        for i, a in enumerate(_expect(gdoc.get("elements", []), list, "group.elements")):
            a = _name(a, "group.elements")
            elements.append(_new(a, elements, f"group.elements[{i}]", f"element {a!r}"))
        table = {}
        raw = _expect(gdoc.get("table", {}), dict, "group.table")
        for a in elements:
            row = raw.get(a)
            if row is None:
                raise InputError(f"multiplication row missing for {a!r}", "group.table")
            _expect(row, dict, f"group.table[{a}]")
            for b in elements:
                if b not in row:
                    raise InputError(f"entry ({a},{b}) missing", "group.table")
                table[(a, b)] = _name(row[b], "group.table")
        name = _name(gdoc.get("name", "G"), "group.name", required=True)
        try:
            group = FiniteGroup(elements, table, name=name)
        except StructureError as exc:
            raise InputError(str(exc), "group.table") from exc
    if "action" in doc:
        if group is None:
            raise InputError("action without group", "action")
        adoc = doc["action"]
        functors = {}
        functors_doc = _expect(adoc.get("functors") or {}, dict, "action.functors")
        for g in group.elements:
            fdoc = functors_doc.get(g)
            loc = f"action.functors[{g}]"
            if fdoc is None or _expect(fdoc, dict, loc).get("identity"):
                functors[g] = identity_functor(category, name=f"rho[{g}]")
                continue
            obj_map = dict(_expect(fdoc.get("objects", {}), dict, f"{loc}.objects"))
            for x in objects:
                if obj_map.get(x) not in objects:
                    raise InputError(f"object map misses {x!r}", loc)
            mor_map = {pair: {} for pair in homs}
            for j, m in enumerate(_expect(fdoc.get("morphisms", []), list, f"{loc}.morphisms")):
                mloc = f"{loc}.morphisms[{j}]"
                src, tgt = _expect(m, dict, mloc).get("source"), m.get("target")
                if src not in objects or tgt not in objects:
                    raise InputError(f"morphism between unknown objects {src!r}, {tgt!r}", mloc)
                key = _key(m.get("from"), label_degrees.get((src, tgt), {}), mloc)
                isrc, itgt = obj_map[src], obj_map[tgt]
                img = _coeffs(m.get("image", {}), field, label_degrees.get((isrc, itgt), {}), mloc)
                table = mor_map[(src, tgt)]
                what = f"the image of {key[1]!r} in {src}->{tgt}"
                table[_new(key, table, mloc, what)] = Mor(isrc, itgt, img)
            for x, y in homs:
                for key in category.basis_keys(x, y):
                    if key not in mor_map[(x, y)]:
                        raise InputError(f"no image of {key[1]!r} in {x}->{y}", f"{loc}.morphisms")
            functors[g] = DgFunctor(category, category, obj_map, mor_map, name=f"rho[{g}]")
        theta = {}
        theta_doc = {}
        for i, t in enumerate(_expect(adoc.get("theta", []), list, "action.theta")):
            tloc = f"action.theta[{i}]"
            pair = (_name(_expect(t, dict, tloc).get("g"), tloc), _name(t.get("g2"), tloc))
            _new(pair, theta_doc, tloc, f"theta[{pair[0]},{pair[1]}]")
            theta_doc[pair] = _expect(t.get("components") or {}, dict, f"{tloc}.components")
        for g in group.elements:
            for g2 in group.elements:
                theta[(g, g2)] = _transformation(
                    compose_functors(functors[g], functors[g2]),
                    functors[group.mul(g2, g)],
                    theta_doc.get((g, g2)),
                    f"theta[{g},{g2}]",
                    "action.theta",
                    label_degrees,
                )
        eta_doc = adoc.get("eta")
        if eta_doc is not None:
            eta_doc = _expect(eta_doc, dict, "action.eta").get("components") or {}
            eta_doc = _expect(eta_doc, dict, "action.eta.components")
        rho_e, ident = functors[group.identity], identity_functor(category)
        eta = _transformation(rho_e, ident, eta_doc, "eta", "action.eta", label_degrees)
        action = GroupAction(group, category, functors, theta, eta, name=doc.get("name", "action"))

    declared = []
    roster_objects = {}  # {(objects, nonzero alpha entries): name}
    for i, r in enumerate(doc.get("roster", [])):
        loc = f"roster[{i}]"
        name = _name(_expect(r, dict, loc).get("name"), f"{loc}.name", required=True)
        _new(name, [d.name for d in declared], f"{loc}.name", f"roster name {name!r}")
        underlying = tuple(_expect(r.get("objects", []), list, f"{loc}.objects"))
        for x in underlying:
            if x not in objects:
                raise InputError(f"unknown component {x!r}", loc)
        if action is None:
            raise InputError("roster requires a group action", loc)
        alpha_entries = {}
        alpha = _expect(r.get("alpha") or {}, dict, f"{loc}.alpha")
        for g in group.elements:
            rows = alpha.get(g)
            if rows is None:
                raise InputError(f"alpha missing for {g!r}", loc)
            entries = {}
            image = tuple(action.rho(g).apply_obj(x) for x in underlying)
            gloc = f"{loc}.alpha[{g}]"
            if len(_expect(rows, list, gloc)) > len(image):
                raise InputError(f"more than {len(image)} rows", gloc)
            for ri, row in enumerate(rows):
                if len(_expect(row, list, f"{gloc}[{ri}]")) > len(underlying):
                    raise InputError(f"more than {len(underlying)} columns", f"{gloc}[{ri}]")
                for ci, cell in enumerate(row):
                    degrees_of = label_degrees.get((underlying[ci], image[ri]), {})
                    cell = _coeffs(cell or {}, field, degrees_of, f"{gloc}[{ri}][{ci}]")
                    entries.update(((ri, ci) + key, c) for key, c in cell.items())
            alpha_entries[g] = entries
        nonzero = tuple(frozenset((k, c) for k, c in e.items() if c) for e in alpha_entries.values())
        signature = (underlying, nonzero)
        _new(signature, roster_objects, loc, f"the roster object {roster_objects.get(signature)!r}")
        roster_objects[signature] = name
        declared.append(DeclaredObject(name, underlying, alpha_entries))

    representations = {}
    for name, r in doc.get("representations", {}).items():
        rloc = f"representations[{name}]"
        if group is None:
            raise InputError("representations require a group", rloc)
        dim = _expect_int(_expect(r, dict, rloc).get("dim", 0), f"{rloc}.dim")
        mats = {}
        matrices = _expect(r.get("matrices") or {}, dict, f"{rloc}.matrices")
        for g in group.elements:
            rows = matrices.get(g)
            if rows is None:
                raise InputError(f"matrix missing for {g!r}", rloc)
            mloc = f"{rloc}.matrices[{g}]"
            if len(_expect(rows, list, mloc)) != dim or any(
                len(_expect(row, list, mloc)) != dim for row in rows
            ):
                raise InputError(f"must be a {dim}x{dim} matrix, as dim says", mloc)
            mats[g] = [[_scalar(v, field, mloc) for v in row] for row in rows]
        try:
            representations[name] = Representation(group, dim, mats, name=name, field=field)
        except StructureError as exc:
            raise InputError(str(exc), rloc) from exc

    generators = doc.get("generators", [])
    for i, x in enumerate(generators):
        if x not in objects:
            raise InputError(f"unknown object {x!r}", "generators")
        _new(x, generators[:i], f"generators[{i}]", f"generator {x!r}")
    roster_names = [d.name for d in declared]
    covering = doc.get("covering", [])
    for i, name in enumerate(covering):
        if name not in roster_names:
            raise InputError(f"{name!r} is not a roster name", "covering")
        _new(name, covering[:i], f"covering[{i}]", f"covering name {name!r}")
    params = doc.get("params", {})
    degrees = _expect(params.get("degrees", [0, 0]), list, "params.degrees")
    if not degrees or any(type(d) is not int for d in degrees):
        raise InputError("must be a non-empty array of integers", "params.degrees")
    if degrees[0] > degrees[-1]:
        raise InputError(f"{degrees} is an empty range (first > last)", "params.degrees")
    if "bar_cap" in params and _expect_int(params["bar_cap"], "params.bar_cap") < 0:
        raise InputError("must be a non-negative integer", "params.bar_cap")
    return ExampleBundle(
        name=_name(doc.get("name", "document"), "name", required=True),
        description=doc.get("description", ""),
        base=category,
        group=group,
        action=action,
        declared=declared,
        generators=list(generators),
        hh_names=list(covering),
        representations=representations,
        degrees=(int(degrees[0]), int(degrees[-1])),
        bar_cap=params.get("bar_cap"),
    )


# ---------------------------------------------------------------------------
# serialization


def _coeffs_out(coeffs):
    return {label: format_scalar(c) for (deg, label), c in sorted(coeffs.items(), key=repr)}


def _components_out(nat: NatTransform, cat: DgCategory):
    """A transformation's components {object: coefficients} as written in
    a document, or None when every component is the unit of its source."""
    comps = {x: nat.at(x) for x in cat.objects}
    if all(comp == cat.unit(comp.src) for comp in comps.values()):
        return None
    return {x: _coeffs_out(comp.coeffs) for x, comp in comps.items()}


def serialize_category(cat: DgCategory):
    homs = []
    for src, tgt in sorted(cat.homs, key=repr):
        entry = {
            "source": src,
            "target": tgt,
            "basis": [{"label": lab, "degree": deg} for deg, lab in cat.basis_keys(src, tgt)],
        }
        differential = [
            {"from": lab, "image": _coeffs_out(img)}
            for (deg, lab), img in sorted(cat.diff.get((src, tgt), {}).items(), key=repr)
        ]
        if differential:
            entry["differential"] = differential
        homs.append(entry)
    implied = _implied_units(cat.units, cat.field)
    one = cat.field.one
    compositions = []
    for x in cat.objects:
        for y in cat.objects:
            for z in cat.objects:
                table = cat.comp_table(x, y, z)
                for (gk, fk), result in sorted(table.items(), key=repr):
                    if (x == y and implied.get(x) == gk and result == {fk: one}) or (
                        y == z and implied.get(z) == fk and result == {gk: one}
                    ):
                        continue  # parse_document supplies it
                    compositions.append(
                        {
                            "source": x,
                            "middle": y,
                            "target": z,
                            "first": gk[1],
                            "then": fk[1],
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
        for g in bundle.group.elements:
            rho = bundle.action.rho(g)
            if functors_equal(rho, ident):
                functors[g] = {"identity": True}
                continue
            morphs = []
            for src, tgt in sorted(bundle.base.homs, key=repr):
                for deg, lab in bundle.base.basis_keys(src, tgt):
                    img = rho.apply(bundle.base.basis_mor(src, tgt, deg, lab))
                    morphs.append(
                        {"source": src, "target": tgt, "from": lab, "image": _coeffs_out(img.coeffs)}
                    )
            functors[g] = {
                "objects": {x: rho.apply_obj(x) for x in bundle.base.objects},
                "morphisms": morphs,
            }
        doc["action"] = {"functors": functors}
        theta_entries = []
        for (g, g2), nat in sorted(bundle.action.theta.items(), key=repr):
            comps = _components_out(nat, bundle.base)
            if comps is not None:
                theta_entries.append({"g": g, "g2": g2, "components": comps})
        if theta_entries:
            doc["action"]["theta"] = theta_entries
        eta_comps = _components_out(bundle.action.eta, bundle.base)
        if eta_comps is not None:
            doc["action"]["eta"] = {"components": eta_comps}
    if bundle.declared:
        roster = []
        for d in bundle.declared:
            alpha = {}
            for g, entries in d.alpha_entries.items():
                rows = [[{} for _ in d.underlying] for _ in d.underlying]
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
    doc["params"] = params
    return doc


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
