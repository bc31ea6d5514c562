import json

import pytest

from equihh.dgcat import DgCategory, identity_functor
from equihh.documents import canonical_json, parse_document, serialize_bundle
from equihh.errors import InputError
from equihh.examples import get_example, ExampleBundle
from equihh.scalars import QQ
from tests_support import leibniz_sabotage_pair


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5"])
def test_roundtrip_idempotent(name):
    bundle = get_example(name)
    doc = serialize_bundle(bundle)
    text = canonical_json(doc)
    reparsed = parse_document(text)
    assert canonical_json(serialize_bundle(reparsed)) == text


def test_parse_errors_carry_locations():
    with pytest.raises(InputError) as err:
        parse_document({"schema": "equihh-schema-1"})
    assert "category" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_document({"schema": "nope"})
    assert "schema" in str(err.value)
    doc = serialize_bundle(get_example("E1"))
    doc["category"]["homs"][0]["differential"] = [{"from": "ghost", "image": {}}]
    with pytest.raises(InputError) as err:
        parse_document(json.dumps(doc))
    assert "ghost" in str(err.value)


def test_parsed_category_validates():
    from equihh.dgcat import validate_dgcat

    bundle = parse_document(canonical_json(serialize_bundle(get_example("E3"))))
    assert validate_dgcat(bundle.base).ok
    assert bundle.base.hom("pt", "pt").total_dim() == 2


def test_parsed_action_validates():
    from equihh.groups import validate_action

    bundle = parse_document(canonical_json(serialize_bundle(get_example("E2"))))
    assert validate_action(bundle.action).ok


def test_sabotaged_dgcat_document_rejected():
    from equihh.dgcat import validate_dgcat

    good, bad = leibniz_sabotage_pair()
    bundle = ExampleBundle(name="koszul-sabotage", description="", base=bad)
    doc = serialize_bundle(bundle)
    parsed = parse_document(canonical_json(doc))
    report = validate_dgcat(parsed.base)
    assert any(v.rule == "leibniz" for v in report.violations)
    good_bundle = ExampleBundle(name="koszul-good", description="", base=good)
    parsed_good = parse_document(canonical_json(serialize_bundle(good_bundle)))
    assert validate_dgcat(parsed_good.base).ok


def test_a_unit_of_several_keys_survives_the_round_trip():
    """k×k, the idempotents e0 and e1 with unit e0 + e1: the writer used to
    omit every composition with a key of a unit, which the reader supplies
    only for a unit of one key, so the reparsed category failed four unit
    laws and hh raised."""
    from equihh.dgcat import validate_dgcat
    from equihh.hochschild import hh_dimensions
    from equihh.linalg import GradedSpace

    e0, e1 = (0, "e0"), (0, "e1")
    one = QQ.one
    kxk = DgCategory(
        QQ,
        ["pt"],
        {("pt", "pt"): GradedSpace({0: ["e0", "e1"]})},
        {},
        {("pt", "pt", "pt"): {(e0, e0): {e0: one}, (e1, e1): {e1: one}}},
        {"pt": {e0: one, e1: one}},
    )
    assert validate_dgcat(kxk).ok
    doc = serialize_bundle(ExampleBundle(name="kxk", description="", base=kxk))
    assert len(doc["category"]["compositions"]) == 2
    reparsed = parse_document(canonical_json(doc)).base
    assert validate_dgcat(reparsed).ok
    dims = [hh_dimensions(c, identity_functor(c), [0])["dims"] for c in (kxk, reparsed)]
    assert dims == [{0: 2}, {0: 2}]


def e3_with_zeros(unit, result):
    """E3 (k[Z/2] on 1, g) with its unit and the result of g∘g replaced."""
    doc = serialize_bundle(get_example("E3"))
    doc["category"]["units"] = {"pt": unit}
    doc["category"]["compositions"][0]["result"] = result
    return doc


def test_zero_coefficients_are_dropped_after_the_degree_check():
    """A coefficient written as 0 is no entry of a table or a unit.  The
    unit 1 + 0·g is then the one key 1 with coefficient 1, so parsing
    supplies its compositions and the category validates; the result
    1 + 0·g of g∘g is the int 1 alone.  A zero whose label has the wrong
    degree is still an input error."""
    from equihh.dgcat import validate_dgcat

    base = parse_document(json.dumps(e3_with_zeros({"1": "1", "g": "0"}, {"1": "1", "g": "0"}))).base
    one, g = (0, "1"), (0, "g")
    assert base.units["pt"] == {one: 1}
    table = base.comp_table("pt", "pt", "pt")
    assert table[(g, g)] == {one: 1} and type(table[(g, g)][one]) is int
    assert table[(one, g)] == {g: 1}
    assert validate_dgcat(base).ok
    doc = e3_with_zeros({"1": "1"}, {"1": "1", "h": "0"})
    doc["category"]["homs"][0]["basis"].append({"label": "h", "degree": -1})
    with pytest.raises(InputError, match="'g'∘'g' has degree 0, but 'h' has degree -1"):
        parse_document(json.dumps(doc))
