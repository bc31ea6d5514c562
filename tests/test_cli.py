import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equihh.cli import main
from equihh.documents import canonical_json, serialize_bundle
from equihh.examples import get_example
from tests_support import cyclotomic_z3_document, discrete_torsion_document


def write_doc(tmp_path, name, mutate=None):
    doc = serialize_bundle(get_example(name))
    if mutate:
        mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(doc))
    return str(path)


def test_examples_emits_parseable_documents(capsys):
    assert main(["examples", "E1"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["schema"] == "equihh-schema-1"
    assert main(["examples", "nope"]) == 2


@pytest.mark.parametrize("output", ["text", "json"])
def test_examples_lists_every_bundled_example(output, capsys):
    assert main(["examples", "--output", output]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert sorted(listing) == ["E1", "E2", "E3", "E4", "E5"]
    assert listing["E3"] == "one-object group algebra k[Z/2]"


def test_validate_e1(tmp_path, capsys):
    path = write_doc(tmp_path, "E1")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_empty_category_is_vacuous(tmp_path):
    doc = {
        "schema": "equihh-schema-1",
        "name": "tiny",
        "category": {
            "objects": ["pt"],
            "homs": [
                {"source": "pt", "target": "pt", "basis": [{"label": "1", "degree": 0}]}
            ],
            "units": {"pt": {"1": "1"}},
        },
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0


def test_validate_broken_theta(tmp_path, capsys):
    def sabotage(doc):
        doc.setdefault("action", {}).setdefault("theta", []).append(
            {"g": "e", "g2": "s", "components": {"pt": {"1": "2"}}}
        )

    path = write_doc(tmp_path, "E1", mutate=sabotage)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "condition_i" in out


def test_validate_broken_alpha(tmp_path, capsys):
    def sabotage(doc):
        doc["roster"][1]["alpha"]["s"][0][0]["1"] = "2"

    path = write_doc(tmp_path, "E1", mutate=sabotage)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "cocycle" in out or "invertib" in out


def test_decompose_broken_alpha_fails(tmp_path, capsys):
    def sabotage(doc):
        doc["roster"][1]["alpha"]["s"][0][0]["1"] = "2"

    path = write_doc(tmp_path, "E1", mutate=sabotage)
    assert main(["decompose", path]) == 1
    err = capsys.readouterr().err
    assert "cocycle" in err


def zero_theta(doc):
    doc["action"]["theta"] = [{"g": "s", "g2": "s", "components": {"pt": {}}}]


def test_validate_zero_theta_component(tmp_path, capsys):
    """A zero theta[s,s] is reported by the action's validator; the roster's
    coherence squares are checked without inverting it."""
    path = write_doc(tmp_path, "E1", mutate=zero_theta)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert "[invertibility] theta[s,s] not invertible at pt" in captured.out
    assert "internal error" not in captured.err


def test_decompose_zero_theta_component(tmp_path, capsys):
    """The action's first violation is an input error, not exit 4."""
    path = write_doc(tmp_path, "E1", mutate=zero_theta)
    assert main(["decompose", path]) == 2
    assert "[invertibility] theta[s,s] not invertible at pt" in capsys.readouterr().err


def test_decompose_rejects_an_action_that_does_not_validate(tmp_path, capsys):
    """E2 with eta scaled by 2 is not a group action (condition i fails):
    decompose names the first violation as an input error."""

    def scale_eta(doc):
        doc["action"]["eta"] = {"components": {x: {"1": "2"} for x in ("x1", "x2")}}

    path = write_doc(tmp_path, "E2", mutate=scale_eta)
    assert main(["decompose", path, "--no-certificates"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: action: the action does not validate:")
    assert "[condition_i] (theta[e,e])_x1 != eta at rho_e(x1)" in err


def test_hh_command(tmp_path, capsys):
    path = write_doc(tmp_path, "E1")
    assert main(["hh", path, "--degrees=-1..0", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"]["0"] == 1
    assert payload["certification"] == "Exact"


def test_hh_twisted_functor(tmp_path, capsys):
    path = write_doc(tmp_path, "E2")
    assert main(["hh", path, "--functor", "s", "--degrees=0..0", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"]["0"] == 0
    assert main(["hh", path, "--functor", "ghost"]) == 2


def test_truncation_exit_codes(tmp_path, capsys):
    path = write_doc(tmp_path, "E4")
    assert main(["hh", path, "--degrees=-2..0", "--bar-cap", "6"]) == 3
    assert main(["hh", path, "--degrees=-2..0", "--bar-cap", "6", "--allow-truncated"]) == 0
    # no cap at all: the window cannot even be built exactly
    assert main(["hh", path, "--degrees=-2..0"]) == 3


def _degree_one_endomorphism(doc):
    """E1's point gains a degree-1 endomorphism e with e∘e = 0, so every
    window of the pipeline is truncated."""
    doc["category"]["homs"][0]["basis"].append({"degree": 1, "label": "e"})


@pytest.mark.parametrize(
    "example, mutate, argv, message",
    [
        ("E4", None, ["hh", "--degrees=-2..0", "--bar-cap=6"], "window is TruncatedAt(6); rerun with"),
        ("E4", None, ["kunneth", "--degrees=-1..0", "--bar-cap=2"], "window is TruncatedAt(2); rerun with"),
        ("E4", None, ["kunneth"], "window is TruncatedAt(8); rerun with"),
        ("E1", None, ["hh", "--bar-cap=0"], "window is exact up to bar degree 2 but the cap is 0"),
        ("E1", None, ["kunneth", "--bar-cap=0"], "window is exact up to bar degree 2 but the cap is 0"),
        ("E1", None, ["decompose", "--bar-cap=1"], "window is exact up to bar degree 2 but the cap is 1"),
        (
            "E1",
            _degree_one_endomorphism,
            ["decompose", "--bar-cap=2"],
            "window is TruncatedAt(2); rerun with",
        ),
    ],
    ids=[
        "hh-truncated",
        "kunneth-truncated",
        "kunneth-own-cap",
        "hh-cap",
        "kunneth-cap",
        "decompose-cap",
        "decompose-truncated",
    ],
)
def test_truncation_is_reported_once_with_exit_3(tmp_path, capsys, example, mutate, argv, message):
    path = write_doc(tmp_path, example, mutate)
    assert main([argv[0], path, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"truncation: {message}")
    assert captured.err.count("\n") == 1


def test_decompose_on_truncated_windows_skips_every_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, "E1", _degree_one_endomorphism)
    argv = ["decompose", path, "--bar-cap", "2", "--allow-truncated", "--output", "json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certification"] == "TruncatedAt(2)"
    assert not payload["theorem_holds"] and payload["witnesses"]
    assert payload["certificates"] == [
        {"name": "homotopy certificates", "mode": "skipped: window truncated", "passed": True}
    ]


def run_into_closed_pipe(argv):
    """The command line in a fresh interpreter whose standard output is a
    pipe the reader has already closed, as after ``| head``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "equihh.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write)


def test_closed_output_pipe_keeps_the_exit_code(tmp_path):
    """A reader that stops early ends the output silently: examples still
    exits 0, and a decompose whose checks fail still exits 1."""
    done = run_into_closed_pipe(["examples", "E1"])
    assert (done.returncode, done.stderr) == (0, b"")
    path = write_doc(tmp_path, "E1", _degree_one_endomorphism)
    done = run_into_closed_pipe(["decompose", path, "--bar-cap", "2", "--allow-truncated"])
    assert (done.returncode, done.stderr) == (1, b"")


def test_decompose_e1_cli(tmp_path, capsys):
    path = write_doc(tmp_path, "E1")
    assert main(["decompose", path, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theorem_holds"]
    assert payload["equivariant_dims"]["0"] == 2
    inv = {c["representative"]: c["invariant_dims"]["0"] for c in payload["classes"]}
    assert inv == {"e": 1, "s": 1}


def test_kunneth_e3_cli(tmp_path, capsys):
    path = write_doc(tmp_path, "E3")
    assert main(["kunneth", path, "--degrees=-1..0", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kunneth_isomorphism"]
    assert payload["degrees"]["0"]["tensor_dim"] == 4
    assert payload["degrees"]["0"]["bijective"]


def test_kunneth_e3_text(tmp_path, capsys):
    path = write_doc(tmp_path, "E3")
    assert main(["kunneth", path, "--degrees=-1..0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "E3: shuffle map [Exact], chain map ok (68 chains)",
        "  degree -1: 0 -> 0 rank 0 bijective",
        "  degree 0: 4 -> 4 rank 4 bijective",
    ]


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5"])
def test_all_examples_self_validate(tmp_path, name):
    path = write_doc(tmp_path, name)
    assert main(["validate", path]) == 0


def test_input_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_non_object_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["validate", str(path)]) == 2
    assert main(["decompose", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_decompose_without_generators_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, "E1", mutate=lambda doc: doc.pop("generators"))
    assert main(["decompose", path]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "generators" in err
    assert "Traceback" not in err


def test_covering_object_equal_to_another_is_input_error(tmp_path, capsys):
    """E1 with minus given plus's alpha: minus repeats the roster object
    plus, which is an input error at minus's entry, whether or not the
    covering names it."""

    def duplicate(doc):
        doc["roster"][1]["alpha"] = doc["roster"][0]["alpha"]

    path = write_doc(tmp_path, "E1", mutate=duplicate)
    assert main(["decompose", path, "--no-certificates"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: roster[1]: repeats the roster object 'plus'\n"


def _sign_twice(text):
    trivial = {"dim": 1, "matrices": {"e": [["1"]], "s": [["1"]]}}
    return text.replace('"sign": ', f'"sign": {json.dumps(trivial)}, "sign": ', 1)


def _unit_coefficient_twice(text):
    return text.replace('"units": {"pt": {"1": "1"}}', '"units": {"pt": {"1": "1", "1": "2"}}')


def _plus_twice(text):
    doc = json.loads(text)
    doc["roster"].append({**doc["roster"][0], "name": "plus2"})
    return json.dumps(doc)


# E1's text with a repeat that used to be read without an error: (mutation, error)
SILENT_REPEATS = {
    "representation": (_sign_twice, "document: repeats the key 'sign' of a JSON object"),
    "coefficient": (_unit_coefficient_twice, "document: repeats the key '1' of a JSON object"),
    "roster-object": (_plus_twice, "roster[2]: repeats the roster object 'plus'"),
}


@pytest.mark.parametrize("command", ["validate", "hh", "decompose"])
@pytest.mark.parametrize("repeat", list(SILENT_REPEATS))
def test_a_repeat_once_read_silently_is_an_input_error(tmp_path, capsys, command, repeat):
    """JSON keeps the last value of a repeated object key, so E1 with a
    trivial "sign" representation ahead of the real one decomposed with
    exit 0; and the roster merged plus2, a copy of plus, into plus without
    a word."""
    mutate, error = SILENT_REPEATS[repeat]
    text = json.dumps(serialize_bundle(get_example("E1")))
    path = tmp_path / "e1.json"
    path.write_text(mutate(text))
    assert path.read_text() != text
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {error}\n"


def _case(key, value, location=None):
    def mutate(doc):
        doc[key] = value

    return pytest.param(mutate, location or key, id=f"{key}={json.dumps(value)}")


def _nested_case(path, value, location):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return pytest.param(mutate, location, id=f"{'.'.join(map(str, path))}={json.dumps(value)}")


MALFORMED = [
    pytest.param(lambda doc: doc.pop("action"), "roster[0]", id="roster-without-action"),
    *[_case(key, value) for key in ("action", "group", "params") for value in (1, None, "x", [])],
    _case("representations", 1),
    _case("representations", "x"),
    *[_case(key, value) for key in ("covering", "generators", "roster") for value in (1, None)],
    _case("covering", ["x"]),
    _case("roster", [], location="covering"),
    _case("generators", "x"),
    _case("generators", ["x"]),
    _nested_case(("params", "degrees"), 1, "params.degrees"),
    _nested_case(("params", "degrees"), [0, -3], "params.degrees"),
    _nested_case(("params", "bar_cap"), -1, "params.bar_cap"),
    _nested_case(("group", "elements"), 1, "group.elements"),
    pytest.param(lambda doc: doc["roster"].insert(0, 1), "roster[0]", id="roster[0]=1"),
    _nested_case(("representations", "x"), 1, "representations[x]"),
    _nested_case(("group", "table"), 1, "group.table"),
    _nested_case(("action", "functors"), 1, "action.functors"),
    _nested_case(("roster", 0, "alpha"), 1, "roster[0].alpha"),
    _nested_case(("representations", "regular", "matrices"), 1, "representations[regular].matrices"),
    _nested_case(("category", "objects"), 1, "category.objects"),
    _nested_case(("category", "homs"), 1, "category.homs"),
    _nested_case(("category", "homs", 0), 1, "category.homs[0]"),
    *[_nested_case(("params", "bar_cap"), value, "params.bar_cap") for value in ("x", 1.5, True)],
    _nested_case(("group", "table", "e"), 1, "group.table[e]"),
    _nested_case(("representations", "regular", "matrices", "s"), 1, "representations[regular].matrices[s]"),
    _nested_case(("representations", "regular", "dim"), "x", "representations[regular].dim"),
    _nested_case(("representations", "regular", "dim"), 1, "representations[regular].matrices[e]"),
    *[
        case
        for value in (1, "x")
        for case in (
            _nested_case(("roster", 0, "alpha", "s"), value, "roster[0].alpha[s]"),
            _nested_case(("category", "homs", 0, "basis"), value, "category.homs[0].basis"),
            _nested_case(("category", "units"), value, "category.units"),
            _nested_case(("category", "compositions"), value, "category.compositions"),
            _nested_case(("action", "functors", "s"), value, "action.functors[s]"),
        )
    ],
    _nested_case(("category", "homs", 0, "basis", 0, "degree"), "x", "category.homs[0].basis[0].degree"),
    _nested_case(("category", "homs", 0, "differential"), 1, "category.homs[0].differential"),
    _nested_case(("category", "units", "pt"), 1, "category.units"),
    _nested_case(("roster", 0, "objects"), 1, "roster[0].objects"),
    _nested_case(("roster", 0, "alpha", "s", 0), 1, "roster[0].alpha[s][0]"),
    _nested_case(("roster", 0, "alpha", "s", 0, 0), 1, "roster[0].alpha[s][0][0]"),
    _nested_case(("roster", 0, "alpha", "s", 0, 0, "1"), 1, "roster[0].alpha[s][0][0]"),
    _nested_case(("representations", "regular", "matrices", "s", 0), "x", "representations[regular].matrices[s]"),
    # well-formed JSON whose content is not in the document's field or not a group
    _nested_case(("roster", 0, "alpha", "s", 0, 0, "1"), "cyc3:1,0", "roster[0].alpha[s][0][0]"),
    _nested_case(("group", "table", "s", "s"), "s", "group.table"),
    _nested_case(("representations", "regular", "matrices", "e", 0, 0), "0", "representations[regular]"),
    _nested_case(("representations", "regular", "matrices", "s", 0, 0), "2", "representations[regular]"),
    # names that are not strings cannot key the tables
    _nested_case(("category", "homs", 0, "basis", 0, "label"), [], "category.homs[0].basis[0].label"),
    _nested_case(("group", "elements", 0), {}, "group.elements"),
    _nested_case(("group", "table", "s", "s"), [], "group.table"),
    _nested_case(("action", "theta"), [{"g": [], "g2": "s"}], "action.theta[0]"),
    _nested_case(("action", "eta"), {"components": 1}, "action.eta.components"),
]


@pytest.mark.parametrize("command", ["validate", "hh", "decompose"])
def test_composite_of_the_wrong_degree_is_input_error(tmp_path, capsys, command):
    """E3 with g moved to degree -1: the table's g∘g = 1 has degree 0, not
    -2.  Every command rejects the document where it is read; hh used to
    fail inside the window (exit 1, no report)."""

    def shift_g(doc):
        doc["category"]["homs"][0]["basis"][1]["degree"] = -1

    path = write_doc(tmp_path, "E3", mutate=shift_g)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert "input error: category.compositions[0]: 'g'∘'g' has degree -2, but '1' has degree 0" in err


@pytest.mark.parametrize("mutate, location", MALFORMED)
def test_malformed_blocks_are_input_errors(tmp_path, capsys, mutate, location):
    path = write_doc(tmp_path, "E1", mutate=mutate)
    assert main(["decompose", path]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"{location}:" in err
    assert "Traceback" not in err


def _cyclotomic_unit(value):
    """E1 over Q(zeta_3) with the unit's coefficient replaced by ``value``."""

    def mutate(doc):
        doc["field"] = {"cyclotomic": 3}
        doc["category"]["units"]["pt"] = {"1": value}

    return pytest.param(mutate, "category.units", id=f"cyc3-unit={value}")


def _roster_name(value):
    """E1 with its last roster entry, which nothing covers, named ``value``."""

    def mutate(doc):
        doc.pop("covering")
        doc["roster"][-1]["name"] = value

    return pytest.param(mutate, "roster[1].name", id=f"roster-name={json.dumps(value)}")


# fields, scalars and names that used to exit 4, or to be read as something else
MISREAD = [
    *[
        _case("field", value)
        for value in (
            {"cyclotomic": 0}, {"cyclotomic": -2}, {"cyclotomic": None}, {"cyclotomic": True},
            {"cyclotomic": 1.5}, "cyc:x", "cyc:-1", "cyc:0",
        )
    ],
    *[_cyclotomic_unit(value) for value in ("cyc3:x", "cyc3:1/0", "1/0")],
    *[_roster_name(value) for value in (["a"], {"x": 1}, 5, "")],
    _case("name", ["E1"]),
    _case("name", ""),
    _nested_case(("group", "name"), ["Z/2"], "group.name"),
]


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("mutate, location", MISREAD)
def test_malformed_fields_scalars_and_names_are_located_input_errors(
    tmp_path, capsys, command, mutate, location
):
    path = write_doc(tmp_path, "E1", mutate=mutate)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert f"input error: {location}:" in err
    assert "internal error" not in err


def _repeat(path, index=-1):
    """A mutation appending a copy of entry ``index`` of the list at
    ``path`` (keys from the document's root)."""

    def mutate(doc):
        entries = doc
        for step in path:
            entries = entries[step]
        entries.append(json.loads(json.dumps(entries[index])))

    return mutate


def _theta_twice(doc):
    unit = {"x1": {"1": "1"}, "x2": {"1": "1"}}
    doc["action"]["theta"] = [{"g": "s", "g2": "s", "components": unit} for _ in range(2)]


def _differential_twice(doc):
    doc["category"]["homs"][0]["differential"] = [{"from": "g", "image": {}} for _ in range(2)]


def _two_rosters_named_plus(doc):
    doc.pop("covering")
    doc["roster"][1]["name"] = "plus"


def _empty_g_squared(doc):
    doc["category"]["compositions"].append({**doc["category"]["compositions"][0], "result": {}})


# a repeated key in a keyed list: (example, command, mutation, the repeat's location)
REPEATED = [
    ("E3", "hh", lambda doc: doc["category"]["objects"].append("pt"), "category.objects[1]"),
    ("E3", "hh", _empty_g_squared, "category.compositions[1]"),
    ("E3", "hh", _repeat(("category", "homs")), "category.homs[1]"),
    ("E3", "hh", _repeat(("category", "homs", 0, "basis"), 0), "category.homs[0].basis[2]"),
    ("E3", "hh", _differential_twice, "category.homs[0].differential[1]"),
    ("E2", "validate", _theta_twice, "action.theta[1]"),
    ("E2", "validate", _repeat(("action", "functors", "s", "morphisms"), 0), "action.functors[s].morphisms[2]"),
    ("E2", "validate", _repeat(("group", "elements")), "group.elements[2]"),
    ("E2", "decompose", _repeat(("generators",), 0), "generators[2]"),
    ("E1", "decompose", _two_rosters_named_plus, "roster[1].name"),
    ("E1", "decompose", _repeat(("covering",), 0), "covering[2]"),
]


@pytest.mark.parametrize("name, command, mutate, location", REPEATED, ids=[r[3] for r in REPEATED])
def test_a_repeated_key_is_an_input_error_at_the_repeat(tmp_path, capsys, name, command, mutate, location):
    """An entry whose key repeats an earlier one's used to replace or
    duplicate it silently: E3 with objects ["pt", "pt"] printed hh dims
    14, 6, 4 and exited 0."""
    path = write_doc(tmp_path, name, mutate=mutate)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {location}: repeats ")


@pytest.mark.parametrize("name", ["E1", "E3", "E5"])
def test_hh_over_a_cyclotomic_field(tmp_path, capsys, name):
    """A bundled document re-declared over Q(zeta_3) has the HH dims it has
    over Q; hh used to fail inverting the document's rational unit."""
    dims = {}
    for field in ("q", {"cyclotomic": 3}):
        path = write_doc(tmp_path, name, mutate=lambda doc: doc.update(field=field))
        assert main(["hh", "--output", "json", path]) == 0
        dims[json.dumps(field)] = json.loads(capsys.readouterr().out)["dims"]
    assert dims['"q"'] == dims['{"cyclotomic": 3}']


def test_decompose_over_a_cyclotomic_field(tmp_path, capsys):
    """E7: Z/3 acting trivially on the point over Q(zeta_3).  Each class
    summand is one-dimensional, and chi_k acts on the class of r_j by
    zeta^{kj}.  The pipeline used to merge chi1⊗chi2 into chi0 and then
    miss it, as the Cyc 1 hashed unlike the document's int 1."""
    path = tmp_path / "e7.json"
    path.write_text(json.dumps(cyclotomic_z3_document()))
    assert main(["decompose", str(path), "--degrees=0..0", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theorem_holds"]
    assert report["equivariant_dims"] == {"0": 3}
    classes = {c["representative"]: c["invariant_dims"] for c in report["classes"]}
    assert classes == {g: {"0": 1} for g in ("e", "r1", "r2")}
    reps = report["representation_checks"]
    assert sorted(reps) == ["chi0", "chi1", "chi2", "regular"]
    assert all(check["passed"] for check in reps.values())
    assert reps["chi1"]["character"] == {"e": "cyc3:1,0", "r1": "cyc3:0,1", "r2": "cyc3:-1,-1"}


@pytest.mark.parametrize(
    "torsion, dims", [(True, [1, 0, 0, 0]), (False, [1, 1, 1, 1])], ids=["omega", "trivial"]
)
def test_decompose_with_discrete_torsion(tmp_path, capsys, torsion, dims):
    """E6: the Klein four group on the point with theta = omega·id,
    omega(g, h) = (-1)^{g1·h2}.  The Pauli object is the one irreducible
    omega-projective representation, and only the identity class is
    omega-regular: each class g ≠ e is killed by its centralizer character
    omega(g, h)/omega(h, g), so HH_0(C^G) is 1-dimensional (Karpilovsky,
    Projective Representations of Finite Groups, 1985).  With omega
    trivial and the four characters as the roster, every class gives 1."""
    path = tmp_path / "e6.json"
    path.write_text(json.dumps(discrete_torsion_document(torsion)))
    assert main(["decompose", str(path), "--degrees=0..0", "--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theorem_holds"]
    assert report["equivariant_dims"] == {"0": sum(dims)}
    classes = {c["representative"]: c["invariant_dims"]["0"] for c in report["classes"]}
    assert classes == dict(zip("eabc", dims))
    reps = report["representation_checks"]
    assert sorted(reps) == ["chi", "regular"]
    assert all(check["passed"] for check in reps.values())


@pytest.mark.parametrize(
    "exc", [RuntimeError("boom"), MemoryError("out of memory")], ids=lambda e: type(e).__name__
)
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, exc):
    """An exception that is no EquihhError exits 4 with one line and no
    traceback; exit 1 stays reserved for a failed check."""
    import equihh.cli as cli

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", raise_it)
    path = write_doc(tmp_path, "E1")
    assert main(["validate", path]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_hh_with_a_broken_unit_is_an_input_error(tmp_path, capsys):
    # g1 is not a unit of k[Z/6]; the normalized window checks the unit laws
    from tests_support import cyclic_group_document

    doc = cyclic_group_document(11)
    doc["category"]["units"]["pt"] = {"g1": "1"}
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(doc))
    assert main(["hh", str(path), "--degrees=-1..0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: unit law fails: ")
    assert "pt->pt" in captured.err and captured.err.count("\n") == 1


def _drop_last_morphism(doc):
    doc["action"]["functors"]["s"]["morphisms"].pop()


def _unknown_morphism_source(doc):
    doc["action"]["functors"]["s"]["morphisms"][0]["source"] = []


def _collapse_objects(doc):
    doc["action"]["functors"]["s"]["objects"]["x1"] = "x1"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop_last_morphism, "action.functors[s].morphisms: no image of "),
        (_unknown_morphism_source, "action.functors[s].morphisms[0]: morphism between unknown"),
        (_collapse_objects, "action.theta: theta[s,s] is not an identity at 'x2'"),
    ],
    ids=["missing-image", "unknown-source", "theta-not-identity"],
)
def test_malformed_functors_are_input_errors(tmp_path, capsys, mutate, message):
    path = write_doc(tmp_path, "E2", mutate=mutate)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


@pytest.mark.parametrize(
    "command, option",
    [
        ("hh", "--degrees=0..-3"),
        ("kunneth", "--degrees=0..-1"),
        ("decompose", "--degrees=1..0"),
        *[(command, "--bar-cap=-1") for command in ("hh", "kunneth", "decompose")],
    ],
)
def test_reversed_degrees_and_negative_caps_are_input_errors(tmp_path, capsys, command, option):
    path = write_doc(tmp_path, "E1")
    assert main([command, path, option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {option.split('=')[0]}: ")


def test_window_chain_budget_exits_truncated(tmp_path, capsys, monkeypatch):
    import equihh.hochschild as hochschild

    monkeypatch.setattr(hochschild, "WINDOW_CHAIN_BUDGET", 0)
    path = write_doc(tmp_path, "E1")
    for command in ("hh", "kunneth", "decompose"):
        assert main([command, path, "--allow-truncated"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has more than 0 chains" in captured.err and "Traceback" not in captured.err
        assert captured.err.startswith("truncation: ")


def test_validate_takes_no_window_options(tmp_path, capsys):
    path = write_doc(tmp_path, "E1")
    with pytest.raises(SystemExit) as exc:
        main(["validate", path, "--bar-cap=-1", "--degrees=5..9"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["validate", path]) == 0
