import json

import pytest

from equihh.cli import main
from equihh.documents import canonical_json, serialize_bundle
from equihh.examples import get_example


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
