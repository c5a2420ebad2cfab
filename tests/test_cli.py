import hashlib
import json
from pathlib import Path

import pytest

import polyprod as pp
import polyprod.poset as poset
from polyprod.cli import main

DATA = Path(__file__).parent / "data"


def test_build_json(capsys):
    assert main(["build", "I^x2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 2
    assert len(data["elements"]) == 10
    assert data["covers"] == sorted(data["covers"])


def test_build_dot(capsys):
    assert main(["build", "pt", "--out", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "square.json"
    assert main(["build", "I^x2", "-o", str(target)]) == 0
    data = json.loads(target.read_text())
    assert len(data["elements"]) == 10


def test_verify_expression(capsys):
    assert main(["verify", "I^x3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_polytope"] is True


def test_verify_json_file_invalid(tmp_path, capsys):
    broken = {
        "rank": 1,
        "elements": [{"id": "0", "rank": -1}, {"id": "v", "rank": 0}, {"id": "1", "rank": 1}],
        "covers": [["0", "v"], ["v", "1"]],
    }
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(broken))
    assert main(["verify", "--json", str(f)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["is_polytope"] is False


def test_verify_round_trip_file(tmp_path, capsys):
    square = poset.to_json(pp.cartesian(pp.edge(), pp.edge()))
    f = tmp_path / "square.json"
    f.write_text(json.dumps(square))
    assert main(["verify", "--json", str(f)]) == 0


# malformed --json files: unreadable input is a parse error (exit 2), a poset
# the constructor rejects is an invalid poset (exit 1), never a traceback

_ELEMENTS = [{"id": "0", "rank": -1}, {"id": "a", "rank": 0}]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rank": 0, "elements": [{"id": "0", "rank": -1}', "Expecting"),  # truncated
        (json.dumps({"elements": _ELEMENTS}), "missing field 'covers'"),
        (json.dumps({"elements": [{"id": "0"}], "covers": []}), "missing field 'rank'"),
        (json.dumps({"elements": [{"id": "0", "rank": "low"}], "covers": []}), "integers"),
    ],
    ids=["not-json", "no-covers", "no-rank", "rank-not-integer"],
)
def test_verify_json_file_unparsable(tmp_path, capsys, text, message):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["verify", "--json", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "elements, covers, error",
    [
        (_ELEMENTS, [["0", "a"], ["a", "0"]], "cover relation contains a cycle"),
        (_ELEMENTS, [["0", "x"]], "cover ('0', 'x') references unknown id"),
        (_ELEMENTS + [{"id": "a", "rank": 0}], [], "duplicate element id 'a'"),
        ([], [], "poset has no elements"),
    ],
    ids=["cycle", "dangling-cover", "duplicate-id", "empty"],
)
def test_verify_json_file_rejected_structure(tmp_path, capsys, elements, covers, error):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"rank": 0, "elements": elements, "covers": covers}))
    assert main(["verify", "--json", str(f)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"is_polytope": False, "failures": [{"check": "structure", "error": error}]}


def test_build_golden_json_and_dot(capsys):
    """Byte-exact build output for the triangular prism, recorded before
    faces became indices."""
    assert main(["build", "(I*pt)xI"]) == 0
    assert capsys.readouterr().out == (DATA / "tri_prism.json").read_text()
    assert main(["build", "(I*pt)xI", "--out", "dot"]) == 0
    assert capsys.readouterr().out == (DATA / "tri_prism.dot").read_text()


def test_build_golden_worked_example(capsys):
    assert main(["build", "((I*pt)x(I^x3))*(pt^*2)"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "16a6dc2dd5be548afd0b8c49115304706f42789bbe5daa505115a0deaa098366"


def test_aut_formula(capsys):
    assert main(["aut", "((I*pt)x(I^x3))*(pt^*2)", "--method", "formula"]) == 0
    out = capsys.readouterr().out
    assert "Sym(2) × Sym(3) × ((Z/2Z)^3 ⋊ Sym(3))" in out
    assert "order: 576" in out


def test_aut_brute(capsys):
    assert main(["aut", "I^x2", "--method", "brute"]) == 0
    assert "order: 8" in capsys.readouterr().out


def test_aut_generators(capsys):
    assert main(["aut", "I^x3", "--method", "generators"]) == 0
    assert "order: 48" in capsys.readouterr().out


def test_aut_default_formula_for_family(capsys):
    assert main(["aut", "I^x2"]) == 0
    out = capsys.readouterr().out
    assert "descriptor:" in out


def test_aut_default_brute_for_non_family(capsys):
    assert main(["aut", "pt^*3"]) == 0
    captured = capsys.readouterr()
    assert "order: 6" in captured.out
    assert "falling back" in captured.err


def test_exit_code_parse_error(capsys):
    assert main(["aut", "I*pt x pt"]) == 2


def test_exit_code_formula_on_non_family(capsys):
    assert main(["aut", "pt^*3", "--method", "formula"]) == 3


def test_exit_code_budget(capsys):
    assert main(["build", "I^x9"]) == 4


def test_exit_code_closure_budget(capsys):
    assert main(["--max-closure", "10", "aut", "I^x3", "--method", "generators"]) == 4
    assert capsys.readouterr().err == "budget exceeded: closure exceeds the cap of 10\n"


def test_decompose_pyramid(capsys):
    assert main(["decompose", "I*pt", "--as", "pyramid"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 1


def test_decompose_none(capsys):
    assert main(["decompose", "I^x2", "--as", "pyramid"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_family_listing(capsys):
    assert main(["family", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert "order=48" in lines[0]  # the 3-cube comes first


def test_family_json(capsys):
    assert main(["family", "--steps", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [n["order"] for n in data] == [8, 6]
