import contextlib
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyprod as pp
import polyprod.poset as poset
import polyprod.verify as verify
from polyprod.cli import _build_parser, main
from polyprod.expr import eval_expr, parse_expr

DATA = Path(__file__).parent / "data"
WORKED_EXAMPLE = "((I*pt)x(I^x3))*(pt^*2)"


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
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),  # too deep to decode
        (json.dumps({"elements": _ELEMENTS, "covers": ["0a"]}), "pairs of element ids"),
        (json.dumps({"elements": _ELEMENTS, "covers": [["0", "a", "0"]]}), "pairs of element ids"),
    ],
    ids=["not-json", "no-covers", "no-rank", "rank-not-integer", "too-deep", "string-cover",
         "triple-cover"],
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


# fuzzed --json files: junk (scalars, short lists and dicts), and near-posets
# with missing fields, ids that collide (1, 1.0 and true are equal keys),
# ranks that are bools, floats or huge, and covers that are not always pairs

_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
_junk = (
    _scalars
    | st.lists(_scalars, max_size=3)
    | st.dictionaries(st.text(max_size=2), _scalars, max_size=2)
)
_ids = st.sampled_from(["0", "a", "b", "1", 0, 1, 1.0, True, False, -0.0])
_ranks = st.sampled_from([-1, 0, 1, 2, 10**30, -(10**30), True, 0.5, "0", None])
_elements = st.lists(
    st.fixed_dictionaries({}, optional={"id": _ids, "rank": _ranks}) | _junk, max_size=8
)
_covers = st.lists(
    st.lists(_ids, min_size=2, max_size=2) | st.lists(_ids, max_size=3) | _junk, max_size=10
)
_near_posets = st.fixed_dictionaries(
    {}, optional={"rank": _ranks, "elements": _elements | _junk, "covers": _covers | _junk}
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_near_posets | _junk)
def test_verify_json_fuzz_never_raises(data):
    """Whatever JSON the file holds, verify --json answers with exit 0 or 1
    and a report, or exit 2 and a parse error."""
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / "fuzz.json"
        f.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--json", str(f)])
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("parse error: ")
    else:
        assert rc in (0, 1)
        assert "is_polytope" in json.loads(out.getvalue())


def test_build_golden_json_and_dot(capsys):
    """Byte-exact build output for the triangular prism, recorded before
    faces became indices."""
    assert main(["build", "(I*pt)xI"]) == 0
    assert capsys.readouterr().out == (DATA / "tri_prism.json").read_text()
    assert main(["build", "(I*pt)xI", "--out", "dot"]) == 0
    assert capsys.readouterr().out == (DATA / "tri_prism.dot").read_text()


def test_build_golden_worked_example(capsys):
    assert main(["build", WORKED_EXAMPLE]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "16a6dc2dd5be548afd0b8c49115304706f42789bbe5daa505115a0deaa098366"


# name in tests/data, expression, covers deleted (0: verify the expression)
GOLDEN_VERIFY = [
    ("verify_cube4", "I^x4", 0),
    ("verify_simplex6", "pt^*6", 0),
    ("verify_worked", WORKED_EXAMPLE, 0),
    ("verify_cube4_minus3", "I^x4", 3),
    ("verify_cube4_minus40", "I^x4", 40),
    ("verify_worked_minus3", WORKED_EXAMPLE, 3),
    ("verify_worked_minus40", WORKED_EXAMPLE, 40),
]


def _mutant_json(expr, deletions):
    """The face lattice of ``expr`` as ``build`` writes it, less
    ``deletions`` covers drawn by ``random.Random(deletions)``."""
    data = poset.to_json(eval_expr(parse_expr(expr)))
    deleted = random.Random(deletions).sample(data["covers"], deletions)
    data["covers"] = [c for c in data["covers"] if c not in deleted]
    return data


@pytest.mark.parametrize(
    "name, expr, deletions", GOLDEN_VERIFY, ids=[g[0] for g in GOLDEN_VERIFY]
)
def test_verify_golden_reports(tmp_path, capsys, name, expr, deletions):
    """Byte-exact verify reports, recorded before the connectivity check
    became the lower-cover test: a verifier change may not reorder or
    recount violations unnoticed."""
    if deletions:
        f = tmp_path / "mutant.json"
        f.write_text(json.dumps(_mutant_json(expr, deletions)))
        argv = ["verify", "--json", str(f)]
    else:
        argv = ["verify", expr]
    assert main(argv) == (1 if deletions else 0)
    assert capsys.readouterr().out == (DATA / f"{name}.json").read_text()


def test_aut_formula(capsys):
    assert main(["aut", WORKED_EXAMPLE, "--method", "formula"]) == 0
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


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["build", "I^x3"], 0),
        (["aut", "(I*pt)xI", "--method", "brute"], 0),
        (["decompose", "(I*pt)xI", "--as", "prism"], 0),
        (["verify", "(I*pt)xI"], 1),
    ],
    ids=["build", "aut-brute", "decompose", "verify"],
)
def test_only_verify_runs_the_verifier(monkeypatch, capsys, argv, runs):
    """build, aut and decompose do not verify the products they build;
    verify EXPR runs the checker once. Each run of the checker makes one
    walk over the intervals of rank difference 2."""
    walks = []
    intervals = verify._intervals

    def counting(P, gaps):
        if 2 in gaps:
            walks.append(P)
        return intervals(P, gaps)

    monkeypatch.setattr(verify, "_intervals", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(walks) == runs


def test_exit_code_closure_budget(capsys):
    assert main(["--max-closure", "10", "aut", "I^x3", "--method", "generators"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exceeded: closure exceeds the cap of 10\n"


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


def test_family_negative_steps(capsys):
    assert main(["family", "--steps", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: --steps must be >= 0, got -1\n"


def test_build_to_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["build", "I^x2", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


# repeated in-process calls: each prints what a fresh process prints


def _fresh(argv):
    """(exit code, stdout, stderr) of a new interpreter running polyprod."""
    src = Path(pp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, "-c", "from polyprod.cli import entry; entry()", *argv],
        capture_output=True, env=env, check=False,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "steps",
    [
        ([["--max-elements", "5", "build", "I^x3"], 4], [["build", "I^x3"], 0]),
        ([["aut", "I^x2", "--method", "brute"], 0], [["aut", "I^x2"], 0]),
        ([["decompose", "I"], 2], [["aut", "pt^*3"], 0]),
    ],
    ids=["budget-then-default", "brute-then-formula", "usage-error-then-query"],
)
def test_repeated_main_calls_match_fresh_processes(steps):
    """Consecutive main calls in one process share only the parser: no
    option, method or error state carries over from one call to the next."""
    for argv, code in steps:
        result = _in_process(argv)
        assert result[0] == code
        assert result == _fresh(argv)
    assert _build_parser() is _build_parser()


_DEEP_PARENS = "(" * 1000 + "pt" + ")" * 1000
_LONG_CHAIN = " x ".join(["pt"] * 1500)
_LONG_PRISM_CHAIN = "I" + "xI" * 1500


@pytest.mark.parametrize(
    "argv, at",
    [
        (["build", _DEEP_PARENS], 200),
        (["build", _LONG_CHAIN], _LONG_CHAIN.index("x") + 5 * 200),
        (["aut", _LONG_PRISM_CHAIN], 1 + 2 * 200),
    ],
    ids=["parentheses", "left-deep-chain", "aut-prism-chain"],
)
def test_too_deep_expression_is_a_parse_error(capsys, argv, at):
    """Nesting past MAX_DEPTH (200) exits 2 with one parse error line, at the
    parenthesis or operator that passes it, instead of a RecursionError."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse error: expression nests deeper than 200 levels (at position {at})\n"
    )


@pytest.mark.parametrize(
    "text", ["(" * 200 + "pt" + ")" * 200, " x ".join(["pt"] * 201)], ids=["parens", "chain"]
)
def test_expression_at_the_depth_limit_builds(capsys, text):
    assert main(["build", text]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 0


@pytest.mark.parametrize(
    "argv, count",
    [
        (["--max-elements", "1000", "build", "I^x8"], "6562"),
        (["build", "pt^*14000"], str(2**14000)),
        (["build", "pt^*20000"], "at least 10^4300"),
        (["build", "I^x100000"], "at least 10^4300"),
        (["aut", "(IxI)^x100000", "--method", "brute"], "at least 10^4300"),
    ],
    ids=["I^x8", "pt^*14000", "pt^*20000", "I^x100000", "aut-brute"],
)
def test_budget_exceeded_is_one_line(capsys, argv, count):
    """Sizes below 10^4300 are printed exactly, as before; larger ones end in
    the same one line instead of a ValueError from formatting the count."""
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget exceeded: expression yields {count} faces, above the cap of 1000\n"
    )


@pytest.mark.parametrize(
    "text, count", [("(ptxpt)^x32000", 32000), ("pt^x5000", 4999)], ids=["ptxpt", "pt"]
)
def test_product_count_budget(capsys, text, count):
    """A Cartesian power of a 2-face operand has 2 faces, so the face count
    never stops it; the number of products to build does."""
    assert main(["build", text]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget exceeded: expression takes {count} product constructions, "
        "above the cap of 1000\n"
    )
    assert main(["build", "pt^x1000"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 0


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_script_silently():
    """The output of pt^*9 (over 200 kB) outgrows a pipe's buffer, so the
    script is still writing when its reader goes away."""
    src = Path(pp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from polyprod.cli import entry; entry()", "build", "pt^*9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def test_exponent_with_too_many_digits_is_a_parse_error(capsys):
    assert main(["build", "pt^*" + "9" * 5000]) == 2
    assert capsys.readouterr().err == "parse error: exponent too large (at position 2)\n"
