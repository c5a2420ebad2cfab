"""Self-test of the benchmark's reference checker.

    python3 perfbench/selftest.py

For one query of every kind it takes polyprod's real answer and checks
three things: the answer passes; the answer with one fact changed is
flagged; the answer against a reference with one fact changed is flagged.
Exits 1 and names the case if any of them does not hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import shapes  # noqa: E402
from check import Query, check, decompose_expect, family_expect, lattice_expect  # noqa: E402
from polyprod import cli  # noqa: E402


def answer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _drop_element(text):
    data = json.loads(text)
    data["elements"].pop()
    return json.dumps(data)


def _drop_failures(text):
    data = json.loads(text)
    data["failures"] = []
    return json.dumps(data)


def _double_order(text):
    data = json.loads(text)
    data[-1]["order"] *= 2
    return json.dumps(data)


def cases(workdir):
    """(query, perturbed answer, perturbed reference) for every query kind."""
    cube = shapes.cube(3)
    prism = shapes.family(("*pt", "xI"))
    pyramid = shapes.join(shapes.cube(2), shapes.PT)

    mutant = os.path.join(workdir, "mutant.json")
    answer(["build", cube.text, "-o", mutant])
    with open(mutant) as fh:
        data = json.load(fh)
    deleted = next(c for c in data["covers"] if c[1] == cube_top(data))
    data["covers"].remove(deleted)
    with open(mutant, "w") as fh:
        json.dump(data, fh)

    def expect(q, **change):
        q2 = copy.deepcopy(q)
        q2.expect.update(change)
        return q2

    q = Query("aut-brute", ["aut", cube.text, "--method", "brute"], cube.text, {"order": cube.order})
    yield q, lambda t: t.replace("order: 48", "order: 47"), expect(q, order=47)
    q = Query("aut-generators", ["aut", prism.text, "--method", "generators"], prism.text,
              {"order": prism.order})
    yield q, lambda t: t.replace("order: 12", "order: 24"), expect(q, order=6)
    q = Query("build-json", ["build", cube.text], cube.text, lattice_expect(cube))
    yield q, _drop_element, expect(q, covers=cube.covers + 1)
    q = Query("build-dot", ["build", cube.text, "--out", "dot"], cube.text, lattice_expect(cube))
    yield q, lambda t: t.replace(" -> ", " - ", 1), expect(q, faces=cube.faces - 1)
    q = Query("verify", ["verify", pyramid.text], pyramid.text, {"valid": True})
    yield q, lambda t: t.replace("true", "false"), expect(q, valid=False, deleted=[["0", "1"]])
    q = Query("verify-mutant", ["verify", "--json", mutant], mutant,
              {"valid": False, "deleted": [deleted]})
    yield q, _drop_failures, expect(q, valid=True)
    q = Query("decompose-pyramid", ["decompose", pyramid.text, "--as", "pyramid"], pyramid.text,
              decompose_expect(pyramid, "pyramid"))
    yield q, lambda t: "none\n", expect(q, cofactor_faces=pyramid.faces // 2 + 1)
    q = Query("decompose-prism", ["decompose", pyramid.text, "--as", "prism"], pyramid.text,
              decompose_expect(pyramid, "prism"))
    yield q, lambda t: answer(["build", "IxI"])[1], expect(q, cofactor_faces=10)
    q = Query("family", ["family", "--steps", "3", "--json"], "family 3", family_expect(3))
    yield q, _double_order, expect(q, orders={**q.expect["orders"], "*pt,*pt,*pt": 1})


def cube_top(data):
    top = max(e["rank"] for e in data["elements"])
    return next(e["id"] for e in data["elements"] if e["rank"] == top)


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for q, perturb, wrong_reference in cases(workdir):
            rc, text = answer(q.argv)
            problems = []
            if check(q, rc, text) is not None:
                problems.append(f"true answer flagged: {check(q, rc, text)}")
            if check(q, rc, perturb(text)) is None:
                problems.append("perturbed answer passed")
            if check(wrong_reference, rc, text) is None:
                problems.append("perturbed reference passed")
            print(f"{q.kind:18s} {'; '.join(problems) or 'ok'}")
            failed += problems
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
