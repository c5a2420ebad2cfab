"""``bench/crosscheck.py`` compares brute force and the described generators
with the family formula on every family node through a step, and brute
force with closed-form orders on random products, in process; it counts a
method cut off by its budget as skipped, and exits 1 when they disagree. No
test here reads a timing."""

from __future__ import annotations

import json

import polyprod.cli
from polyprod.errors import ClosureBudgetExceeded, SearchBudgetExceeded

from conftest import crosscheck_module


def test_crosscheck_agrees_through_step_3(capsys):
    assert crosscheck_module().main(["--steps", "3"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["steps"], report["nodes"], report["disagreements"]) == (3, 15, [])
    assert report["skipped"] == {"brute": [], "generators": []}
    assert report["brute_s"] > 0 and report["generators_s"] > 0 and report["slowest"]["path"]


def test_crosscheck_exits_1_on_a_disagreement(monkeypatch, capsys):
    """Brute force made to miscount the triangular prism, (I * pt) x I."""
    aut_order = polyprod.cli.aut_order

    def miscounting(P, max_elements):
        return aut_order(P, max_elements=max_elements) + (len(P) == 22)

    monkeypatch.setattr(polyprod.cli, "aut_order", miscounting)
    assert crosscheck_module().main(["--steps", "2"]) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["nodes"] == 7
    assert report["disagreements"] == [
        {"path": "*pt,xI", "formula": "order: 12", "brute": "order: 13"}
    ]


def test_crosscheck_skips_a_method_over_its_budget(monkeypatch, capsys):
    """Closure made to pass its cap on the triangular prism, (I * pt) x I:
    generators exits 4 there, which is a skip, not a disagreement."""
    closure = polyprod.cli.closure

    def capped(gens, P, max_size):
        if len(P) == 22:
            raise ClosureBudgetExceeded(f"closure exceeds the cap of {max_size}")
        return closure(gens, P, max_size=max_size)

    monkeypatch.setattr(polyprod.cli, "closure", capped)
    assert crosscheck_module().main(["--steps", "2"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["nodes"], report["disagreements"]) == (7, [])
    assert report["skipped"] == {"brute": [], "generators": ["*pt,xI"]}


def test_crosscheck_agrees_on_random_products(capsys):
    assert crosscheck_module().main(["--steps", "0", "--random", "20"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["nodes"], report["disagreements"]) == (1, [])
    drawn = report["random"]
    assert (drawn["cases"], drawn["seed"], drawn["disagreements"], drawn["skipped"]) == (
        20, 1, [], []
    )
    assert drawn["brute_s"] > 0 and drawn["slowest"]["text"]


def test_crosscheck_exits_1_on_a_random_disagreement(monkeypatch, capsys):
    """Among the 20 products drawn from seed 1, brute force made to miscount
    the one of 46 faces, (pt*pt)x(pt*(pt*I)), and to pass its budget on the
    one of 212, which is a skip."""
    aut_order = polyprod.cli.aut_order

    def miscounting(P, max_elements):
        if len(P) == 212:
            raise SearchBudgetExceeded("search passes its cap")
        return aut_order(P, max_elements=max_elements) + (len(P) == 46)

    monkeypatch.setattr(polyprod.cli, "aut_order", miscounting)
    assert crosscheck_module().main(["--steps", "0", "--random", "20"]) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["disagreements"] == []
    assert report["random"]["disagreements"] == [
        {"text": "(pt*pt)x(pt*(pt*I))", "expected": "order: 48", "brute": "order: 49"}
    ]
    assert report["random"]["skipped"] == ["(pt*((I*I)x(pt*I)))xpt"]
