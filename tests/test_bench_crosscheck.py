"""``bench/crosscheck.py`` compares brute force and the described generators
with the family formula on every family node through a step, in process,
counts a method cut off by its budget as skipped, and exits 1 when they
disagree. No test here reads a timing."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import polyprod.cli
from polyprod.errors import ClosureBudgetExceeded

ROOT = Path(__file__).resolve().parent.parent


def _crosscheck():
    spec = importlib.util.spec_from_file_location("crosscheck", ROOT / "bench" / "crosscheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crosscheck_agrees_through_step_3(capsys):
    assert _crosscheck().main(["--steps", "3"]) == 0
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
    assert _crosscheck().main(["--steps", "2"]) == 1
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
    assert _crosscheck().main(["--steps", "2"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["nodes"], report["disagreements"]) == (7, [])
    assert report["skipped"] == {"brute": [], "generators": ["*pt,xI"]}
