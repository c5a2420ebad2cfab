"""``bench/ab.py`` times two source trees on one benchmark workload,
interleaved pass by pass, and reports a tree whose answers fail the
benchmark's check. No test here reads a timing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(tmp_path):
    trees = tmp_path / "base", tmp_path / "new"
    for tree in trees:
        shutil.copytree(ROOT / "src", tree, ignore=shutil.ignore_patterns("__pycache__"))
    return trees


def _ab(base, new):
    argv = [sys.executable, str(ROOT / "bench" / "ab.py"), str(base), str(new),
            "--workload", "symmetry", "--seed", "1", "--passes", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_ab_reports_each_tree_and_the_ratios(tmp_path):
    base, new = _trees(tmp_path)
    rc, report = _ab(base, new)
    assert rc == 0 and report["correct"] is True
    assert (report["workload"], report["seed"], report["passes"]) == ("symmetry", 1, 2)
    assert report["queries"] >= 100
    metrics = ("wall_s", "query_p50_ms", "query_p90_ms")
    assert set(report["ratios"]) == set(metrics)
    for side, tree in (("base", base), ("new", new)):
        r = report["trees"][side]
        assert r["src"] == str(tree) and r["failed"] == 0 and r["failures"] == []
        assert all(r[m] > 0 for m in metrics)
        assert r["query_p50_ms"] <= r["query_p90_ms"] <= r["wall_s"] * 1000
    for m in metrics:
        assert report["ratios"][m] == report["trees"]["new"][m] / report["trees"]["base"][m]


def test_ab_applies_the_acceptance_rule_pass_by_pass(tmp_path):
    """For each metric the report gives the share of passes NEW won, each
    tree's median over the passes and BASE's interquartile range, and
    ``gain`` is the rule read off those figures."""
    rc, report = _ab(*_trees(tmp_path))
    assert rc == 0
    assert set(report["acceptance"]) == {"wall_s", "query_p50_ms", "query_p90_ms"}
    for a in report["acceptance"].values():
        assert set(a) == {"new_won", "base_median", "new_median", "base_iqr", "gain", "interval"}
        assert a["new_won"] in (0, 0.5, 1)  # two passes; a tie counts for neither
        assert a["base_median"] > 0 and a["new_median"] > 0 and a["base_iqr"] >= 0
        rule = a["new_won"] >= 0.9 and a["base_median"] - a["new_median"] > a["base_iqr"]
        assert a["gain"] is rule
        assert 0 < a["interval"][0] <= a["interval"][1]


def test_bootstrap_interval_on_fixed_lists():
    """The interval of a ratio is seeded: equal lists give exactly 1, a
    tree twice as slow on every pass exactly 2, and a repeated call the
    same bounds, with the ratio of the medians between them."""
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})",
        "from ab import bootstrap_interval",
        "base = [10.0, 12.0, 11.0, 9.5, 13.0, 10.5, 11.5]",
        "new = [9.0, 12.5, 10.0, 9.0, 11.0, 10.0, 14.0]",
        "pairs = [(base, base), (new, new), (base, [2 * x for x in base]), (base, new), (base, new)]",
        "print(json.dumps([bootstrap_interval(b, n) for b, n in pairs]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=600, check=True)
    same, same_new, doubled, first, second = json.loads(proc.stdout)
    assert same == same_new == [1.0, 1.0]
    assert doubled == [2.0, 2.0]
    assert first == second
    lo, hi = first
    assert lo <= 10.0 / 11.0 <= hi and lo < hi


def test_ab_reports_a_tree_with_wrong_answers_as_failing(tmp_path):
    base, new = _trees(tmp_path)
    with open(new / "polyprod" / "cli.py", "a") as fh:
        fh.write("\n\n_main = main\n\n\ndef main(argv=None):\n    _main(argv)\n    return 9\n")
    rc, report = _ab(base, new)
    assert rc == 1 and report["correct"] is False
    assert report["trees"]["base"]["failed"] == 0
    assert report["trees"]["new"]["failed"] == 2 * report["queries"]
    assert report["trees"]["new"]["failures"][0].endswith("exit code 9, expected 0")
