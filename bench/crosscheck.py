"""Brute-force and generator group orders against the family formula.

    python3 bench/crosscheck.py --steps N [--src SRC]

For every node of the inductive family through step N, as ``polyprod family
--steps k --json`` lists them for k = 0..N, the node's expression is spelt
step by step from the root edge: ``I``, then ``(...) x I`` or ``(...) * pt``
for each step of its path. ``polyprod.cli.main`` answers ``aut --method
formula``, and ``aut --method brute`` and ``aut --method generators`` with
``--max-elements 100000``, on it, in this process. Each method's ``order:``
line must agree with the formula's. A method that exits 4, its budget passed
(``I^x8``'s 10321920 elements pass the default closure cap of 10^6), is
skipped on that node, which counts neither as agreement nor as disagreement.
Any other command that fails has no such line and disagrees. SRC is a
directory that holds a ``polyprod`` package, by default the ``src`` of this
checkout.

The last line is JSON: the number of nodes, the disagreements (each node's
path, the formula's line and the line of each method that differs), the
paths each method skipped, the total time of each method's commands in
seconds and the slowest brute-force command. The exit code is 1 on any
disagreement, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BRUTE_CAP = 100_000
METHODS = ("brute", "generators")
_STEP_TEXT = {"xI": " x I", "*pt": " * pt"}


def load_cli(src: str):
    """``polyprod.cli`` of the tree ``src``: imported from it, or the module
    already imported in this process when it comes from that tree."""
    if "polyprod" not in sys.modules:
        sys.path.insert(0, src)
    cli = importlib.import_module("polyprod.cli")
    if not os.path.samefile(os.path.dirname(cli.__file__), os.path.join(src, "polyprod")):
        raise SystemExit(f"imported {cli.__file__}, not the tree {src}")
    return cli


def ask(cli, argv: list[str]) -> tuple[int, str]:
    """The exit code of ``cli.main(argv)`` and what it prints on stdout;
    stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def order_line(text: str):
    return next((line for line in text.splitlines() if line.startswith("order:")), None)


def expression(path: list[str]) -> str:
    text = "I"
    for step in path:
        text = f"({text}){_STEP_TEXT[step]}"
    return text


def crosscheck(cli, steps: int) -> dict:
    cap = ["--max-elements", str(BRUTE_CAP)]
    nodes = []
    for k in range(steps + 1):
        nodes += json.loads(ask(cli, [*cap, "family", "--steps", str(k), "--json"])[1])
    disagreements = []
    skipped = {method: [] for method in METHODS}
    seconds = dict.fromkeys(METHODS, 0.0)
    slowest = {"path": None, "brute_s": 0.0}
    for node in nodes:
        path = ",".join(node["path"]) or "(root)"
        text = expression(node["path"])
        formula = order_line(ask(cli, ["aut", "--method", "formula", text])[1])
        differs = {}
        for method in METHODS:
            start = perf_counter()
            code, out = ask(cli, [*cap, "aut", "--method", method, text])
            elapsed = perf_counter() - start
            seconds[method] += elapsed
            if method == "brute" and elapsed > slowest["brute_s"]:
                slowest = {"path": path, "brute_s": elapsed}
            if code == cli.EXIT_BUDGET:
                skipped[method].append(path)
            elif formula is None or order_line(out) != formula:
                differs[method] = order_line(out)
        if formula is None or differs:
            disagreements.append({"path": path, "formula": formula, **differs})
    return {"steps": steps, "nodes": len(nodes), "disagreements": disagreements,
            "skipped": skipped, "brute_s": seconds["brute"],
            "generators_s": seconds["generators"], "slowest": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--src", default=SRC)
    args = parser.parse_args(argv)
    report = crosscheck(load_cli(os.path.abspath(args.src)), args.steps)
    print(json.dumps(report))
    return 1 if report["disagreements"] else 0


if __name__ == "__main__":
    sys.exit(main())
