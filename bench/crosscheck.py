"""Brute-force automorphism group orders against the family formula.

    python3 bench/crosscheck.py --steps N [--src SRC]

For every node of the inductive family through step N, as ``polyprod family
--steps k --json`` lists them for k = 0..N, the node's expression is spelt
step by step from the root edge: ``I``, then ``(...) x I`` or ``(...) * pt``
for each step of its path. ``polyprod.cli.main`` answers ``aut --method
formula`` and ``aut --method brute --max-elements 100000`` on it, in this
process, and the two ``order:`` lines must agree; a command that fails has
no such line and disagrees. SRC is a directory that holds a ``polyprod``
package, by default the ``src`` of this checkout.

The last line is JSON: the number of nodes, the disagreements (each node's
path and both lines), the total time of the brute-force commands in seconds
and the slowest of them. The exit code is 1 on any disagreement, else 0.
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


def ask(cli, argv: list[str]) -> str:
    """What ``cli.main(argv)`` prints on stdout; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


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
        nodes += json.loads(ask(cli, [*cap, "family", "--steps", str(k), "--json"]))
    disagreements = []
    brute_s = 0.0
    slowest = {"path": None, "brute_s": 0.0}
    for node in nodes:
        path = ",".join(node["path"]) or "(root)"
        text = expression(node["path"])
        formula = order_line(ask(cli, ["aut", "--method", "formula", text]))
        start = perf_counter()
        brute = order_line(ask(cli, [*cap, "aut", "--method", "brute", text]))
        elapsed = perf_counter() - start
        brute_s += elapsed
        if elapsed > slowest["brute_s"]:
            slowest = {"path": path, "brute_s": elapsed}
        if formula is None or formula != brute:
            disagreements.append({"path": path, "formula": formula, "brute": brute})
    return {"steps": steps, "nodes": len(nodes), "disagreements": disagreements,
            "brute_s": brute_s, "slowest": slowest}


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
