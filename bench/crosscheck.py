"""Brute-force and generator group orders against the family formula, and
brute force against closed-form orders on random products.

    python3 bench/crosscheck.py --steps N [--random K] [--src SRC]

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

With ``--random K``, K expressions are drawn with repeats, from seed
RANDOM_SEED: joins and Cartesian products of ``pt`` and ``I``, nested at
most 4 deep, kept when they have 20 to 400 faces. ``aut --method brute
--max-elements 100000`` answers each, and its ``order:`` line must give the
order that ``perfbench/shapes.py`` computes from the expression's
factorisation, without ``polyprod``. Exit 4 is a skip here too.

The last line is JSON: the number of nodes, the disagreements (each node's
path, the formula's line and the line of each method that differs), the
paths each method skipped, the total time of each method's commands in
seconds and the slowest brute-force command, and under ``random`` the same
for the random expressions (each disagreement gives the expression, the
expected line and brute force's). The exit code is 1 on any disagreement,
else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BRUTE_CAP = 100_000
RANDOM_DEPTH = 4
RANDOM_FACES = range(20, 401)
LEAF_CHANCE = 0.3  # of a node above the deepest level being pt or I
RANDOM_SEED = 1
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


def compare(cli, argv: list[str], expected) -> tuple[str, str | None, float]:
    """Whether the ``order:`` line of ``argv`` "agrees" with ``expected``,
    is "skipped" (exit 4, its budget passed) or "differs" (also when
    ``expected`` is None), with that line and the command's seconds."""
    start = perf_counter()
    code, out = ask(cli, argv)
    elapsed = perf_counter() - start
    line = order_line(out)
    if code == cli.EXIT_BUDGET:
        return "skipped", line, elapsed
    return ("differs" if expected is None or line != expected else "agrees"), line, elapsed


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
            verdict, line, elapsed = compare(cli, [*cap, "aut", "--method", method, text], formula)
            seconds[method] += elapsed
            if method == "brute" and elapsed > slowest["brute_s"]:
                slowest = {"path": path, "brute_s": elapsed}
            if verdict == "skipped":
                skipped[method].append(path)
            elif verdict == "differs":
                differs[method] = line
        if formula is None or differs:
            disagreements.append({"path": path, "formula": formula, **differs})
    return {"steps": steps, "nodes": len(nodes), "disagreements": disagreements,
            "skipped": skipped, "brute_s": seconds["brute"],
            "generators_s": seconds["generators"], "slowest": slowest}


def load_shapes():
    """``perfbench/shapes.py``, which computes a product's faces and its
    automorphism group's order from the construction alone."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import shapes
    finally:
        sys.path.pop(0)
    return shapes


def random_shapes(shapes, k: int) -> list:
    """k random products drawn with repeats: pt or I at depth RANDOM_DEPTH,
    above it pt or I with chance LEAF_CHANCE, else the join or Cartesian
    product of two draws one level deeper; a draw is kept when its faces
    fall in RANDOM_FACES. Such trees have fewer than 200 factorisations
    in the band, so the draw does not ask for distinct ones."""
    rng = random.Random(RANDOM_SEED)
    atoms, products = (shapes.PT, shapes.I), (shapes.join, shapes.cart)

    def draw(depth):
        if depth == RANDOM_DEPTH or rng.random() < LEAF_CHANCE:
            return rng.choice(atoms)
        return rng.choice(products)(draw(depth + 1), draw(depth + 1))

    drawn = []
    while len(drawn) < k:
        shape = draw(0)
        if shape.faces in RANDOM_FACES:
            drawn.append(shape)
    return drawn


def crosscheck_random(cli, k: int) -> dict:
    shapes = load_shapes()
    disagreements, skipped = [], []
    seconds = 0.0
    slowest = {"text": None, "brute_s": 0.0}
    for shape in random_shapes(shapes, k):
        expected = f"order: {shapes.canon_order(shape.canon)}"
        verdict, line, elapsed = compare(
            cli, ["--max-elements", str(BRUTE_CAP), "aut", "--method", "brute", shape.text],
            expected)
        seconds += elapsed
        if elapsed > slowest["brute_s"]:
            slowest = {"text": shape.text, "brute_s": elapsed}
        if verdict == "skipped":
            skipped.append(shape.text)
        elif verdict == "differs":
            disagreements.append({"text": shape.text, "expected": expected, "brute": line})
    return {"cases": k, "seed": RANDOM_SEED, "disagreements": disagreements, "skipped": skipped,
            "brute_s": seconds, "slowest": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--random", type=int, default=0, metavar="K")
    parser.add_argument("--src", default=SRC)
    args = parser.parse_args(argv)
    cli = load_cli(os.path.abspath(args.src))
    report = crosscheck(cli, args.steps)
    report["random"] = crosscheck_random(cli, args.random)
    print(json.dumps(report))
    return 1 if report["disagreements"] or report["random"]["disagreements"] else 0


if __name__ == "__main__":
    sys.exit(main())
