"""Command-line front end.

Exit codes: 0 success, 1 polytope invalid, 2 parse error or unwritable
output file, 3 formula method requested on a non-family expression, 4 budget
exceeded.

An expression nesting deeper than ``expr.MAX_DEPTH`` (200) levels, counting
open parentheses and operators on one path of its tree alike (a chain
``pt x pt x ...`` of 201 operators is too deep), exits 2 with
``parse error: ...`` on stderr, as does an exponent of more than 4300
digits. An expression whose face count passes ``--max-elements`` exits 4
with one ``budget exceeded: ...`` line; the count is given exactly below
10^4300 and as "at least 10^4300" above. So does one whose build takes more
product constructions than ``--max-elements``, counting one per ``*`` or
``x`` and k - 1 per power, such as ``(pt x pt)^x5000``, which has 2 faces.

``build``, ``aut`` and ``decompose`` do not verify the posets they build:
products of polytopes are polytopes. ``verify EXPR`` is the one command
that runs the axiom checker on an expression.

``family --steps N`` with N < 0 exits 2 with ``parse error: ...`` on stderr.
``build -o PATH`` exits 2, with ``cannot write output: ...`` on stderr and
nothing on stdout, when PATH cannot be opened for writing.

``verify --json FILE`` exits 2, with ``parse error: ...`` on stderr, when the
file cannot be read, is not JSON (or nests too deeply to decode), lacks the
elements/covers/id/rank fields or holds a cover that is not a pair of ids.
When the poset constructor rejects what it describes (a cycle, a dangling
cover, a duplicate id, no elements), it prints a report whose one failure
has check "structure" and exits 1, as for any invalid poset.

``main(argv)`` returns the exit code and may be called any number of times
in one process; the calls share only the argument parser, built once. The
``polyprod`` script (``entry``) exits silently, killed by SIGPIPE, when its
stdout is closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import groups, poset
from .autom import DEFAULT_CLOSURE_CAP, aut_order, closure, described_generators
from .errors import BudgetExceeded, ParseError, PolytopeError
from .expr import eval_expr, expr_to_family, parse_expr
from .family import aut_descriptor, enumerate_family, node_to_json
from .structure import prism_decompose, pyramid_decompose
from .verify import verify_polytope

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NOT_FAMILY = 3
EXIT_BUDGET = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by
    every later call in the process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="polyprod",
        description="Build abstract polytopes from construction expressions, "
        "verify the polytope axioms and compute automorphism groups.",
    )
    parser.add_argument("--max-elements", type=int, default=poset.DEFAULT_SEARCH_CAP)
    parser.add_argument("--max-closure", type=int, default=DEFAULT_CLOSURE_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the face lattice")
    p.add_argument("expr")
    p.add_argument("--out", choices=["json", "dot"], default="json")
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("verify", help="run the axiom checker")
    p.add_argument("expr", nargs="?")
    p.add_argument("--json", dest="json_file", help="read the poset from a JSON file")

    p = sub.add_parser("aut", help="compute the automorphism group")
    p.add_argument("expr")
    p.add_argument("--method", choices=["formula", "brute", "generators"])

    p = sub.add_parser("decompose", help="factor off a pyramid apex or prism edge")
    p.add_argument("expr")
    p.add_argument("--as", dest="shape", choices=["pyramid", "prism"], required=True)

    p = sub.add_parser("family", help="list family nodes at a given depth")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_build(args) -> int:
    P = eval_expr(parse_expr(args.expr), max_elements=args.max_elements)
    if args.out == "json":
        text = json.dumps(poset.to_json(P), indent=2)
    else:
        text = poset.to_dot(P)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        print(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.json_file:
        try:
            with open(args.json_file) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ParseError(f"{args.json_file}: {exc}") from None
        try:
            P = poset.from_json(data, check=False)
        except ParseError:
            raise
        except PolytopeError as exc:
            failure = {"check": "structure", "error": str(exc)}
            print(json.dumps({"is_polytope": False, "failures": [failure]}, indent=2))
            return EXIT_INVALID
    elif args.expr:
        P = eval_expr(parse_expr(args.expr), max_elements=args.max_elements)
    else:
        print("verify needs an expression or --json FILE", file=sys.stderr)
        return EXIT_PARSE
    report = verify_polytope(P)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.is_polytope else EXIT_INVALID


def _cmd_aut(args) -> int:
    ast = parse_expr(args.expr)
    node = expr_to_family(ast)
    method = args.method
    if method is None:
        method = "formula" if node is not None else "brute"
        if node is None:
            print(
                "note: expression is not family-shaped, falling back to brute force",
                file=sys.stderr,
            )
    if method in ("formula", "generators") and node is None:
        print(
            f"method {method!r} needs a family-shaped expression "
            "(I followed by *pt and xI steps)",
            file=sys.stderr,
        )
        return EXIT_NOT_FAMILY
    if method == "formula":
        descriptor = aut_descriptor(node)
        print(f"descriptor: {groups.render(descriptor)}")
        print(f"order: {groups.order(descriptor)}")
    elif method == "generators":
        gens = described_generators(node)
        # the order first, so that a budget error leaves stdout empty
        order = closure(gens, max_size=args.max_closure)
        print(f"generators: {len(gens)}")
        print(f"order: {order}")
    else:
        P = eval_expr(ast, max_elements=args.max_elements)
        print(f"order: {aut_order(P, max_elements=args.max_elements)}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    P = eval_expr(parse_expr(args.expr), max_elements=args.max_elements)
    oracle = pyramid_decompose if args.shape == "pyramid" else prism_decompose
    Q = oracle(P, max_elements=args.max_elements)
    if Q is None:
        print("none")
    else:
        print(json.dumps(poset.to_json(Q), indent=2))
    return EXIT_OK


def _cmd_family(args) -> int:
    if args.steps < 0:
        raise ParseError(f"--steps must be >= 0, got {args.steps}")
    nodes = enumerate_family(args.steps)
    if args.json:
        print(json.dumps([node_to_json(n) for n in nodes], indent=2))
    else:
        for n in nodes:
            d = aut_descriptor(n)
            path = ",".join(n.path) if n.path else "(root)"
            print(
                f"path={path} k={n.k} prod={n.prod} "
                f"aut={groups.render(d)} order={groups.order(d)}"
            )
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "aut": _cmd_aut,
    "decompose": _cmd_decompose,
    "family": _cmd_family,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    """The ``polyprod`` console script. Where the platform has SIGPIPE, a
    stdout closed by its reader ends the process silently, as it ends other
    Unix filters; ``main`` leaves the disposition alone for in-process
    callers."""
    import signal  # here, not at the top: in-process callers never need it

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
