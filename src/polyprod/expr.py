"""Construction-expression DSL: parsing, evaluation and recognition of
family-shaped expressions.

Grammar (whitespace ignored)::

    expr := pow { ("*" | "x") pow }     left-associative, equal precedence;
                                        mixing * and x unparenthesized is an error
    pow  := atom [ "^*" nat | "^x" nat ]
    atom := "pt" | "I" | "(" expr ")"
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, MixedOperatorsWithoutParens, ParseError, PolytopeError
from .family import JOIN_STEP, TIMES_STEP, FamilyNode, node_for_path
from .poset import DEFAULT_SEARCH_CAP, PolytopePoset, edge, point
from .products import CARTESIAN, JOIN, cartesian, join, power
from .verify import verify_polytope


@dataclass(frozen=True)
class Atom:
    name: str  # "pt" or "I"


@dataclass(frozen=True)
class Join:
    left: "ConstructionExpr"
    right: "ConstructionExpr"


@dataclass(frozen=True)
class Cart:
    left: "ConstructionExpr"
    right: "ConstructionExpr"


@dataclass(frozen=True)
class JoinPow:
    base: "ConstructionExpr"
    k: int


@dataclass(frozen=True)
class CartPow:
    base: "ConstructionExpr"
    k: int


# a | union, not typing.Union: typing caches Union objects for the whole
# process, which would keep this module alive after a re-import
ConstructionExpr = Atom | Join | Cart | JoinPow | CartPow

_TOKEN = re.compile(r"\s*(pt|I|x|\^\*|\^x|\*|\(|\)|\d+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = len(text) - len(text[pos:].lstrip()) - pos
            if pos + stripped >= len(text):
                break
            at = pos + stripped
            raise ParseError(f"unexpected character {text[at]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def position(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.position())
        self.pos += 1

    def parse(self) -> ConstructionExpr:
        node = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.position())
        return node

    def expr(self) -> ConstructionExpr:
        node = self.pow()
        chain_op = None
        while self.peek() in ("*", "x"):
            at = self.position()
            op = self.take()
            if chain_op is None:
                chain_op = op
            elif op != chain_op:
                raise MixedOperatorsWithoutParens(
                    "mixing '*' and 'x' in one chain requires parentheses", at
                )
            rhs = self.pow()
            node = Join(node, rhs) if op == "*" else Cart(node, rhs)
        return node

    def pow(self) -> ConstructionExpr:
        base = self.atom()
        if self.peek() in ("^*", "^x"):
            at = self.position()
            op = self.take()
            num = self.peek()
            if num is None or not num.isdigit():
                raise ParseError("expected an exponent", self.position())
            self.take()
            k = int(num)
            if k < 1:
                raise ParseError("exponent must be >= 1", at)
            return JoinPow(base, k) if op == "^*" else CartPow(base, k)
        return base

    def atom(self) -> ConstructionExpr:
        tok = self.peek()
        if tok == "pt" or tok == "I":
            self.take()
            return Atom(tok)
        if tok == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected 'pt', 'I' or '(', got {tok!r}", self.position())


def parse_expr(text: str) -> ConstructionExpr:
    return _Parser(text).parse()


def render_expr(e: ConstructionExpr) -> str:
    """Parseable text for an AST; non-atom operands are parenthesized."""

    def wrap(x: ConstructionExpr) -> str:
        if isinstance(x, Atom):
            return x.name
        return f"({render_expr(x)})"

    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Join):
        return f"{wrap(e.left)} * {wrap(e.right)}"
    if isinstance(e, Cart):
        return f"{wrap(e.left)} x {wrap(e.right)}"
    if isinstance(e, JoinPow):
        return f"{wrap(e.base)}^*{e.k}"
    if isinstance(e, CartPow):
        return f"{wrap(e.base)}^x{e.k}"
    raise TypeError(f"not an expression node: {e!r}")


def expr_size(e: ConstructionExpr) -> int:
    """Element count of the face poset, computed without building it."""
    if isinstance(e, Atom):
        return 2 if e.name == "pt" else 4
    if isinstance(e, Join):
        return expr_size(e.left) * expr_size(e.right)
    if isinstance(e, Cart):
        return (expr_size(e.left) - 1) * (expr_size(e.right) - 1) + 1
    if isinstance(e, JoinPow):
        return expr_size(e.base) ** e.k
    if isinstance(e, CartPow):
        return (expr_size(e.base) - 1) ** e.k + 1
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(
    e: ConstructionExpr,
    max_elements: int = DEFAULT_SEARCH_CAP,
    check: bool = True,
) -> PolytopePoset:
    """Build the face poset of an expression and verify it is a polytope."""
    if expr_size(e) > max_elements:
        raise BudgetExceeded(
            f"expression yields {expr_size(e)} faces, above the cap of {max_elements}"
        )

    def build(node: ConstructionExpr) -> PolytopePoset:
        if isinstance(node, Atom):
            return point() if node.name == "pt" else edge()
        if isinstance(node, Join):
            return join(build(node.left), build(node.right))
        if isinstance(node, Cart):
            return cartesian(build(node.left), build(node.right))
        if isinstance(node, JoinPow):
            return power(build(node.base), JOIN, node.k)
        if isinstance(node, CartPow):
            return power(build(node.base), CARTESIAN, node.k)
        raise TypeError(f"not an expression node: {node!r}")

    result = build(e)
    if check:
        report = verify_polytope(result)
        if not report.is_polytope:
            raise PolytopeError("constructed poset fails the polytope axioms")
    return result


def _atom_run(e: ConstructionExpr, name: str) -> Optional[int]:
    """How many copies of the named atom e denotes as a right factor."""
    if isinstance(e, Atom) and e.name == name:
        return 1
    if name == "pt" and isinstance(e, JoinPow) and e.base == Atom("pt"):
        return e.k
    if name == "I" and isinstance(e, CartPow) and e.base == Atom("I"):
        return e.k
    return None


def _family_steps(e: ConstructionExpr) -> Optional[list[str]]:
    if isinstance(e, Atom):
        return [] if e.name == "I" else None
    if isinstance(e, Join):
        run = _atom_run(e.right, "pt")
        if run is None:
            return None
        head = _family_steps(e.left)
        if head is None:
            return None
        return head + [JOIN_STEP] * run
    if isinstance(e, Cart):
        run = _atom_run(e.right, "I")
        if run is None:
            return None
        head = _family_steps(e.left)
        if head is None:
            return None
        return head + [TIMES_STEP] * run
    if isinstance(e, CartPow):
        if e.k == 1:
            return _family_steps(e.base)
        if e.base == Atom("I"):
            return [TIMES_STEP] * (e.k - 1)
        return None
    if isinstance(e, JoinPow):
        if e.k == 1:
            return _family_steps(e.base)
        return None
    return None


def expr_to_family(e: ConstructionExpr) -> Optional[FamilyNode]:
    """The family node for a syntactically family-shaped expression: I
    followed by a sequence of *pt and xI steps (powers expand to runs)."""
    steps = _family_steps(e)
    if steps is None:
        return None
    return node_for_path(steps)
