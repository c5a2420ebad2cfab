"""Construction-expression DSL: parsing, evaluation and recognition of
family-shaped expressions.

Grammar (whitespace ignored)::

    expr := pow { ("*" | "x") pow }     left-associative, equal precedence;
                                        mixing * and x unparenthesized is an error
    pow  := atom [ "^*" nat | "^x" nat ]
    atom := "pt" | "I" | "(" expr ")"

The tree has three node kinds: ``Atom(name)``, ``Product(op, left, right)``
and ``Power(op, base, k)``, where ``op`` is ``products.JOIN`` (written ``*``)
or ``products.CARTESIAN`` (written ``x``).

An expression may nest at most ``MAX_DEPTH`` levels deep: that many
parentheses open at once, and that many operators on one path from the root
of its tree to a leaf. Deeper input is a ``ParseError``, so that no recursion
over the text or the tree reaches Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, MixedOperatorsWithoutParens, ParseError
from .family import JOIN_STEP, TIMES_STEP, FamilyNode, node_for_path
from .poset import DEFAULT_SEARCH_CAP, PolytopePoset, edge, point
from .products import CARTESIAN, JOIN, SHARED_FACES, power, product


@dataclass(frozen=True)
class Atom:
    name: str  # "pt" or "I"


@dataclass(frozen=True)
class Product:
    op: str  # products.JOIN or products.CARTESIAN
    left: "ConstructionExpr"
    right: "ConstructionExpr"


@dataclass(frozen=True)
class Power:
    op: str
    base: "ConstructionExpr"
    k: int


# a | union, not typing.Union: typing caches Union objects for the whole
# process, which would keep this module alive after a re-import
ConstructionExpr = Atom | Product | Power

_SYMBOL = {JOIN: "*", CARTESIAN: "x"}
_OP = {symbol: op for op, symbol in _SYMBOL.items()}

MAX_DEPTH = 200

# sizes below 10^EXACT_DIGITS are reported exactly, larger ones as "at least";
# Python formats ints of at most 4300 digits by default
_EXACT_DIGITS = 4300
_EXACT_BELOW = 10**_EXACT_DIGITS

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
        self.parens = 0  # parentheses open at the current token

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

    def nest(self, depth: int, at: int) -> int:
        """depth + 1, or a ParseError at ``at`` when that passes MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", at)
        return depth + 1

    # expr, pow and atom return the node with its height: the number of
    # operators on the longest path from the node down to a leaf

    def parse(self) -> ConstructionExpr:
        node, _ = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.position())
        return node

    def expr(self) -> tuple[ConstructionExpr, int]:
        node, height = self.pow()
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
            rhs, rhs_height = self.pow()
            node = Product(_OP[op], node, rhs)
            height = self.nest(max(height, rhs_height), at)
        return node, height

    def pow(self) -> tuple[ConstructionExpr, int]:
        base, height = self.atom()
        if self.peek() in ("^*", "^x"):
            at = self.position()
            op = self.take()
            num = self.peek()
            if num is None or not num.isdigit():
                raise ParseError("expected an exponent", self.position())
            self.take()
            try:
                k = int(num)
            except ValueError:  # more digits than Python converts to an int
                raise ParseError("exponent too large", at) from None
            if k < 1:
                raise ParseError("exponent must be >= 1", at)
            node = Power(_OP[op[1:]], base, k)
            return node, self.nest(height, at)
        return base, height

    def atom(self) -> tuple[ConstructionExpr, int]:
        tok = self.peek()
        if tok == "pt" or tok == "I":
            self.take()
            return Atom(tok), 0
        if tok == "(":
            self.parens = self.nest(self.parens, self.position())
            self.take()
            result = self.expr()
            self.expect(")")
            self.parens -= 1
            return result
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
    if isinstance(e, Product):
        return f"{wrap(e.left)} {_SYMBOL[e.op]} {wrap(e.right)}"
    if isinstance(e, Power):
        return f"{wrap(e.base)}^{_SYMBOL[e.op]}{e.k}"
    raise TypeError(f"not an expression node: {e!r}")


def expr_size(e: ConstructionExpr) -> int:
    """Element count of the face poset, computed without building it."""
    return _size(e, None)


def _size(e: ConstructionExpr, limit: Optional[int]) -> int:
    """expr_size(e), or ``limit`` when that is at least ``limit``.

    Every size grows with the sizes of the operands, which are at least 2,
    so a node of size below the limit has operands of size below it, and an
    operand clamped to the limit keeps its node at or above it. So no value
    computed has more than about twice the limit's digits, whatever the
    exponents."""
    if isinstance(e, Atom):
        size = 2 if e.name == "pt" else 4
    elif isinstance(e, Product):
        s = SHARED_FACES[e.op]
        size = (_size(e.left, limit) - s) * (_size(e.right, limit) - s) + s
    elif isinstance(e, Power):
        s = SHARED_FACES[e.op]
        size = _power(_size(e.base, limit) - s, e.k, limit) + s
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return size if limit is None or size < limit else limit


def _power(base: int, k: int, limit: Optional[int]) -> int:
    """base**k, or ``limit`` when base**k surely passes it, which is when
    2**((bits of base - 1) * k), a lower bound of base**k, does."""
    if limit is not None and (base.bit_length() - 1) * k >= limit.bit_length():
        return limit
    return base**k


def _products(e: ConstructionExpr, limit: int) -> int:
    """How many products ``eval_expr`` builds for e, one per ``*`` or ``x``
    node and k - 1 per power, or ``limit`` when that is at least ``limit``.

    A Cartesian power of a 2-face operand, such as ``(pt x pt)^x k``, has 2
    faces whatever k is, so only this count bounds the work of building it.
    Each value is clamped as it is computed, so none has more digits than
    the limit or an exponent."""
    if isinstance(e, Atom):
        count = 0
    elif isinstance(e, Product):
        count = 1 + _products(e.left, limit) + _products(e.right, limit)
    elif isinstance(e, Power):
        count = e.k - 1 + _products(e.base, limit)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return min(count, limit)


def _within_budget(template: str, count: int, cap: int) -> None:
    """Raise BudgetExceeded, naming the count, when count passes the cap."""
    if count > cap:
        shown = count if count < _EXACT_BELOW else f"at least 10^{_EXACT_DIGITS}"
        raise BudgetExceeded(f"expression {template.format(shown)}, above the cap of {cap}")


def eval_expr(e: ConstructionExpr, max_elements: int = DEFAULT_SEARCH_CAP) -> PolytopePoset:
    """Build the face poset of an expression.

    Joins and Cartesian products of polytopes are polytopes (Gleason and
    Hubard, *Products of abstract polytopes*, JCTA 157, 2018), so the
    result is not verified again; ``tests/test_expr.py`` checks the
    guarantee on random expressions."""
    limit = max(max_elements + 1, _EXACT_BELOW)
    _within_budget("yields {} faces", _size(e, limit), max_elements)
    _within_budget("takes {} product constructions", _products(e, limit), max_elements)

    def build(node: ConstructionExpr) -> PolytopePoset:
        if isinstance(node, Atom):
            return point() if node.name == "pt" else edge()
        if isinstance(node, Product):
            return product(node.op, build(node.left), build(node.right))
        if isinstance(node, Power):
            return power(build(node.base), node.op, node.k)
        raise TypeError(f"not an expression node: {node!r}")

    return build(e)


# the family step each product makes, and the atom it adds as a right factor
_FAMILY_STEP = {JOIN: (Atom("pt"), JOIN_STEP), CARTESIAN: (Atom("I"), TIMES_STEP)}


def _atom_run(e: ConstructionExpr, op: str, atom: Atom) -> Optional[int]:
    """How many copies of the atom e denotes as a right factor under op."""
    if e == atom:
        return 1
    if isinstance(e, Power) and e.op == op and e.base == atom:
        return e.k
    return None


def _family_steps(e: ConstructionExpr) -> Optional[list[str]]:
    if isinstance(e, Atom):
        return [] if e.name == "I" else None
    if isinstance(e, Power) and e.k == 1:
        return _family_steps(e.base)
    atom, step = _FAMILY_STEP[e.op]
    if isinstance(e, Product):
        head, run = e.left, _atom_run(e.right, e.op, atom)
    else:  # atom^k is the atom followed by k - 1 more
        head, run = e.base, (e.k - 1 if e.base == atom else None)
    if run is None:
        return None
    steps = _family_steps(head)
    return None if steps is None else steps + [step] * run


def expr_to_family(e: ConstructionExpr) -> Optional[FamilyNode]:
    """The family node for a syntactically family-shaped expression: I
    followed by a sequence of *pt and xI steps (powers expand to runs)."""
    steps = _family_steps(e)
    if steps is None:
        return None
    return node_for_path(steps)
