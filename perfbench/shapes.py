"""Construction expressions with closed-form reference properties.

A ``Shape`` carries the expression text the benchmark sends to the CLI and
the properties the answers are checked against. Every property here is
computed from the construction alone, independently of ``polyprod``:

* faces: pt = 2, I = 4, ``*`` multiplies, ``x`` gives (a - 1)(b - 1) + 1;
* covers, vertices, rank, comparable pairs and chains F <= H <= G (the
  verifier's section work), by the same kind of recursion;
* the automorphism order, from the factorisation into join-prime and
  product-prime parts (``canon``): a part repeated m times contributes
  |Aut(part)|^m * m!. On simplices this is n!, on cubes 2^k k!, on
  duoprisms a! b! (doubled when a = b), and on family nodes the
  inductive formula.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

PT_CANON = "pt"


def _parts(canon, kind):
    return list(canon[1]) if isinstance(canon, tuple) and canon[0] == kind else [canon]


def _combine(kind, a, b):
    parts = sorted(_parts(a, kind) + _parts(b, kind), key=repr)
    return (kind, tuple(parts))


def canon_join(a, b):
    return _combine("J", a, b)


def canon_cart(a, b):
    if a == PT_CANON:
        return b
    if b == PT_CANON:
        return a
    return _combine("X", a, b)


def canon_order(canon) -> int:
    """|Aut| of the polytope with this factorisation."""
    if canon == PT_CANON:
        return 1
    order = 1
    for part, mult in Counter(canon[1]).items():
        order *= canon_order(part) ** mult * math.factorial(mult)
    return order


I_CANON = canon_join(PT_CANON, PT_CANON)


def is_pyramid(canon) -> bool:
    """P = Q * pt for some Q."""
    return isinstance(canon, tuple) and canon[0] == "J" and PT_CANON in canon[1]


def is_prism(canon) -> bool:
    """P = Q x I for some Q (I itself is pt x I)."""
    if canon == I_CANON:
        return True
    return isinstance(canon, tuple) and canon[0] == "X" and I_CANON in canon[1]


@dataclass(frozen=True)
class Shape:
    text: str
    faces: int
    covers: int
    vertices: int
    rank: int
    canon: object
    pairs: int  # comparable pairs F <= G
    chains: int  # chains F <= H <= G: what the verifier's section checks cost

    @property
    def order(self) -> int:
        return canon_order(self.canon)

    @property
    def brute_work(self) -> int:
        """|Aut| * n^2, what brute-force enumeration costs."""
        return self.order * self.faces * self.faces


def _wrap(text: str) -> str:
    return text if text in ("pt", "I") else f"({text})"


PT = Shape("pt", 2, 1, 1, 0, PT_CANON, 3, 4)
I = Shape("I", 4, 4, 2, 1, I_CANON, 9, 16)


def join(a: Shape, b: Shape) -> Shape:
    return Shape(
        f"{_wrap(a.text)}*{_wrap(b.text)}",
        a.faces * b.faces,
        a.covers * b.faces + b.covers * a.faces,
        a.vertices + b.vertices,
        a.rank + b.rank + 1,
        canon_join(a.canon, b.canon),
        a.pairs * b.pairs,
        a.chains * b.chains,
    )


def cart(a: Shape, b: Shape) -> Shape:
    faces = (a.faces - 1) * (b.faces - 1) + 1
    pairs = (a.pairs - a.faces) * (b.pairs - b.faces) + faces
    return Shape(
        f"{_wrap(a.text)}x{_wrap(b.text)}",
        faces,
        a.vertices * b.vertices
        + (a.covers - a.vertices) * (b.faces - 1)
        + (b.covers - b.vertices) * (a.faces - 1),
        a.vertices * b.vertices,
        a.rank + b.rank,
        canon_cart(a.canon, b.canon),
        pairs,
        # chains from the shared bottom, plus chains of proper faces
        (a.chains - a.pairs) * (b.chains - b.pairs) + pairs,
    )


def _power(base: Shape, op, k: int, sym: str) -> Shape:
    out = base
    for _ in range(k - 1):
        out = op(out, base)
    return replace(out, text=f"{_wrap(base.text)}^{sym}{k}" if k > 1 else base.text)


def simplex(a: int) -> Shape:
    """The simplex with a vertices, pt^*a."""
    return _power(PT, join, a, "*")


def cube(k: int) -> Shape:
    """The k-cube I^xk."""
    return _power(I, cart, k, "x")


def family(path) -> Shape:
    """The family node reached from I by the steps in `path` ("xI" or
    "*pt"), written step by step, with a leading run of prism steps as a
    power of I."""
    s = I
    text = "I"
    for pos, step in enumerate(path):
        atom, op, sym = (I, cart, "x") if step == "xI" else (PT, join, "*")
        s = op(s, atom)
        if step == "xI" and all(p == "xI" for p in path[:pos + 1]):
            text = f"I^x{pos + 2}"
        else:
            text = f"{_wrap(text)}{sym}{atom.text}"
    return replace(s, text=text)


def all_paths(steps: int):
    """Every construction path of the given length, prism branch first,
    in the order `polyprod family --steps` lists the nodes."""
    if steps == 0:
        return [()]
    return [p + (s,) for p in all_paths(steps - 1) for s in ("xI", "*pt")]
