"""Join and Cartesian product of polytope posets, plus k-fold powers.

The two products are named by ``JOIN`` and ``CARTESIAN``; ``product(op, P,
Q)`` builds either, ``SHARED_FACES[op]`` is how many faces its factors
share (none for the join, the joint bottom for the Cartesian product), and
``_face_count`` counts a product's faces from its factors' counts.

Face layout, for P with n faces and Q with m faces:

* ``join(P, Q)``: the pair (i, j) of faces is face ``i*m + j``.
* ``cartesian(P, Q)``: face 0 is the shared bottom, and the pair (i, j) of
  non-bottom faces is face ``1 + pos_P(i)*(m - 1) + pos_Q(j)``, where
  ``pos`` is a face's position among its poset's non-bottom faces.

So where each factor's bottom is its face 0, as in every product of atoms,
face (i, j) of P op Q is ``(i - s)*(m - s) + j`` with s = ``SHARED_FACES[op]``.
The order is lexicographic in (i, j), hence associative: (P op Q) op R and
P op (Q op R) number their faces alike. ``_lift`` and ``_swap`` act on faces
through it; no other module computes a product face index. The covers of
(i, j) are written in it: (i, b) for b covering j, then (b, j) for b
covering i. Each face is labelled "(p|q)" with the labels p and q of its
two factors' faces. Where that gives two faces one label (a factor id holds
"|", or ids such as 1 and "1" print alike), every face of that product is
labelled with the reprs of p and q instead, which are distinct since repr
literals delimit themselves.

A product is built as plain tables first (``_Tables``: labels, ranks and
upper covers, by ``_join`` or ``_cartesian``), which a factor may be in
place of a poset. ``join``, ``cartesian`` and ``product`` hand the tables to
one checked ``PolytopePoset``. ``expr.eval_expr`` keeps every product
below the root of an expression as tables, labelled "(p|q)", so an
expression costs one poset; ``power`` builds one checked poset per product.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DuplicateId, NonPositiveExponent
from .poset import PolytopePoset

JOIN = "join"
CARTESIAN = "cartesian"

SHARED_FACES = {JOIN: 0, CARTESIAN: 1}

_label = "({}|{})".format
_repr_label = "({!r}|{!r})".format


def _face_count(op: str, n: int, m: int) -> int:
    """|P op Q| for P of n and Q of m faces: (n - s)(m - s) + s, where s is
    ``SHARED_FACES[op]``."""
    s = SHARED_FACES[op]
    return (n - s) * (m - s) + s


def _lift(op: str, g, h) -> tuple[int, ...]:
    """The permutation of P op Q that acts as g on P's faces and h on Q's,
    for factors whose bottom is face 0; g and h fix the shared faces, as
    automorphisms fix the bottom."""
    s = SHARED_FACES[op]
    stride = len(h) - s
    return (*range(s), *((a - s) * stride + b for a in g[s:] for b in h[s:]))


def _swap(op: str, m: int) -> tuple[int, ...]:
    """The permutation of Q op Q, for Q of m faces with its bottom at face 0,
    that exchanges the two factors: face (i, j) goes to face (j, i)."""
    s = SHARED_FACES[op]
    return (*range(s), *((j - s) * (m - s) + i for i in range(s, m) for j in range(s, m)))


class _Tables(NamedTuple):
    """A product built as plain tables: face labels, ranks and upper covers,
    which ``PolytopePoset`` takes as they are. The products below the root of
    an expression or a power are kept so and feed the next product."""

    labels: list
    ranks: list
    upper: list

    @property
    def bottom_face(self) -> int:
        return self.ranks.index(min(self.ranks))


def _join(P, Q, fmt=_label) -> _Tables:
    """The tables of P * Q, with each face (p, q) labelled ``fmt(p, q)``."""
    m = len(Q.ranks)
    labels = [fmt(p, q) for p in P.labels for q in Q.labels]
    ranks = [rp + rq + 1 for rp in P.ranks for rq in Q.ranks]
    upper = []
    _add_covers(upper, range(len(P.ranks)), range(0, len(P.ranks) * m, m), P.upper, Q.upper)
    return _Tables(labels, ranks, upper)


def _cartesian(P, Q, fmt=_label) -> _Tables:
    """The tables of P x Q, with each face (p, q) labelled ``fmt(p, q)``."""
    bp, bq = P.bottom_face, Q.bottom_face
    proper_p = [i for i in range(len(P.ranks)) if i != bp]
    proper_q = [j for j in range(len(Q.ranks)) if j != bq]
    m = len(proper_q)
    # row[i]: face (i, j) is row[i] + pos_Q(j); pos_q[j] = pos_Q(j)
    row = {i: 1 + k * m for k, i in enumerate(proper_p)}
    pos_q = {j: k for k, j in enumerate(proper_q)}
    up_q = [[pos_q[b] for b in Q.upper[j]] for j in proper_q]  # pos_Q of their covers

    labels = [fmt(P.labels[bp], Q.labels[bq])]
    labels += [fmt(P.labels[i], Q.labels[j]) for i in proper_p for j in proper_q]
    ranks = [-1] + [P.ranks[i] + Q.ranks[j] for i in proper_p for j in proper_q]
    vertices_q = [pos_q[w] for w, r in enumerate(Q.ranks) if r == 0]
    upper = [[row[v] + w for v, r in enumerate(P.ranks) if r == 0 for w in vertices_q]]
    _add_covers(upper, proper_p, row, P.upper, up_q)
    return _Tables(labels, ranks, upper)


def _add_covers(upper, rows, start, up_p, up_q) -> None:
    """Append to ``upper`` the covers of each face (i, j), for i in ``rows``
    and j over ``up_q``, where (i, j) is face ``start[i] + j``: (i, b) for b
    in ``up_q[j]``, then (b, j) for b in ``up_p[i]``. Each list is ascending
    when the covers in ``up_p`` and ``up_q`` are and each covering row
    starts past the row below it.

    Plain loops and appends: on Python 3.11 a comprehension is a function
    call, which a product of small factors would pay once per face."""
    for i in rows:
        s = start[i]
        block = []
        for ups in up_q:
            lifted = []
            for b in ups:
                lifted.append(s + b)
            block.append(lifted)
        for b in up_p[i]:
            k = start[b]
            for lifted in block:
                lifted.append(k)
                k += 1
        upper += block


def _poset(build, P, Q) -> PolytopePoset:
    """The product poset ``build`` makes, its faces labelled "(p|q)", or by
    the reprs where that repeats a label."""
    try:
        return PolytopePoset(*build(P, Q, _label))
    except DuplicateId:
        return PolytopePoset(*build(P, Q, _repr_label))


def join(P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P * Q: all pairs (F, G), ordered componentwise, rank additive plus 1."""
    return _poset(_join, P, Q)


def cartesian(P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P x Q: pairs of faces of rank >= 0 plus one joint bottom, rank additive."""
    return _poset(_cartesian, P, Q)


# the table builder of each product, for ``expr.eval_expr``
_TABLES = {JOIN: _join, CARTESIAN: _cartesian}


def product(op: str, P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P * Q or P x Q, as `op` names it."""
    # join and cartesian are looked up when called, so that rebinding them on
    # this module, as perfbench's tracer does, reaches every product
    if op == JOIN:
        return join(P, Q)
    if op == CARTESIAN:
        return cartesian(P, Q)
    raise ValueError(f"unknown product {op!r}")


def power(P: PolytopePoset, op: str, k: int) -> PolytopePoset:
    """Left-associated k-fold product of P with itself under `op`."""
    if k < 1:
        raise NonPositiveExponent(f"exponent must be >= 1, got {k}")
    if op not in SHARED_FACES:
        raise ValueError(f"unknown product {op!r}")
    result = P
    for _ in range(k - 1):
        result = product(op, result, P)
    return result

