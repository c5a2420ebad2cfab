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
"""

from __future__ import annotations

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


def _poset(labels, ranks, upper) -> PolytopePoset:
    """The product poset, with ``labels(format)`` its face labels written by
    ``format(p, q)``: "(p|q)", or the reprs where that repeats a label."""
    try:
        return PolytopePoset(labels(_label), ranks, upper)
    except DuplicateId:
        return PolytopePoset(labels(_repr_label), ranks, upper)


def join(P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P * Q: all pairs (F, G), ordered componentwise, rank additive plus 1."""
    m = len(Q)
    ranks = [rp + rq + 1 for rp in P.ranks for rq in Q.ranks]
    upper = [
        [i * m + b for b in uq] + [b * m + j for b in up]
        for i, up in enumerate(P.upper)
        for j, uq in enumerate(Q.upper)
    ]
    return _poset(lambda fmt: [fmt(p, q) for p in P.labels for q in Q.labels], ranks, upper)


def cartesian(P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P x Q: pairs of faces of rank >= 0 plus one joint bottom, rank additive."""
    bp, bq = P.bottom_face, Q.bottom_face
    proper_p = [i for i in range(len(P)) if i != bp]
    proper_q = [j for j in range(len(Q)) if j != bq]
    m = len(proper_q)
    # row[i]: face (i, j) is row[i] + pos_Q(j); pos_q[j] = pos_Q(j)
    row = {i: 1 + k * m for k, i in enumerate(proper_p)}
    pos_q = {j: k for k, j in enumerate(proper_q)}
    up_q = [[pos_q[b] for b in Q.upper[j]] for j in proper_q]  # pos_Q of their covers

    def labels(fmt):
        faces = [fmt(P.labels[bp], Q.labels[bq])]
        return faces + [fmt(P.labels[i], Q.labels[j]) for i in proper_p for j in proper_q]

    ranks = [-1] + [P.ranks[i] + Q.ranks[j] for i in proper_p for j in proper_q]
    upper = [[row[v] + pos_q[w] for v in P.faces_of_rank(0) for w in Q.faces_of_rank(0)]]
    for i in proper_p:
        ri, rows = row[i], [row[b] for b in P.upper[i]]
        upper += [[ri + q for q in qs] + [r + k for r in rows] for k, qs in enumerate(up_q)]
    return _poset(labels, ranks, upper)


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
