"""Join and Cartesian product of polytope posets, plus k-fold powers.

The two products are named by ``JOIN`` and ``CARTESIAN``; ``product(op, P,
Q)`` builds either, and ``SHARED_FACES[op]`` is how many faces its factors
share (none for the join, the joint bottom for the Cartesian product), so
that ``|P op Q| = (|P| - s)(|Q| - s) + s``.

Face layout, for P with n faces and Q with m faces:

* ``join(P, Q)``: the pair (i, j) of faces is face ``i*m + j``.
* ``cartesian(P, Q)``: face 0 is the shared bottom, and the pair (i, j) of
  non-bottom faces is face ``1 + pos_P(i)*(m - 1) + pos_Q(j)``, where
  ``pos`` is a face's position among its poset's non-bottom faces.

Both orders are lexicographic in (i, j), so coordinate actions on product
faces are index arithmetic on the factors' sizes (see
``autom.described_generators``). Each face is labelled "(p|q)" with the
labels p and q of its two factors' faces. Where that gives two faces one
label (a factor id holds "|", or ids such as 1 and "1" print alike), every
face of that product is labelled with the reprs of p and q instead, which
are distinct since repr literals delimit themselves.
"""

from __future__ import annotations

from .errors import DuplicateId, NonPositiveExponent
from .poset import PolytopePoset

JOIN = "join"
CARTESIAN = "cartesian"

SHARED_FACES = {JOIN: 0, CARTESIAN: 1}

_label = "({}|{})".format
_repr_label = "({!r}|{!r})".format


def _poset(labels, ranks, covers) -> PolytopePoset:
    """The product poset, with ``labels(format)`` its face labels written by
    ``format(p, q)``: "(p|q)", or the reprs where that repeats a label."""
    try:
        return PolytopePoset(labels(_label), ranks, covers)
    except DuplicateId:
        return PolytopePoset(labels(_repr_label), ranks, covers)


def join(P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P * Q: all pairs (F, G), ordered componentwise, rank additive plus 1."""
    n, m = len(P), len(Q)
    ranks = [rp + rq + 1 for rp in P.ranks for rq in Q.ranks]
    covers = [
        (a * m + j, b * m + j) for a, ups in enumerate(P.upper) for b in ups for j in range(m)
    ]
    covers += [
        (i * m + a, i * m + b) for i in range(n) for a, ups in enumerate(Q.upper) for b in ups
    ]
    return _poset(lambda fmt: [fmt(p, q) for p in P.labels for q in Q.labels], ranks, covers)


def cartesian(P: PolytopePoset, Q: PolytopePoset) -> PolytopePoset:
    """P x Q: pairs of faces of rank >= 0 plus one joint bottom, rank additive."""
    bp, bq = P.bottom_face, Q.bottom_face
    proper_p = [i for i in range(len(P)) if i != bp]
    proper_q = [j for j in range(len(Q)) if j != bq]
    m = len(proper_q)
    # row[i]: face (i, j) is row[i] + pos_Q(j); pos_q[j] = pos_Q(j)
    row = {i: 1 + k * m for k, i in enumerate(proper_p)}
    pos_q = {j: k for k, j in enumerate(proper_q)}

    def labels(fmt):
        faces = [fmt(P.labels[bp], Q.labels[bq])]
        return faces + [fmt(P.labels[i], Q.labels[j]) for i in proper_p for j in proper_q]

    ranks = [-1] + [P.ranks[i] + Q.ranks[j] for i in proper_p for j in proper_q]
    covers = [(0, row[v] + pos_q[w]) for v in P.faces_of_rank(0) for w in Q.faces_of_rank(0)]
    for a in proper_p:
        for b in P.upper[a]:
            covers += [(row[a] + k, row[b] + k) for k in range(m)]
    for a in proper_q:
        for b in Q.upper[a]:
            covers += [(row[i] + pos_q[a], row[i] + pos_q[b]) for i in proper_p]
    return _poset(labels, ranks, covers)


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
