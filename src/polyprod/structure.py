"""Pyramid and prism structure: the fast necessary apex test and the
exhaustive decomposition oracles, one loop over candidate bases."""

from __future__ import annotations

from typing import Optional

from .errors import PolytopeError
from .poset import (
    DEFAULT_SEARCH_CAP,
    PolytopePoset,
    _induced,
    edge,
    is_isomorphic,
    point,
    section,
)
from .products import cartesian, join


def pyramid_apex_candidates(P: PolytopePoset) -> list[int]:
    """Vertices (faces of rank 0) sharing an edge with every other vertex.

    Every pyramid apex has this property, so an empty list certifies that P
    is not a pyramid.
    """
    vertices = P.faces_of_rank(0)
    adjacent: dict[int, set[int]] = {v: {v} for v in vertices}
    for e in P.faces_of_rank(1):
        under = P.lower[e]
        for v in under:
            adjacent[v].update(under)
    return [v0 for v0 in vertices if len(adjacent[v0]) == len(vertices)]


def _subposet_avoiding(P: PolytopePoset, v: int) -> Optional[PolytopePoset]:
    """The induced poset on the faces not above v, or None if it fails the
    structural invariants (e.g. it has several maximal elements)."""
    try:
        return _induced(P, ((1 << len(P)) - 1) & ~P.above[v], 0)
    except PolytopeError:
        return None


def pyramid_decompose(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> Optional[PolytopePoset]:
    """Some Q with join(Q, pt) isomorphic to P, or None.

    Only apex candidates are tried: removing everything above a candidate
    apex leaves the would-be base (skipped if the constructor rejects it),
    which is rebuilt into a pyramid of 2|Q| faces and compared against P.
    """
    bases = (_subposet_avoiding(P, v) for v in pyramid_apex_candidates(P))
    return _first_base(P, bases, lambda Q: join(Q, point()), lambda n: 2 * n, max_elements)


def prism_decompose(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> Optional[PolytopePoset]:
    """Some Q with cartesian(Q, I) isomorphic to P, or None.

    In a prism Q x I, of 3|Q| - 2 faces, a copy of Q sits under a facet, so
    trying every facet section is exhaustive.
    """
    bases = (section(P, P.bottom_face, f) for f in P.faces_of_rank(P.rank - 1))
    return _first_base(
        P, bases, lambda Q: cartesian(Q, edge()), lambda n: 3 * n - 2, max_elements
    )


def _first_base(P, bases, rebuild, size, max_elements) -> Optional[PolytopePoset]:
    """The first base Q that is not None and whose product ``rebuild(Q)`` is
    isomorphic to P; None for P of rank below 1. The product is built only
    when its face count ``size(len(Q))`` equals |P|, since posets of
    different sizes are never isomorphic."""
    if P.rank < 1:
        return None
    for Q in bases:
        if Q is not None and size(len(Q)) == len(P):
            if is_isomorphic(rebuild(Q), P, max_elements=max_elements):
                return Q
    return None
