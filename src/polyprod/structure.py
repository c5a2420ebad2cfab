"""Pyramid and prism structure: the fast necessary apex test and the
exhaustive decomposition oracles, one loop over candidate bases."""

from __future__ import annotations

from typing import Optional

from .errors import PolytopeError
from .poset import DEFAULT_SEARCH_CAP, PolytopePoset, _induced, edge, is_isomorphic, point
from .products import CARTESIAN, JOIN, _face_count, product


def pyramid_apex_candidates(P: PolytopePoset) -> list[int]:
    """Vertices (faces of rank 0) sharing an edge with every other vertex.

    Every pyramid apex has this property, so an empty list certifies that P
    is not a pyramid.
    """
    vertices = P.faces_of_rank(0)
    adjacent: dict[int, set[int]] = {v: {v} for v in vertices}
    for e in P.faces_of_rank(1):
        under = [v for v in P.lower[e] if v in adjacent]
        for v in under:
            adjacent[v].update(under)
    return [v0 for v0 in vertices if len(adjacent[v0]) == len(vertices)]


def pyramid_decompose(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> Optional[PolytopePoset]:
    """Some Q with join(Q, pt) isomorphic to P, or None.

    Only apex candidates are tried: the faces not above a candidate apex
    are the would-be base, which is rebuilt into a pyramid and compared
    against P.
    """
    faces = (1 << len(P)) - 1
    bases = (faces & ~P.above[v] for v in pyramid_apex_candidates(P))
    return _first_base(P, bases, JOIN, point(), max_elements)


def prism_decompose(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> Optional[PolytopePoset]:
    """Some Q with cartesian(Q, I) isomorphic to P, or None.

    In a prism Q x I a copy of Q is the faces under a facet, so trying every
    facet is exhaustive.
    """
    bases = (P.below[f] for f in P.faces_of_rank(P.rank - 1))
    return _first_base(P, bases, CARTESIAN, edge(), max_elements)


def _first_base(P, bases, op, atom, max_elements) -> Optional[PolytopePoset]:
    """The first base Q, the subposet on the faces of one mask of ``bases``,
    whose product ``Q op atom`` is isomorphic to P; None for P of rank below
    1 or without a unique bottom face, which no such product lacks.

    Posets of different sizes are never isomorphic, so a mask is skipped,
    before anything is built, unless ``Q op atom`` would have |P| faces,
    counted from the mask's ``bit_count()``. Only then is Q built, and
    skipped if the constructor rejects it, since no base of a product is
    rejected; then ``Q op atom`` is built and compared against P."""
    if P.rank < 1 or P.bottom_face is None:
        return None
    for keep in bases:
        if _face_count(op, keep.bit_count(), len(atom)) != len(P):
            continue
        try:
            Q = _induced(P, keep, 0)
        except PolytopeError:
            continue
        if is_isomorphic(product(op, Q, atom), P, max_elements=max_elements):
            return Q
    return None
