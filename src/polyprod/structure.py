"""Pyramid and prism structure: the fast necessary apex test and the
exhaustive decomposition oracles."""

from __future__ import annotations

from typing import Optional

from .errors import PolytopeError
from .poset import (
    DEFAULT_SEARCH_CAP,
    PolytopePoset,
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
    keep = [f for f in range(len(P)) if not P.above[v] >> f & 1]
    new = {f: i for i, f in enumerate(keep)}
    covers = [(new[a], new[b]) for a in keep for b in P.upper[a] if b in new]
    try:
        return PolytopePoset([P.labels[f] for f in keep], [P.ranks[f] for f in keep], covers)
    except PolytopeError:
        return None


def pyramid_decompose(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> Optional[PolytopePoset]:
    """Some Q with join(Q, pt) isomorphic to P, or None.

    Only apex candidates are tried: removing everything above a candidate
    apex leaves the would-be base, which is rebuilt into a pyramid and
    compared against P.
    """
    if P.rank < 1:
        return None
    for v in pyramid_apex_candidates(P):
        candidate = _subposet_avoiding(P, v)
        if candidate is None or candidate.rank != P.rank - 1:
            continue
        if is_isomorphic(join(candidate, point()), P, max_elements=max_elements):
            return candidate
    return None


def prism_decompose(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> Optional[PolytopePoset]:
    """Some Q with cartesian(Q, I) isomorphic to P, or None.

    In a prism Q x I a copy of Q sits under a facet, so trying every facet
    section is exhaustive.
    """
    if P.rank < 1:
        return None
    for facet in P.faces_of_rank(P.rank - 1):
        candidate = section(P, P.bottom_face, facet)
        if is_isomorphic(cartesian(candidate, edge()), P, max_elements=max_elements):
            return candidate
    return None
