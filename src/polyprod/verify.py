"""Axiom checker: boundedness, gradedness, diamond condition and strong
section connectivity, reported per category.

Connectivity is decided in two stages. A ridge certificate (``_uncertified``)
works per top face G, bit-parallel over every F below it: the lower covers
of G that lie above F are joined through ridges above F, lower covers that
two of them share. A ridge R with F < R <= H, K is a face of the section
(F, G) below both H and K, so a certified section is connected. Every
section the certificate leaves open goes to the exact lower-cover test
``_connected``. In a polytope the facets of each section are connected
through its ridges, so the exact test never runs there; on other posets it
decides each open section exactly, and the report is the one the exact test
alone would give.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Container, Iterator, Sequence

from .errors import NotBounded, NotGraded
from .poset import PolytopePoset, _bits

MAX_VIOLATIONS = 20


@dataclass
class ValidityReport:
    bounded: bool
    graded: bool
    diamond_violations: list = field(default_factory=list)
    connectivity_violations: list = field(default_factory=list)

    @property
    def diamond_ok(self) -> bool:
        return not self.diamond_violations

    @property
    def connected_ok(self) -> bool:
        return not self.connectivity_violations

    @property
    def is_polytope(self) -> bool:
        return self.bounded and self.graded and self.diamond_ok and self.connected_ok

    def to_json(self) -> dict:
        failures = []
        if not self.bounded:
            failures.append({"check": "bounded"})
        if not self.graded:
            failures.append({"check": "graded"})
        for f, g, count in self.diamond_violations:
            failures.append(
                {"check": "diamond", "interval": [f, g], "middle_count": count}
            )
        for f, g in self.connectivity_violations:
            failures.append({"check": "connected", "section": [f, g]})
        return {"is_polytope": self.is_polytope, "failures": failures}


def verify_polytope(P: PolytopePoset) -> ValidityReport:
    """Check the four polytope axioms on any ranked poset.

    Boundedness and gradedness are read from ``P.violations()``, the checks
    the constructor enforces. The diamond check covers every interval of
    rank difference 2; the connectivity check covers every section of rank
    difference at least 3 (smaller sections are exempt by definition). The
    ridge certificate of ``_uncertified`` passes the sections whose facets
    are joined through ridges, which is sound since a shared ridge lies
    inside the section; the lower-cover test of ``_connected`` decides the
    rest exactly. Both checks visit their pairs F <= G by rank of F, rank of
    G, F, G, and each keeps its first ``MAX_VIOLATIONS`` (20) failures. The
    certified sections are connected, so skipping them changes neither
    list.
    """
    found = {type(v) for v in P.violations()}
    labels, up, down, lower = P.labels, P.above, P.below, P.lower
    diamonds = (
        (labels[f], labels[g], middle)
        for f, g in _intervals(P, (2,), up)
        if (middle := (up[f] & down[g]).bit_count() - 2) != 2
    )
    disconnected = (
        (labels[f], labels[g])
        for f, g in _intervals(P, range(3, P.rank - min(P.ranks) + 1), _uncertified(P))
        if (proper := up[f] & down[g] & ~(1 << f | 1 << g))
        and not _connected(down, [h for h in lower[g] if proper >> h & 1], proper)
    )
    return ValidityReport(
        bounded=NotBounded not in found,
        graded=NotGraded not in found,
        diamond_violations=list(islice(diamonds, MAX_VIOLATIONS)),
        connectivity_violations=list(islice(disconnected, MAX_VIOLATIONS)),
    )


def _intervals(
    P: PolytopePoset, gaps: Container[int], tops: Sequence[int]
) -> Iterator[tuple[int, int]]:
    """The pairs F <= G with G in ``tops[F]`` and rank G - rank F in
    ``gaps``, by rank of F, then rank of G, then F, then G. With ``P.above``
    as ``tops`` they are all the comparable pairs of those rank gaps."""
    by_rank: dict[int, list[int]] = {}
    rank_mask: dict[int, int] = {}
    for i, rk in enumerate(P.ranks):
        if tops[i]:
            by_rank.setdefault(rk, []).append(i)
        rank_mask[rk] = rank_mask.get(rk, 0) | 1 << i
    ranks = sorted(rank_mask)
    for rf in sorted(by_rank):
        for rg in ranks:
            if rg - rf in gaps:
                for f in by_rank[rf]:
                    for g in _bits(tops[f] & rank_mask[rg]):
                        yield f, g


def _uncertified(P: PolytopePoset) -> list[int]:
    """For each face F, the mask of the faces G, rank G - rank F >= 3, whose
    section (F, G) no ridge certificate shows connected.

    Fix G with two or more lower covers, and for each lower cover H let
    S_H be the F of rank at most rank G - 3 strictly below H: the F for
    which H lies inside the section (F, G). The mask ``reach[H]`` starts as
    the F whose first H is H. A ridge R, a lower cover of two or more of
    G's lower covers, joins the first H over it to each later one: it folds
    the F strictly below R that either of the two holds into both. The
    folds repeat, pass after pass, until a pass adds nothing or every
    ``reach[H]`` is S_H. So ``reach[H]`` holds F once H is joined to F's
    first H by a chain of ridges above F; this runs for every F below G at
    once, one bitmask per H.

    Such a ridge R <= H, K lies inside (F, G), in both D_H and D_K of
    ``_connected``, which is the relation that test folds on. So a pair
    (F, G) is connected when every H above F holds F; the pairs returned
    are the others, left to ``_connected``. In a polytope the facets of
    every section are connected through its ridges, so none is returned.
    """
    ranks, lower = P.ranks, P.lower
    n = len(ranks)
    strict = [m ^ 1 << i for i, m in enumerate(P.below)]
    rank_mask: dict[int, int] = {}
    for i, rk in enumerate(ranks):
        rank_mask[rk] = rank_mask.get(rk, 0) | 1 << i
    levels = sorted(rank_mask)
    upto, acc = [], 0  # upto[i]: the faces of rank at most levels[i]
    for rk in levels:
        acc |= rank_mask[rk]
        upto.append(acc)
    tops = [0] * n
    for g in range(n):
        covers = lower[g]
        if len(covers) < 2 or ranks[g] - levels[0] < 3:
            continue
        cut = upto[bisect_right(levels, ranks[g] - 3) - 1]
        wanted = [strict[h] & cut for h in covers]  # S_H for each lower cover H
        reach, seen, first, ridges = [], 0, {}, []
        for i, h in enumerate(covers):
            reach.append(wanted[i] & ~seen)
            seen |= wanted[i]
            for r in lower[h]:
                # a ridge joins the first lower cover over it to each later one
                j = first.setdefault(r, i)
                if j != i:
                    ridges.append((strict[r], j, i))
        grown = True
        while grown and reach != wanted:
            grown = False
            for below_r, i, j in ridges:
                a, b = reach[i], reach[j]
                m = (a | b) & below_r
                if m & ~a:
                    reach[i] = a | m
                    grown = True
                if m & ~b:
                    reach[j] = b | m
                    grown = True
        left = 0
        for want, held in zip(wanted, reach):
            left |= want & ~held
        if left:
            for f in _bits(left):
                tops[f] |= 1 << g
    return tops


def _connected(down: tuple[int, ...], coatoms: list[int], proper: int) -> bool:
    """Whether the faces ``proper`` strictly between F < G are connected by
    comparability, given ``coatoms``, the lower covers of G among them.

    Let M = ``proper`` and D_H = M & down[H]. Every x in M lies in some D_H
    with H a coatom: follow covers up from x to G; the face just before G
    is a lower cover of G above x, hence in M. Each D_H is connected, since
    all of it lies below H and H is in it. If x in D_H and y in D_K are
    comparable, say x <= y (the other case is symmetric), then x <= K, so x
    is in D_K too and the two sets meet. So M is connected exactly when the
    coatoms form one class under "their down-sets meet inside M". The proof
    uses only that the order is the reachability of the covers, not the
    diamond condition nor any induction on rank, so the answer is exact on
    every poset the constructor accepts.

    The region grows from the first coatom's D_H; each pass over the
    coatoms left folds in every D_H that meets it, until a pass adds none.
    """
    region = proper & down[coatoms[0]]
    rest = coatoms[1:]
    while rest:
        left = []
        for h in rest:
            if down[h] & region:
                region |= proper & down[h]
            else:
                left.append(h)
        if len(left) == len(rest):
            return False
        rest = left
    return True
