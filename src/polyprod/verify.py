"""Axiom checker: boundedness, gradedness, diamond condition and strong
section connectivity, reported per category.

The diamond condition and connectivity are both first settled by one walk
(``_certify``) over each face G's lower covers H and their lower covers R.
The walk tallies the paths R < H < G: when every cover raises rank by one,
these are the middle faces of the intervals (R, G) of rank difference 2,
so when every R is reached exactly twice every such interval is a diamond.
The same walk folds the ridges R, shared by two lower covers of G, into a
certificate worked per top face G, bit-parallel over every F below it: the
lower covers of G that lie above F are joined through ridges above F. A
ridge R with F < R <= H, K is a face of the section (F, G) below both H and
K, so a certified section is connected.

What the walk leaves unsettled goes to the exact tests, which write the
report's lists. When the tally fails, or a cover skips a rank, every
interval of rank difference 2 is counted in order. Every section the
certificate leaves open goes to the exact lower-cover test ``_connected``.
On the polytopes the products build the tally holds and the walk joins
every section, so no exact test runs there; elsewhere they decide
exactly, and the report is the one the exact tests alone would give.
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
    difference at least 3 (smaller sections are exempt by definition).
    Both are first settled by the one walk of ``_certify``: its tally of
    the paths R < H < G shows every interval of rank difference 2 a
    diamond, and its one pass of ridge folds passes the sections whose
    facets it joins through ridges, which is sound since a shared ridge
    lies inside the section. Only what the walk leaves unsettled reads
    ``P.above`` and is decided exactly: every interval of rank difference
    2 is counted when the tally fails, and the lower-cover test of
    ``_connected`` decides each section left open. Both exact checks visit
    their pairs F <= G by rank of F, rank of G, F, G, and each keeps its
    first ``MAX_VIOLATIONS`` (20) failures. A settled check has no failure,
    so skipping it changes neither list.
    """
    found = {type(v) for v in P.violations()}
    diamonds_hold, tops = _certify(P)
    labels, down, lower = P.labels, P.below, P.lower
    diamonds, disconnected = [], []
    if not diamonds_hold:
        up = P.above
        diamonds = list(islice((
            (labels[f], labels[g], middle)
            for f, g in _intervals(P, (2,), up)
            if (middle := (up[f] & down[g]).bit_count() - 2) != 2
        ), MAX_VIOLATIONS))
    if any(tops):
        up = P.above
        disconnected = list(islice((
            (labels[f], labels[g])
            for f, g in _intervals(P, range(3, P.rank - min(P.ranks) + 1), tops)
            if (proper := up[f] & down[g] & ~(1 << f | 1 << g))
            and not _connected(down, [h for h in lower[g] if proper >> h & 1], proper)
        ), MAX_VIOLATIONS))
    return ValidityReport(
        bounded=NotBounded not in found,
        graded=NotGraded not in found,
        diamond_violations=diamonds,
        connectivity_violations=disconnected,
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


def _certify(P: PolytopePoset) -> tuple[bool, list[int]]:
    """One walk over each face G's lower covers H and their lower covers R.
    It returns whether the tally shows every interval of rank difference 2
    a diamond, and for each face F the mask of the faces G, rank G - rank F
    >= 3, whose section (F, G) no ridge certificate shows connected.

    The tally. Each R is counted once per path R < H < G, in one dict per
    G: the first sighting stores the index of its H among G's lower
    covers, the second overwrites it with a negative mark (its complement),
    a third fails the tally. When every cover raises rank by one
    (``P._rank_steps``), the faces two ranks below G under it are the R
    reached, and the faces strictly between R and G are the H that reach
    it. So if no R is left with one sighting or reached a third time,
    every interval of rank difference 2 is a diamond. Otherwise, or when a
    cover skips a rank, the tally does not hold and the caller counts
    every interval exactly.

    The certificate. Fix G with two or more lower covers, and for each
    lower cover H let S_H be the F of rank at most rank G - 3 strictly
    below H: the F for which H lies inside the section (F, G). The mask
    ``reach[H]`` starts as the F whose first H is H. A ridge R, a lower
    cover of two or more of G's lower covers, joins the first H over it to
    each later one: the walk folds the F strictly below R that either of
    the two holds into both, as soon as it sights R again. Each ridge is
    folded once, in the order the walk sights it, for every F below G at
    once, one bitmask per H. So ``reach[H]`` holds F only when H is joined
    to F's first H by a chain of ridges above F, though a chain whose
    ridges the walk sights in another order may leave it short of S_H.

    Such a ridge R <= H, K lies inside (F, G), in both D_H and D_K of
    ``_connected``, which is the relation that test folds on. So a pair
    (F, G) is connected when every H above F holds F; the pairs returned
    are the others, left to ``_connected``. On the polytopes the products
    lay out, the one pass joins every section and none is returned; on a
    polytope stored with its faces in another order, a few sections can
    be returned, and ``_connected`` passes them.
    """
    ranks, lower = P.ranks, P.lower
    strict = [m ^ 1 << i for i, m in enumerate(P.below)]
    rank_mask: dict[int, int] = {}
    for i, rk in enumerate(ranks):
        rank_mask[rk] = rank_mask.get(rk, 0) | 1 << i
    levels = sorted(rank_mask)
    upto, acc = [], 0  # upto[i]: the faces of rank at most levels[i]
    for rk in levels:
        acc |= rank_mask[rk]
        upto.append(acc)
    hold = P._rank_steps
    tops = [0] * len(ranks)
    for g, covers in enumerate(lower):
        if len(covers) > 1 and ranks[g] - 3 >= levels[0]:
            cut = upto[bisect_right(levels, ranks[g] - 3) - 1]
        elif hold:  # no section to certify, but the tally still counts
            cut = 0
        else:
            continue
        wanted = [strict[h] & cut for h in covers]  # S_H for each lower cover H
        reach, seen, first = [], 0, {}
        for i, h in enumerate(covers):
            reach.append(wanted[i] & ~seen)
            seen |= wanted[i]
            for r in lower[h]:
                j = first.setdefault(r, i)
                if j == i:
                    continue
                if j < 0:  # a third sighting
                    hold = False
                    j = ~j
                else:
                    first[r] = ~j
                # the ridge r joins the first lower cover over it to this one
                a, b = reach[j], reach[i]
                m = (a | b) & strict[r]
                reach[j], reach[i] = a | m, b | m
        if hold and first and max(first.values()) >= 0:  # an R sighted once
            hold = False
        if reach != wanted:  # the F some lower cover of G is not joined to
            left = 0
            for want, held in zip(wanted, reach):
                left |= want & ~held
            for f in _bits(left):
                tops[f] |= 1 << g
    return hold, tops


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
