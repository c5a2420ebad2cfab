"""Axiom checker: boundedness, gradedness, diamond condition and strong
section connectivity, reported per category."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Container, Iterator

from .errors import NotBounded, NotGraded
from .poset import PolytopePoset, _bits, _cover_masks

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


def verify_polytope(P: PolytopePoset, max_violations: int = MAX_VIOLATIONS) -> ValidityReport:
    """Check the four polytope axioms on any ranked poset.

    Boundedness and gradedness are read from ``P.violations()``, the checks
    the constructor enforces. The diamond check covers every interval of
    rank difference 2; the connectivity check covers every section of rank
    difference at least 3 (smaller sections are exempt by definition), by
    the lower-cover test of ``_connected``. Both visit the comparable pairs
    F <= G by rank of F, rank of G, F, G, and each keeps its first
    ``max_violations`` failures, but at least one, since the diamond and
    connectivity verdicts are read from the lists.
    """
    found = {type(v) for v in P.violations()}
    labels, up, down = P.labels, P.above, P.below
    _, lower = _cover_masks(P)
    cap = max(max_violations, 1)
    diamonds = (
        (labels[f], labels[g], middle)
        for f, g in _intervals(P, (2,))
        if (middle := (up[f] & down[g]).bit_count() - 2) != 2
    )
    disconnected = (
        (labels[f], labels[g])
        for f, g in _intervals(P, range(3, P.rank - min(P.ranks) + 1))
        if (proper := up[f] & down[g] & ~(1 << f | 1 << g))
        and not _connected(down, lower[g] & proper, proper)
    )
    return ValidityReport(
        bounded=NotBounded not in found,
        graded=NotGraded not in found,
        diamond_violations=list(islice(diamonds, cap)),
        connectivity_violations=list(islice(disconnected, cap)),
    )


def _intervals(P: PolytopePoset, gaps: Container[int]) -> Iterator[tuple[int, int]]:
    """The pairs F <= G with rank G - rank F in ``gaps``, by rank of F, then
    rank of G, then F, then G."""
    by_rank: dict[int, list[int]] = {}
    rank_mask: dict[int, int] = {}
    for i, rk in enumerate(P.ranks):
        by_rank.setdefault(rk, []).append(i)
        rank_mask[rk] = rank_mask.get(rk, 0) | 1 << i
    ranks = sorted(by_rank)
    for rf in ranks:
        for rg in ranks:
            if rg - rf in gaps:
                for f in by_rank[rf]:
                    for g in _bits(P.above[f] & rank_mask[rg]):
                        yield f, g


def _connected(down: tuple[int, ...], coatoms: int, proper: int) -> bool:
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
    low = coatoms & -coatoms
    region = proper & down[low.bit_length() - 1]
    rest = coatoms ^ low
    while rest:
        left = pending = rest
        while pending:
            bit = pending & -pending
            pending ^= bit
            below_h = down[bit.bit_length() - 1]
            if below_h & region:
                region |= proper & below_h
                left ^= bit
        if left == rest:
            return False
        rest = left
    return True
