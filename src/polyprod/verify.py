"""Axiom checker: boundedness, gradedness, diamond condition and strong
section connectivity, reported per category."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Container, Iterator

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


def verify_polytope(P: PolytopePoset, max_violations: int = MAX_VIOLATIONS) -> ValidityReport:
    """Check the four polytope axioms on any ranked poset.

    Boundedness and gradedness are read from ``P.violations()``, the checks
    the constructor enforces. The diamond check covers every interval of
    rank difference 2; the connectivity check walks the comparability graph
    of proper elements of every section of rank difference at least 3
    (smaller sections are exempt by definition). Both visit the comparable
    pairs F <= G by rank of F, rank of G, F, G, and each keeps its first
    ``max_violations`` failures, but at least one, since the diamond and
    connectivity verdicts are read from the lists.
    """
    found = {type(v) for v in P.violations()}
    labels, up, down = P.labels, P.above, P.below
    comp = [u | d for u, d in zip(up, down)]
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
        and not _mask_connected(comp, proper)
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


def _mask_connected(comp: list[int], members: int) -> bool:
    start = 1 << ((members & -members).bit_length() - 1)
    seen = start
    frontier = start
    while frontier:
        grown = seen
        for i in _bits(frontier):
            grown |= comp[i] & members
        frontier = grown & ~seen
        seen = grown
    return seen == members
