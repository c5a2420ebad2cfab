"""Axiom checker: boundedness, gradedness, diamond condition and strong
section connectivity, reported per category."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotBounded, NotGraded
from .poset import PolytopePoset, _bits

MAX_VIOLATIONS = 20


@dataclass
class ValidityReport:
    bounded: bool
    graded: bool
    diamond_ok: bool
    connected_ok: bool
    diamond_violations: list = field(default_factory=list)
    connectivity_violations: list = field(default_factory=list)

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
    (smaller sections are exempt by definition).
    """
    found = {type(v) for v in P.violations()}
    bounded = NotBounded not in found
    graded = NotGraded not in found

    ids = P.labels
    by_rank: dict[int, list[int]] = {}
    for i, rk in enumerate(P.ranks):
        by_rank.setdefault(rk, []).append(i)

    up, down = P.above, P.below

    diamond_violations = []
    for rf in sorted(by_rank):
        uppers = by_rank.get(rf + 2, [])
        if not uppers:
            continue
        for fi in by_rank[rf]:
            for gi in uppers:
                if not (up[fi] >> gi & 1):
                    continue
                middle = (up[fi] & down[gi]).bit_count() - 2
                if middle != 2:
                    diamond_violations.append((ids[fi], ids[gi], middle))
                    if len(diamond_violations) >= max_violations:
                        break
            if len(diamond_violations) >= max_violations:
                break
        if len(diamond_violations) >= max_violations:
            break

    connectivity_violations = []
    comp = [up[i] | down[i] for i in range(len(ids))]
    for rf in sorted(by_rank):
        for rg in sorted(by_rank):
            if rg - rf < 3:
                continue
            for fi in by_rank[rf]:
                for gi in by_rank[rg]:
                    if not (up[fi] >> gi & 1):
                        continue
                    proper = (up[fi] & down[gi]) & ~(1 << fi) & ~(1 << gi)
                    if proper and not _mask_connected(comp, proper):
                        connectivity_violations.append((ids[fi], ids[gi]))
                        if len(connectivity_violations) >= max_violations:
                            break
                if len(connectivity_violations) >= max_violations:
                    break
            if len(connectivity_violations) >= max_violations:
                break
        if len(connectivity_violations) >= max_violations:
            break

    return ValidityReport(
        bounded=bounded,
        graded=graded,
        diamond_ok=not diamond_violations,
        connected_ok=not connectivity_violations,
        diamond_violations=diamond_violations,
        connectivity_violations=connectivity_violations,
    )


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
