"""Ranked face posets: the carrier type plus sections, flags and isomorphism.

A polytope is stored as its Hasse diagram (cover relation) together with
precomputed reachability bitsets, so order queries, sections and the
backtracking searches are all cheap bit operations.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional

from .errors import (
    DanglingCover,
    DuplicateId,
    NotBounded,
    NotComparable,
    NotGraded,
    SearchBudgetExceeded,
    UnknownId,
)

DEFAULT_SEARCH_CAP = 1000


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PolytopePoset:
    """Immutable ranked poset with unique bottom (rank -1) and top.

    ``provenance`` maps product-built element ids to the pair of parent ids
    they came from; generator construction relies on it.
    """

    __slots__ = (
        "_ids",
        "_rank_of",
        "_index",
        "covers",
        "rank",
        "provenance",
        "_up",
        "_down",
        "_upper_covers",
        "_lower_covers",
        "bottom",
        "top",
    )

    def __init__(self, elements, covers, provenance=None, check=True):
        ids = []
        rank_of = {}
        for eid, rk in elements:
            if eid in rank_of:
                raise DuplicateId(f"duplicate element id {eid!r}")
            rank_of[eid] = rk
            ids.append(eid)
        self._ids = tuple(ids)
        self._rank_of = rank_of
        self._index = {eid: i for i, eid in enumerate(ids)}

        covers = frozenset(covers)
        for a, b in covers:
            if a not in rank_of or b not in rank_of:
                raise DanglingCover(f"cover ({a!r}, {b!r}) references unknown id")
        self.covers = covers

        n = len(ids)
        upper = [[] for _ in range(n)]
        lower = [[] for _ in range(n)]
        for a, b in covers:
            upper[self._index[a]].append(self._index[b])
            lower[self._index[b]].append(self._index[a])
        self._upper_covers = tuple(tuple(sorted(u)) for u in upper)
        self._lower_covers = tuple(tuple(sorted(l)) for l in lower)

        self._up = self._reachability(self._upper_covers)
        self._down = self._reachability(self._lower_covers)

        min_rank = min(rank_of.values())
        max_rank = max(rank_of.values())
        bottoms = [e for e in ids if rank_of[e] == min_rank]
        tops = [e for e in ids if rank_of[e] == max_rank]
        self.rank = max_rank
        self.bottom = bottoms[0] if len(bottoms) == 1 else None
        self.top = tops[0] if len(tops) == 1 else None
        self.provenance = dict(provenance) if provenance else {}

        if check:
            self._check_invariants(min_rank)

    # -- construction checks ------------------------------------------------

    def _reachability(self, adjacency):
        """Reflexive-transitive closure as bitmasks; rejects cycles."""
        n = len(self._ids)
        masks: list[Optional[int]] = [None] * n
        on_stack = [False] * n
        for start in range(n):
            if masks[start] is not None:
                continue
            stack = [(start, 0)]
            on_stack[start] = True
            while stack:
                node, child = stack[-1]
                if child < len(adjacency[node]):
                    stack[-1] = (node, child + 1)
                    nxt = adjacency[node][child]
                    if masks[nxt] is not None:
                        continue
                    if on_stack[nxt]:
                        raise NotGraded("cover relation contains a cycle")
                    on_stack[nxt] = True
                    stack.append((nxt, 0))
                else:
                    m = 1 << node
                    for nxt in adjacency[node]:
                        m |= masks[nxt]
                    masks[node] = m
                    on_stack[node] = False
                    stack.pop()
        return tuple(masks)

    def _check_invariants(self, min_rank):
        for a, b in self.covers:
            if self._rank_of[b] != self._rank_of[a] + 1:
                raise NotGraded(
                    f"cover ({a!r}, {b!r}) does not raise rank by exactly 1"
                )
        if min_rank != -1:
            raise NotBounded("minimal rank must be -1")
        if self.bottom is None:
            raise NotBounded("more than one element of minimal rank")
        if self.top is None:
            raise NotBounded("more than one element of maximal rank")
        bi = self._index[self.bottom]
        ti = self._index[self.top]
        full = (1 << len(self._ids)) - 1
        if self._up[bi] != full or self._down[ti] != full:
            raise NotBounded("not every element lies between bottom and top")
        for i, eid in enumerate(self._ids):
            if eid != self.bottom and not self._lower_covers[i]:
                raise NotGraded(f"element {eid!r} has no lower cover")
            if eid != self.top and not self._upper_covers[i]:
                raise NotGraded(f"element {eid!r} has no upper cover")

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def element_ids(self) -> tuple[str, ...]:
        return self._ids

    def rank_of(self, eid: str) -> int:
        try:
            return self._rank_of[eid]
        except KeyError:
            raise UnknownId(f"unknown element id {eid!r}") from None

    def elements(self) -> list[tuple[str, int]]:
        return [(eid, self._rank_of[eid]) for eid in self._ids]

    def elements_of_rank(self, rk: int) -> list[str]:
        return [eid for eid in self._ids if self._rank_of[eid] == rk]

    def less_eq(self, a: str, b: str) -> bool:
        if a not in self._index:
            raise UnknownId(f"unknown element id {a!r}")
        if b not in self._index:
            raise UnknownId(f"unknown element id {b!r}")
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def upper_covers(self, eid: str) -> list[str]:
        return [self._ids[j] for j in self._upper_covers[self._index[eid]]]

    def lower_covers(self, eid: str) -> list[str]:
        return [self._ids[j] for j in self._lower_covers[self._index[eid]]]

    def up_mask(self, eid: str) -> int:
        return self._up[self._index[eid]]

    def down_mask(self, eid: str) -> int:
        return self._down[self._index[eid]]


class Section:
    """The interval G/F of a polytope, re-ranked so F sits at rank -1."""

    __slots__ = ("carrier",)

    def __init__(self, carrier: PolytopePoset):
        self.carrier = carrier


def from_components(elements, covers, provenance=None) -> PolytopePoset:
    """Build a poset from (id, rank) pairs and cover pairs, checking the
    structural invariants (unique bounds, gradedness, acyclicity)."""
    return PolytopePoset(elements, covers, provenance=provenance, check=True)


def less_eq(P: PolytopePoset, a: str, b: str) -> bool:
    return P.less_eq(a, b)


def section(P: PolytopePoset, F: str, G: str) -> Section:
    if not P.less_eq(F, G):
        raise NotComparable(f"{F!r} is not below {G!r}")
    shift = P.rank_of(F) + 1
    member = P.up_mask(F) & P.down_mask(G)
    ids = P.element_ids()
    keep = {ids[i] for i in _bits(member)}
    elements = [(eid, P.rank_of(eid) - shift) for eid in ids if eid in keep]
    covers = [(a, b) for a, b in P.covers if a in keep and b in keep]
    return Section(PolytopePoset(elements, covers, check=True))


def flags(P: PolytopePoset) -> list[tuple[str, ...]]:
    """All maximal chains from bottom to top, in lexicographic id order."""
    out: list[tuple[str, ...]] = []
    chain = [P.bottom]

    def extend(eid: str) -> None:
        ups = sorted(P.upper_covers(eid))
        if not ups:
            out.append(tuple(chain))
            return
        for nxt in ups:
            chain.append(nxt)
            extend(nxt)
            chain.pop()

    extend(P.bottom)
    return out


# -- isomorphism search ------------------------------------------------------


def _signature(P: PolytopePoset, i: int) -> tuple[int, int, int, int, int]:
    eid = P._ids[i]
    return (
        P._rank_of[eid],
        len(P._lower_covers[i]),
        len(P._upper_covers[i]),
        P._down[i].bit_count(),
        P._up[i].bit_count(),
    )


def _cover_masks(covers: tuple[tuple[int, ...], ...]) -> list[int]:
    masks = []
    for neighbours in covers:
        m = 0
        for j in neighbours:
            m |= 1 << j
        masks.append(m)
    return masks


def order_isomorphisms(
    P: PolytopePoset,
    Q: PolytopePoset,
    max_elements: int = DEFAULT_SEARCH_CAP,
    pins: Optional[dict[str, str]] = None,
) -> Iterator[dict[str, str]]:
    """Yield every order- and rank-preserving bijection P -> Q.

    ``pins`` maps elements of P to the images they must have in Q; only the
    bijections that agree with it are yielded. Each pinned element's domain
    shrinks to its one image, so pinning a flag prefix of P asks whether
    that partial map extends, the query the automorphism stabilizer chain
    is built from.

    Method: backtracking over elements. An element's domain starts as the
    elements of Q with its signature (rank, cover degrees, down-set and
    up-set sizes). Assigning F -> G narrows the live candidates of every
    unassigned cover-neighbour of F to the matching cover-neighbours of G,
    so a completed assignment maps every cover of P onto a cover of Q. It
    is then an order isomorphism: it is injective on covers and both posets
    have the same number of covers, since their signature multisets agree.

    The next element comes from a queue of cover-neighbours of assigned
    elements that were left with at most one live candidate (forced, or a
    dead end to back out of). Only when the queue runs dry, at a true
    branch point, are the unassigned elements scanned for the fewest live
    candidates. In a polytope the images of a flag force every other face
    (diamond condition plus strong flag connectivity), so a search with a
    flag pinned takes no branch at all.
    """
    n = len(P)
    if len(Q) != n:
        return
    if n > max_elements:
        raise SearchBudgetExceeded(
            f"poset has {n} elements, above the cap of {max_elements}"
        )
    sig_p = [_signature(P, i) for i in range(n)]
    sig_q = [_signature(Q, j) for j in range(n)]
    if Counter(sig_p) != Counter(sig_q):
        return

    sig_mask: dict[tuple, int] = {}
    for j, s in enumerate(sig_q):
        sig_mask[s] = sig_mask.get(s, 0) | (1 << j)
    live = [sig_mask[s] for s in sig_p]
    for a, b in (pins or {}).items():
        i = P._index[a]
        live[i] &= 1 << Q._index[b]
        if not live[i]:
            return

    up_p, down_p = P._upper_covers, P._lower_covers
    up_q, down_q = _cover_masks(Q._upper_covers), _cover_masks(Q._lower_covers)
    mapping = [-1] * n
    used = 0
    trail: list[tuple[int, int]] = []  # (element, live mask before narrowing)
    assigned: list[tuple[int, int, int]] = []  # (element, len(trail), len(queue))
    queue = [i for i in range(n) if live[i].bit_count() == 1]
    head = 0

    def select() -> int:
        nonlocal head
        while head < len(queue):
            i = queue[head]
            head += 1
            if mapping[i] < 0:
                return i
        free = ~used
        best, best_count = -1, n + 1
        for i in range(n):
            if mapping[i] < 0:
                count = (live[i] & free).bit_count()
                if count < best_count:
                    best, best_count = i, count
        return best

    def candidates(i: int) -> list[int]:
        return list(_bits(live[i] & ~used))

    def assign(i: int, j: int) -> None:
        nonlocal used
        mapping[i] = j
        used |= 1 << j
        assigned.append((i, len(trail), len(queue)))
        free = ~used
        for neighbours, images in ((up_p[i], up_q[j]), (down_p[i], down_q[j])):
            for a in neighbours:
                if mapping[a] >= 0:
                    continue
                old = live[a]
                new = old & images
                if new != old:
                    trail.append((a, old))
                    live[a] = new
                if (new & free).bit_count() <= 1:
                    queue.append(a)

    def unassign() -> None:
        nonlocal used
        i, mark, queued = assigned.pop()
        used &= ~(1 << mapping[i])
        mapping[i] = -1
        while len(trail) > mark:
            a, old = trail.pop()
            live[a] = old
        del queue[queued:]

    # frames: [element index, candidate list, next candidate position,
    #          queue head before the element was selected]
    first = select()
    stack = [[first, candidates(first), 0, 0]]
    while stack:
        frame = stack[-1]
        i, cands, pos, head_before = frame
        if assigned and assigned[-1][0] == i:
            unassign()
        if pos >= len(cands):
            stack.pop()
            head = head_before
            continue
        frame[2] = pos + 1
        assign(i, cands[pos])
        if len(assigned) == n:
            yield {P._ids[a]: Q._ids[mapping[a]] for a in range(n)}
        else:
            head_before = head
            nxt = select()
            stack.append([nxt, candidates(nxt), 0, head_before])


def is_isomorphic(
    P: PolytopePoset,
    Q: PolytopePoset,
    max_elements: int = DEFAULT_SEARCH_CAP,
) -> Optional[dict[str, str]]:
    """A rank- and order-preserving bijection P -> Q, or None."""
    return next(order_isomorphisms(P, Q, max_elements=max_elements), None)


# -- atoms --------------------------------------------------------------------


def point() -> PolytopePoset:
    """The unique rank-0 polytope pt."""
    return from_components([("0", -1), ("1", 0)], [("0", "1")])


def edge() -> PolytopePoset:
    """The unique rank-1 polytope I (two vertices under one edge)."""
    return from_components(
        [("0", -1), ("a", 0), ("b", 0), ("1", 1)],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    )


# -- serialization -------------------------------------------------------------


def to_json(P: PolytopePoset) -> dict:
    return {
        "rank": P.rank,
        "elements": [{"id": eid, "rank": rk} for eid, rk in P.elements()],
        "covers": sorted([a, b] for a, b in P.covers),
    }


def from_json(data: dict, check: bool = True) -> PolytopePoset:
    elements = [(e["id"], e["rank"]) for e in data["elements"]]
    covers = [(a, b) for a, b in data["covers"]]
    return PolytopePoset(elements, covers, check=check)


def to_dot(P: PolytopePoset) -> str:
    lines = ["digraph poset {", "  rankdir=BT;"]
    for eid, rk in P.elements():
        lines.append(f'  "{eid}" [label="{eid}:{rk}"];')
    by_rank: dict[int, list[str]] = {}
    for eid, rk in P.elements():
        by_rank.setdefault(rk, []).append(eid)
    for rk in sorted(by_rank):
        members = "; ".join(f'"{eid}"' for eid in sorted(by_rank[rk]))
        lines.append(f"  {{ rank=same; {members}; }}")
    for a, b in sorted(P.covers):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)
