"""Ranked face posets: the carrier type plus sections, flags and isomorphism.

Faces are the indices 0..n-1. A polytope is stored as its Hasse diagram
(the upper and lower covers of every face) together with precomputed
reachability bitsets, so order queries, sections and the backtracking
searches are all cheap bit operations. Each face also has a string id, its
label. Labels are translated to faces and back only in this module: by the
label API on the poset, by ``from_components``/``from_json`` and by the
serializers.
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
    ParseError,
    PolytopeError,
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
    """Immutable ranked poset, normally with unique bottom (rank -1) and top.

    Face i has label ``labels[i]`` and rank ``ranks[i]``; ``upper[i]`` and
    ``lower[i]`` are its upper and lower covers in ascending order, and
    ``above[i]``/``below[i]`` the bitmasks of the faces >= i and <= i.
    ``bottom_face``/``top_face`` are the unique faces of least and greatest
    rank, or None. The methods taking or returning ids are the label API.
    """

    __slots__ = (
        "labels",
        "ranks",
        "rank",
        "upper",
        "lower",
        "above",
        "below",
        "bottom_face",
        "top_face",
        "_index",
    )

    def __init__(self, labels, ranks, covers, check=True):
        """Faces are given by their labels and ranks, covers as pairs (i, j)
        of faces with j covering i. Duplicate labels, cycles and an empty
        face set are always rejected; with ``check`` the first structural
        violation (see ``violations``) is raised too."""
        self.labels = tuple(labels)
        self.ranks = tuple(ranks)
        n = len(self.labels)
        self._index = {}
        for i, eid in enumerate(self.labels):
            if eid in self._index:
                raise DuplicateId(f"duplicate element id {eid!r}")
            self._index[eid] = i
        if not n:
            raise NotBounded("poset has no elements")

        upper = [[] for _ in range(n)]
        lower = [[] for _ in range(n)]
        for a, b in covers:
            upper[a].append(b)
            lower[b].append(a)
        self.upper = tuple(tuple(sorted(u)) for u in upper)
        self.lower = tuple(tuple(sorted(l)) for l in lower)

        self.above = self._reachability(self.upper)
        self.below = self._reachability(self.lower)

        min_rank = min(self.ranks)
        self.rank = max(self.ranks)
        bottoms = [i for i in range(n) if self.ranks[i] == min_rank]
        tops = [i for i in range(n) if self.ranks[i] == self.rank]
        self.bottom_face = bottoms[0] if len(bottoms) == 1 else None
        self.top_face = tops[0] if len(tops) == 1 else None

        if check:
            first = next(self.violations(), None)
            if first is not None:
                raise first

    # -- construction checks ------------------------------------------------

    def _reachability(self, adjacency):
        """Reflexive-transitive closure as bitmasks; rejects cycles."""
        n = len(adjacency)
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

    def violations(self) -> Iterator[PolytopeError]:
        """The structural defects, in the order the constructor checks them:
        covers that do not raise rank by one (NotGraded), then at most one
        boundedness defect (NotBounded), then faces above rank -1 without a
        lower cover or below the top rank without an upper cover (NotGraded).
        ``verify_polytope`` reads its bounded and graded verdicts from here."""
        labels, ranks = self.labels, self.ranks
        for a, ups in enumerate(self.upper):
            for b in ups:
                if ranks[b] != ranks[a] + 1:
                    yield NotGraded(
                        f"cover ({labels[a]!r}, {labels[b]!r}) does not raise rank by exactly 1"
                    )
        full = (1 << len(labels)) - 1
        if min(ranks) != -1:
            yield NotBounded("minimal rank must be -1")
        elif self.bottom_face is None:
            yield NotBounded("more than one element of minimal rank")
        elif self.top_face is None:
            yield NotBounded("more than one element of maximal rank")
        elif self.above[self.bottom_face] != full or self.below[self.top_face] != full:
            yield NotBounded("not every element lies between bottom and top")
        for i, rk in enumerate(ranks):
            if rk > -1 and not self.lower[i]:
                yield NotGraded(f"element {labels[i]!r} has no lower cover")
            if rk < self.rank and not self.upper[i]:
                yield NotGraded(f"element {labels[i]!r} has no upper cover")

    # -- faces ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def faces_of_rank(self, rk: int) -> list[int]:
        return [i for i, r in enumerate(self.ranks) if r == rk]

    # -- label API --------------------------------------------------------------

    def face(self, eid: str) -> int:
        try:
            return self._index[eid]
        except KeyError:
            raise UnknownId(f"unknown element id {eid!r}") from None

    @property
    def bottom(self) -> Optional[str]:
        return None if self.bottom_face is None else self.labels[self.bottom_face]

    @property
    def top(self) -> Optional[str]:
        return None if self.top_face is None else self.labels[self.top_face]

    @property
    def covers(self) -> frozenset[tuple[str, str]]:
        return frozenset(_label_covers(self))

    def element_ids(self) -> tuple[str, ...]:
        return self.labels

    def rank_of(self, eid: str) -> int:
        return self.ranks[self.face(eid)]

    def elements(self) -> list[tuple[str, int]]:
        return list(zip(self.labels, self.ranks))

    def elements_of_rank(self, rk: int) -> list[str]:
        return [self.labels[i] for i in self.faces_of_rank(rk)]

    def less_eq(self, a: str, b: str) -> bool:
        return bool(self.above[self.face(a)] >> self.face(b) & 1)

    def upper_covers(self, eid: str) -> list[str]:
        return [self.labels[j] for j in self.upper[self.face(eid)]]

    def up_mask(self, eid: str) -> int:
        return self.above[self.face(eid)]


def _label_covers(P: PolytopePoset) -> Iterator[tuple[str, str]]:
    labels = P.labels
    for a, ups in enumerate(P.upper):
        for b in ups:
            yield labels[a], labels[b]


def from_components(elements, covers, check=True) -> PolytopePoset:
    """Build a poset from (id, rank) pairs and (lower id, upper id) cover
    pairs; repeated covers count once. With ``check`` (the default) the
    structural invariants (unique bounds, gradedness) are enforced."""
    elements = list(elements)
    index = {eid: i for i, (eid, _) in enumerate(elements)}
    faces = set()
    for a, b in covers:
        if a not in index or b not in index:
            raise DanglingCover(f"cover ({a!r}, {b!r}) references unknown id")
        faces.add((index[a], index[b]))
    return PolytopePoset(
        [eid for eid, _ in elements], [rk for _, rk in elements], faces, check=check
    )


def less_eq(P: PolytopePoset, a: str, b: str) -> bool:
    return P.less_eq(a, b)


def section(P: PolytopePoset, F: int, G: int) -> PolytopePoset:
    """The interval G/F between faces F <= G, re-ranked so F sits at rank -1.
    Its faces keep their order and labels; NotComparable unless F <= G."""
    if not P.above[F] >> G & 1:
        raise NotComparable(f"{P.labels[F]!r} is not below {P.labels[G]!r}")
    return _induced(P, P.above[F] & P.below[G], P.ranks[F] + 1)


def _induced(P: PolytopePoset, keep: int, shift: int) -> PolytopePoset:
    """The subposet on the faces in the bitmask ``keep``, in ascending order
    with their labels, P's covers among them and their ranks lowered by
    ``shift``. The constructor's checks apply."""
    faces = list(_bits(keep))
    new = {f: i for i, f in enumerate(faces)}
    covers = [(new[a], new[b]) for a in faces for b in P.upper[a] if b in new]
    return PolytopePoset(
        [P.labels[f] for f in faces], [P.ranks[f] - shift for f in faces], covers
    )


def flags(P: PolytopePoset) -> list[tuple[str, ...]]:
    """All maximal chains from bottom to top, in lexicographic id order."""
    labels = P.labels
    out: list[tuple[str, ...]] = []
    chain = [P.bottom_face]

    def extend(f: int) -> None:
        ups = sorted(P.upper[f], key=labels.__getitem__)
        if not ups:
            out.append(tuple(labels[g] for g in chain))
            return
        for nxt in ups:
            chain.append(nxt)
            extend(nxt)
            chain.pop()

    extend(P.bottom_face)
    return out


# -- isomorphism search ------------------------------------------------------


def _signature(P: PolytopePoset, i: int) -> tuple[int, int, int, int, int]:
    return (
        P.ranks[i],
        len(P.lower[i]),
        len(P.upper[i]),
        P.below[i].bit_count(),
        P.above[i].bit_count(),
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
    pins: Optional[dict[int, int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every order- and rank-preserving bijection P -> Q, as the tuple
    of the images of P's faces.

    ``pins`` maps faces of P to the faces of Q they must map to; only the
    bijections that agree with it are yielded. Each pinned face's domain
    shrinks to its one image, so pinning a flag prefix of P asks whether
    that partial map extends, the query the automorphism stabilizer chain
    is built from.

    Method: backtracking over faces. A face's domain starts as the faces of
    Q with its signature (rank, cover degrees, down-set and up-set sizes).
    Assigning F -> G narrows the live candidates of every unassigned
    cover-neighbour of F to the matching cover-neighbours of G, so a
    completed assignment maps every cover of P onto a cover of Q. It is then
    an order isomorphism: it is injective on covers and both posets have the
    same number of covers, since their signature multisets agree.

    The next face comes from a queue of cover-neighbours of assigned faces
    that were left with at most one live candidate (forced, or a dead end to
    back out of). Only when the queue runs dry, at a true branch point, are
    the unassigned faces scanned for the fewest live candidates. In a
    polytope the images of a flag force every other face (diamond condition
    plus strong flag connectivity), so a search with a flag pinned takes no
    branch at all.
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
    for i, j in (pins or {}).items():
        live[i] &= 1 << j
        if not live[i]:
            return

    up_p, down_p = P.upper, P.lower
    up_q, down_q = _cover_masks(Q.upper), _cover_masks(Q.lower)
    mapping = [-1] * n
    used = 0
    trail: list[tuple[int, int]] = []  # (face, live mask before narrowing)
    assigned: list[tuple[int, int, int]] = []  # (face, len(trail), len(queue))
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

    # frames: [face, candidate list, next candidate position,
    #          queue head before the face was selected]
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
            yield tuple(mapping)
        else:
            head_before = head
            nxt = select()
            stack.append([nxt, candidates(nxt), 0, head_before])


def is_isomorphic(
    P: PolytopePoset,
    Q: PolytopePoset,
    max_elements: int = DEFAULT_SEARCH_CAP,
) -> Optional[dict[str, str]]:
    """A rank- and order-preserving bijection P -> Q as a dict of ids, or None."""
    hit = next(order_isomorphisms(P, Q, max_elements=max_elements), None)
    if hit is None:
        return None
    return {P.labels[i]: Q.labels[j] for i, j in enumerate(hit)}


# -- atoms --------------------------------------------------------------------


def point() -> PolytopePoset:
    """The unique rank-0 polytope pt."""
    return PolytopePoset(("0", "1"), (-1, 0), [(0, 1)])


def edge() -> PolytopePoset:
    """The unique rank-1 polytope I (two vertices under one edge)."""
    return PolytopePoset(
        ("0", "a", "b", "1"), (-1, 0, 0, 1), [(0, 1), (0, 2), (1, 3), (2, 3)]
    )


# -- serialization -------------------------------------------------------------


def to_json(P: PolytopePoset) -> dict:
    return {
        "rank": P.rank,
        "elements": [{"id": eid, "rank": rk} for eid, rk in zip(P.labels, P.ranks)],
        "covers": sorted([a, b] for a, b in _label_covers(P)),
    }


_SCALAR = (str, int, float)


def from_json(data: dict, check: bool = True) -> PolytopePoset:
    """The poset ``to_json`` wrote. ParseError when ``data`` lacks the
    elements or covers list, an element its id or integer rank, or a cover
    is not a pair of ids (strings or numbers)."""
    try:
        elements = [(e["id"], e["rank"]) for e in data["elements"]]
        covers = [(a, b) for a, b in data["covers"]]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed poset: {exc}") from None
    if not all(isinstance(eid, _SCALAR) and type(rk) is int for eid, rk in elements):
        raise ParseError("element ids must be strings or numbers, ranks integers")
    if not all(isinstance(x, _SCALAR) for cover in covers for x in cover):
        raise ParseError("covers must be pairs of element ids")
    return from_components(elements, covers, check=check)


def to_dot(P: PolytopePoset) -> str:
    # ids go inside DOT's double-quoted strings, where \ and " must be escaped
    name = {eid: str(eid).replace("\\", "\\\\").replace('"', '\\"') for eid in P.labels}
    lines = ["digraph poset {", "  rankdir=BT;"]
    for eid, rk in zip(P.labels, P.ranks):
        lines.append(f'  "{name[eid]}" [label="{name[eid]}:{rk}"];')
    by_rank: dict[int, list[str]] = {}
    for eid, rk in zip(P.labels, P.ranks):
        by_rank.setdefault(rk, []).append(eid)
    for rk in sorted(by_rank):
        members = "; ".join(f'"{name[eid]}"' for eid in sorted(by_rank[rk]))
        lines.append(f"  {{ rank=same; {members}; }}")
    for a, b in sorted(_label_covers(P)):
        lines.append(f'  "{name[a]}" -> "{name[b]}";')
    lines.append("}")
    return "\n".join(lines)
