"""Ranked face posets: the carrier type plus sections, flags and isomorphism.

Faces are the indices 0..n-1. A polytope is stored as its Hasse diagram
(the upper and lower covers of every face); its order tables are bitsets,
so order queries, sections and the backtracking searches are all cheap bit
operations. The constructor orders the faces topologically, which rejects
cover cycles, and builds no table. Each order table is derived once per
poset, in one place, on its first read: the reachability bitsets ``above``
and ``below`` by ``_closures``, folded along a topological order, for the
verifier, the search signatures, ``section``, the decomposition oracles and
``less_eq``/``up_mask``; the cover masks by ``_cover_masks``, shared by the
verifier and the searches; the search tables by ``_search_tables``. A
poset that only feeds a product, is written out or has its flags permuted
builds none of them. Each face also has a string id, its
label. Labels are translated to faces and back only in this module: by the
label API on the poset, by ``from_components``/``from_json`` and by the
serializers.
"""

from __future__ import annotations

import json
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
    ``above[i]``/``below[i]`` the bitmasks of the faces >= i and <= i,
    read-only properties built on their first read.
    ``bottom_face``/``top_face`` are the unique faces of least and greatest
    rank, or None. The methods taking or returning ids are the label API.
    The private slots ``_above``/``_below``, ``_search`` and ``_masks`` hold
    the reachability bitsets, the search tables and the cover masks once
    read (see ``_closures``, ``_search_tables``, ``_cover_masks``).
    """

    __slots__ = (
        "labels",
        "ranks",
        "rank",
        "upper",
        "lower",
        "bottom_face",
        "top_face",
        "_index",
        "_search",
        "_masks",
        "_above",
        "_below",
    )

    def __init__(self, labels, ranks, covers, check=True):
        """Faces are given by their labels and ranks, covers as pairs (i, j)
        of faces with j covering i. Duplicate labels, cycles and an empty
        face set are always rejected; with ``check`` the first structural
        violation (see ``violations``) is raised too."""
        self.labels = tuple(labels)
        self.ranks = ranks = tuple(ranks)
        n = len(self.labels)
        self._index = dict(zip(self.labels, range(n)))
        self._search = self._masks = self._above = self._below = None
        if len(self._index) < n:
            seen = set()
            for eid in self.labels:
                if eid in seen:
                    raise DuplicateId(f"duplicate element id {eid!r}")
                seen.add(eid)
        if not n:
            raise NotBounded("poset has no elements")

        upper = [[] for _ in range(n)]
        lower = [[] for _ in range(n)]
        for a, b in covers:
            upper[a].append(b)
            lower[b].append(a)
        self.upper = tuple(tuple(sorted(u)) for u in upper)
        self.lower = tuple(tuple(sorted(l)) for l in lower)
        _topological_order(self.upper, self.lower)

        min_rank = min(ranks)
        self.rank = max(ranks)
        self.bottom_face = ranks.index(min_rank) if ranks.count(min_rank) == 1 else None
        self.top_face = ranks.index(self.rank) if ranks.count(self.rank) == 1 else None

        if check:
            first = next(self.violations(), None)
            if first is not None:
                raise first

    @property
    def above(self) -> tuple[int, ...]:
        """The bitmask of the faces >= each face, built on the first read
        of ``above`` or ``below`` (see ``_closures``)."""
        return _closures(self)[0] if self._above is None else self._above

    @property
    def below(self) -> tuple[int, ...]:
        """The bitmask of the faces <= each face, built with ``above``."""
        return _closures(self)[1] if self._below is None else self._below

    # -- construction checks ------------------------------------------------

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
        if min(ranks) != -1:
            yield NotBounded("minimal rank must be -1")
        elif self.bottom_face is None:
            yield NotBounded("more than one element of minimal rank")
        elif self.top_face is None:
            yield NotBounded("more than one element of maximal rank")
        # the covers are acyclic, so every face is >= the bottom exactly when
        # the bottom is the one face without a lower cover (walk down from
        # any face), and every face is <= the top exactly when the top is
        # the one face without an upper cover
        elif (
            self.lower[self.bottom_face]
            or self.upper[self.top_face]
            or self.lower.count(()) != 1
            or self.upper.count(()) != 1
        ):
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


def _topological_order(upper, lower) -> list[int]:
    """One Kahn topological order of the faces along their covers; faces on
    or above a cycle never enter it, so NotGraded when it falls short."""
    waiting = [len(l) for l in lower]
    order = [i for i, w in enumerate(waiting) if not w]
    for i in order:  # the order grows while it is walked
        for j in upper[i]:
            waiting[j] -= 1
            if not waiting[j]:
                order.append(j)
    if len(order) < len(upper):
        raise NotGraded("cover relation contains a cycle")
    return order


def _closures(P: PolytopePoset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The masks of the faces >= and <= each face, folded along a topological
    order of the covers, built on the first read of ``P.above`` or
    ``P.below`` and kept in P's ``_above``/``_below`` slots (P is
    immutable). The constructor has rejected cycles, so the order is whole."""
    upper, lower = P.upper, P.lower
    order = _topological_order(upper, lower)
    n = len(order)
    above, below = [0] * n, [0] * n
    for i in order:
        m = 1 << i
        for j in lower[i]:
            m |= below[j]
        below[i] = m
    for i in reversed(order):
        m = 1 << i
        for j in upper[i]:
            m |= above[j]
        above[i] = m
    P._above, P._below = tuple(above), tuple(below)
    return P._above, P._below


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


def _cover_masks(P: PolytopePoset) -> tuple[list[int], list[int]]:
    """The masks of every face's upper and of its lower covers, built on the
    first read and kept in P's ``_masks`` slot (P is immutable)."""
    if P._masks is None:
        pair = ([], [])
        for covers, masks in zip((P.upper, P.lower), pair):
            for neighbours in covers:
                m = 0
                for j in neighbours:
                    m |= 1 << j
                masks.append(m)
        P._masks = pair
    return P._masks


def _search_tables(P: PolytopePoset) -> tuple[list, dict]:
    """P's search tables, the signature of every face and the mask of the
    faces with each signature, built on the first search and kept on P."""
    if P._search is None:
        sig = [_signature(P, i) for i in range(len(P))]
        sig_mask: dict[tuple, int] = {}
        for i, s in enumerate(sig):
            sig_mask[s] = sig_mask.get(s, 0) | (1 << i)
        P._search = (sig, sig_mask)
    return P._search


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

    Each poset keeps the tables a search reads, so the many searches of one
    poset (``aut_order`` runs one per candidate of its stabilizer chain)
    share them. The signatures and the faces of each signature come from
    ``_search_tables``, for P and Q. The cover masks come from
    ``_cover_masks``, for Q only, since P's covers are walked as lists;
    they are the masks ``verify_polytope`` reads, so a poset verified
    before it is searched builds them once. When Q is P the multisets agree
    trivially and are not compared.

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
    sig_p, by_sig_p = _search_tables(P)
    _, sig_mask = _search_tables(Q)
    # the multisets agree when each signature of P has as many faces in Q,
    # since |P| = |Q|
    if Q is not P and any(
        m.bit_count() != sig_mask.get(s, 0).bit_count() for s, m in by_sig_p.items()
    ):
        return

    live = [sig_mask[s] for s in sig_p]
    for i, j in (pins or {}).items():
        live[i] &= 1 << j
        if not live[i]:
            return

    up_p, down_p = P.upper, P.lower
    up_q, down_q = _cover_masks(Q)
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


def _to_json_text(P: PolytopePoset) -> str:
    """``json.dumps(to_json(P), indent=2)``, byte for byte, without the dict.

    With ``indent`` set, ``json.dumps`` encodes in pure Python; here each
    label is encoded once, by the C encoder, and the fixed layout of the
    three fields is written around the encoded labels. The covers are
    sorted as ``to_json`` sorts them, by (label a, label b)."""
    labels = P.labels
    ids = [json.dumps(eid) for eid in labels]
    elements = ",\n".join(
        f'    {{\n      "id": {i},\n      "rank": {rk}\n    }}' for i, rk in zip(ids, P.ranks)
    )
    pairs = sorted(
        (labels[a], labels[b], a, b) for a, ups in enumerate(P.upper) for b in ups
    )
    if pairs:
        covers = ",\n".join(f"    [\n      {ids[a]},\n      {ids[b]}\n    ]" for *_, a, b in pairs)
        covers = f"[\n{covers}\n  ]"
    else:
        covers = "[]"
    return f'{{\n  "rank": {P.rank},\n  "elements": [\n{elements}\n  ],\n  "covers": {covers}\n}}'


_SCALAR = (str, int, float)


def from_json(data: dict, check: bool = True) -> PolytopePoset:
    """The poset ``to_json`` wrote. ParseError when ``data`` lacks the
    elements or covers list, an element its id or integer rank, or a cover
    is not a pair of ids (strings or numbers)."""
    try:
        elements = [(e["id"], e["rank"]) for e in data["elements"]]
        covers = list(data["covers"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except TypeError as exc:
        raise ParseError(f"malformed poset: {exc}") from None
    if not all(isinstance(eid, _SCALAR) and type(rk) is int for eid, rk in elements):
        raise ParseError("element ids must be strings or numbers, ranks integers")
    if not all(
        isinstance(cover, (list, tuple))
        and len(cover) == 2
        and all(isinstance(x, _SCALAR) for x in cover)
        for cover in covers
    ):
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
