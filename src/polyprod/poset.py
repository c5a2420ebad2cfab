"""Ranked face posets: the carrier type, sections, the base flag and isomorphism.

Faces are the indices 0..n-1. A polytope is stored as its Hasse diagram
(the upper and lower covers of every face); its order tables are bitsets,
so order queries, sections and the backtracking searches are all cheap bit
operations. The constructor takes each face's upper covers and is the one
place covers are normalised: a list not strictly ascending is sorted, its
repeats dropped. One pass over the covers derives the lower covers and
tests whether every cover raises rank by one. If so, the faces in rank
order are a topological order; otherwise Kahn's walk orders them and
rejects cover cycles. The constructor keeps that order and builds no
table. Every derived table is a ``functools.cached_property`` of the
poset, built on its first read and kept: the reachability bitsets
``above`` and ``below``, each one fold along the kept order, the cover
masks ``_masks`` and the search tables ``_search``, which the searches
read instead of the bitsets. A poset that only feeds a product, is written
out or has its flags permuted builds none of them. Each face also has a
string id, its label. Labels are translated to faces and back only in
this module: by the label API on the poset, by
``from_components``/``from_json`` and by the serializers.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain
from operator import itemgetter
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
    ``lower[i]`` are its upper and lower covers in ascending order.
    ``bottom_face``/``top_face`` are the unique faces of least and greatest
    rank, or None. The methods taking or returning ids are the label API.
    The private ``_order`` is the constructor's topological order of the
    faces: by rank when ``_rank_steps``, which is whether every cover raises
    rank by one. The derived tables are cached properties, each built on
    its own first read: ``above`` by ``less_eq``, ``up_mask``, ``section``,
    the pyramid oracle and the verifier's exact checks; ``below`` by
    ``section``, the prism oracle and the verifier; ``_masks`` and
    ``_search`` by the searches alone, which read neither ``above`` nor
    ``below``.
    """

    def __init__(self, labels, ranks, upper, check=True):
        """Faces are given by their labels and ranks, covers by ``upper[i]``,
        the faces covering face i, each counted once (DanglingCover outside
        0..n-1, ValueError unless one list per label). Duplicate labels,
        cycles and an empty face set are always rejected; with ``check`` the
        first structural violation (see ``violations``) is raised too."""
        self.labels = tuple(labels)
        self.ranks = ranks = tuple(ranks)
        n = len(self.labels)
        self._index = dict(zip(self.labels, range(n)))
        if len(self._index) < n:
            seen = set()
            for eid in self.labels:
                if eid in seen:
                    raise DuplicateId(f"duplicate element id {eid!r}")
                seen.add(eid)
        if not n:
            raise NotBounded("poset has no elements")

        self.upper = upper = tuple(map(tuple, upper))
        if len(upper) != n:
            raise ValueError(f"{len(upper)} cover lists for {n} elements")
        found = _lower(upper, ranks)
        if found is None:
            # a list is out of order, repeats a face or leaves the faces: sort
            # every list with repeats dropped and pass again
            self.upper = upper = tuple(map(tuple, map(sorted, map(set, upper))))
            found = _lower(upper, ranks)
            if found is None:  # now only where an entry leaves the faces
                raise _dangling(self.labels, upper)
        lower, self._rank_steps = found
        self.lower = tuple(map(tuple, lower))
        # where every cover raises rank by one, no cycle is possible and the
        # faces in rank order are a topological order
        if self._rank_steps:
            self._order = sorted(range(n), key=ranks.__getitem__)
        else:
            self._order = _topological_order(upper, self.lower)

        min_rank = min(ranks)
        self.rank = max(ranks)
        self.bottom_face = ranks.index(min_rank) if ranks.count(min_rank) == 1 else None
        self.top_face = ranks.index(self.rank) if ranks.count(self.rank) == 1 else None

        if check:
            first = next(self.violations(), None)
            if first is not None:
                raise first

    @cached_property
    def above(self) -> tuple[int, ...]:
        """The bitmask of the faces >= each face."""
        return _fold(reversed(self._order), self.upper)

    @cached_property
    def below(self) -> tuple[int, ...]:
        """The bitmask of the faces <= each face."""
        return _fold(self._order, self.lower)

    @cached_property
    def _masks(self) -> tuple[list[int], list[int]]:
        """The masks of every face's upper and of its lower covers."""
        pair = ([], [])
        for covers, masks in zip((self.upper, self.lower), pair):
            for neighbours in covers:
                m = 0
                for j in neighbours:
                    m |= 1 << j
                masks.append(m)
        return pair

    @cached_property
    def _search(self) -> tuple[list[int], dict]:
        """The search tables: the class of every face, numbering the
        signatures (rank, numbers of lower and upper covers) in order of
        first face, and the mask of the faces with each signature, in class
        order."""
        index: dict[tuple, int] = {}
        sig = zip(self.ranks, map(len, self.lower), map(len, self.upper))
        classes = [index.setdefault(s, len(index)) for s in sig]
        masks = [0] * len(index)
        for i, c in enumerate(classes):
            masks[c] |= 1 << i
        return classes, dict(zip(index, masks))

    # -- construction checks ------------------------------------------------

    def violations(self) -> Iterator[PolytopeError]:
        """The structural defects, in the order the constructor checks them:
        covers that do not raise rank by one (NotGraded), then at most one
        boundedness defect (NotBounded), then faces above rank -1 without a
        lower cover or below the top rank without an upper cover (NotGraded).
        ``verify_polytope`` reads its bounded and graded verdicts from here.
        The covers are tested one by one only when the constructor found
        one that does not raise rank by one."""
        labels, ranks = self.labels, self.ranks
        for a, ups in enumerate(() if self._rank_steps else self.upper):
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
        labels = self.labels
        return frozenset((labels[a], labels[b]) for a, ups in enumerate(self.upper) for b in ups)

    def element_ids(self) -> tuple[str, ...]:
        return self.labels

    def rank_of(self, eid: str) -> int:
        return self.ranks[self.face(eid)]

    def elements(self) -> list[tuple[str, int]]:
        return list(zip(self.labels, self.ranks))

    def less_eq(self, a: str, b: str) -> bool:
        return bool(self.above[self.face(a)] >> self.face(b) & 1)

    def up_mask(self, eid: str) -> int:
        return self.above[self.face(eid)]


def _dangling(labels, upper) -> DanglingCover:
    """The error for the first entry of ``upper`` outside the faces."""
    n = len(labels)
    i, j = next((i, j) for i, u in enumerate(upper) for j in u if not 0 <= j < n)
    return DanglingCover(f"element {labels[i]!r} is covered by {j}, not a face")


def _lower(upper, ranks) -> Optional[tuple[list[list[int]], bool]]:
    """The lower covers of every face, each list ascending, and whether
    every cover raises rank by exactly one, from one pass over ``upper``;
    None as soon as a list is not strictly ascending within 0..n-1."""
    lower = [[] for _ in upper]
    steps = True
    try:
        for i, ups in enumerate(upper):  # ascending i, so each lower list is sorted
            r = ranks[i] + 1
            last = -1
            for j in ups:
                if j <= last:
                    return None
                if ranks[j] != r:
                    steps = False
                lower[j].append(i)
                last = j
    except IndexError:  # an entry past the last face
        return None
    return lower, steps


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


def _fold(order, covers) -> tuple[int, ...]:
    """The mask of each face joined with the masks of its ``covers``, folded
    along ``order``, in which every face comes after its covers."""
    masks = [0] * len(covers)
    for i in order:
        m = 1 << i
        for j in covers[i]:
            m |= masks[j]
        masks[i] = m
    return tuple(masks)


def from_components(elements, covers, check=True) -> PolytopePoset:
    """Build a poset from (id, rank) pairs and (lower id, upper id) cover
    pairs, grouped by lower id; repeated covers count once. ``check`` (the
    default) enforces the structural invariants (unique bounds, gradedness).
    Each group is sorted by face, so covers listed in any order, such as by
    id text as the writers list them, reach the constructor ascending."""
    elements = list(elements)
    index = {eid: i for i, (eid, _) in enumerate(elements)}
    upper = [[] for _ in elements]
    for a, b in covers:
        if a not in index or b not in index:
            raise DanglingCover(f"cover ({a!r}, {b!r}) references unknown id")
        upper[index[a]].append(index[b])
    return PolytopePoset(
        [eid for eid, _ in elements], [rk for _, rk in elements], map(sorted, upper),
        check=check,
    )


def section(P: PolytopePoset, F: int, G: int) -> PolytopePoset:
    """The interval G/F between faces F <= G, re-ranked so F sits at rank -1.
    Its faces keep their order and labels; NotComparable unless F <= G."""
    if not P.above[F] >> G & 1:
        raise NotComparable(f"{P.labels[F]!r} is not below {P.labels[G]!r}")
    return _induced(P, P.above[F] & P.below[G], P.ranks[F] + 1)


def _induced(P: PolytopePoset, keep: int, shift: int) -> PolytopePoset:
    """The subposet on the faces in the bitmask ``keep``, in ascending order
    with their labels, their upper covers in P among them and their ranks
    lowered by ``shift``. The constructor's checks apply."""
    faces = list(_bits(keep))
    new = {f: i for i, f in enumerate(faces)}
    upper = [[new[b] for b in P.upper[a] if b in new] for a in faces]
    return PolytopePoset(
        [P.labels[f] for f in faces], [P.ranks[f] - shift for f in faces], upper
    )


def _base_flag(P: PolytopePoset) -> list[int]:
    """The maximal chain that starts at the bottom, or at the first face of
    least rank when P has none, and always steps to the first upper cover;
    on a polytope, a flag. The isomorphism search branches along it, the
    brute-force stabilizer chain pins it and ``closure`` counts its images."""
    start = P.bottom_face
    if start is None:
        start = P.ranks.index(min(P.ranks))
    chain = [start]
    while ups := P.upper[chain[-1]]:
        chain.append(ups[0])
    return chain


# -- isomorphism search ------------------------------------------------------


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
    Q with its signature (rank and the numbers of its lower and upper
    covers).
    Assigning F -> G narrows the live candidates of every unassigned
    cover-neighbour of F to the matching cover-neighbours of G, so a
    completed assignment maps every cover of P onto a cover of Q. It is then
    an order isomorphism: it is injective on covers and both posets have the
    same number of covers, since their signature multisets agree.

    Each poset keeps the tables a search reads, as cached properties, so
    the many searches of one poset (``aut_order`` runs one per candidate of
    its stabilizer chain) share them. The signatures and the faces of each
    signature are the search tables ``_search``, read for P and Q, from
    the cover lists alone; no search reads ``above`` or ``below``. The cover
    masks ``_masks`` are read for Q only, since P's covers are walked as
    lists; nothing but a search reads them. When Q is P the multisets agree
    trivially and are not compared. The first live masks are read off the
    classes of P's faces in a C-level pass.

    The next face comes from a queue: first the pinned faces, then the
    cover-neighbours of assigned faces that were left with at most one live
    candidate (forced, or a dead end to back out of). When the queue runs
    dry, at a true branch point, it is the first unassigned face of P's
    base flag (``_base_flag``), and when the whole flag is assigned, the
    first unassigned face. In a polytope the images of a flag force every
    other face (diamond condition plus strong flag connectivity), so the
    search branches on flag faces alone, and a search with a flag pinned
    takes no branch at all; the last rule keeps the search complete when P
    or Q is not a polytope.

    The walk is one loop over one stack of frames, one per selected face.
    A frame holds the face's untried candidates as a mask, tried lowest
    first, and its own undo marks: the queue head before the face was
    selected, and the lengths of the trail (each narrowed live mask with its
    old value) and of the queue before the face was assigned. Each pass
    backs the top face out of its current candidate, down to those marks,
    then assigns its next candidate, or pops the frame when none is left.
    """
    n = len(P)
    if len(Q) != n:
        return
    if n > max_elements:
        raise SearchBudgetExceeded(
            f"poset has {n} elements, above the cap of {max_elements}"
        )
    classes, by_sig_p = P._search
    _, sig_mask = Q._search
    # the multisets agree when each signature of P has as many faces in Q,
    # since |P| = |Q|
    if Q is not P and any(
        m.bit_count() != sig_mask.get(s, 0).bit_count() for s, m in by_sig_p.items()
    ):
        return

    # the faces of Q with the signature of each class of P; per face, one
    # lookup by class, C-level
    images = [sig_mask[s] for s in by_sig_p]
    live = list(map(images.__getitem__, classes))
    pins = pins or {}
    for i, j in pins.items():
        live[i] &= 1 << j
        if not live[i]:
            return

    up_p, down_p = P.upper, P.lower
    up_q, down_q = Q._masks
    mapping = [-1] * n
    used = 0
    trail: list[tuple[int, int]] = []  # (face, live mask before narrowing)
    queue = list(pins)
    head = 0
    flag = _base_flag(P)

    def select() -> int:
        nonlocal head
        while head < len(queue):
            i = queue[head]
            head += 1
            if mapping[i] < 0:
                return i
        for i in flag:
            if mapping[i] < 0:
                return i
        return mapping.index(-1)

    # frames: [face, untried candidates as a mask, queue head before the
    #          face was selected, len(trail), len(queue) before each of its
    #          assignments]; every face below the top frame's is assigned
    first = select()
    stack = [[first, live[first], 0, 0, len(queue)]]
    while stack:
        frame = stack[-1]
        i, cands, head_before, mark, queued = frame
        if mapping[i] >= 0:
            used ^= 1 << mapping[i]
            mapping[i] = -1
            while len(trail) > mark:
                a, old = trail.pop()
                live[a] = old
            del queue[queued:]
        if not cands:
            stack.pop()
            head = head_before
            continue
        low = cands & -cands
        frame[1] = cands ^ low
        mapping[i] = j = low.bit_length() - 1
        used |= low
        free = ~used
        for neighbours, images in ((up_p[i], up_q[j]), (down_p[i], down_q[j])):
            for a in neighbours:
                if mapping[a] < 0:
                    old = live[a]
                    new = old & images
                    if new != old:
                        trail.append((a, old))
                        live[a] = new
                    if (new & free).bit_count() <= 1:
                        queue.append(a)
        if len(stack) == n:
            yield tuple(mapping)
        else:
            head_before = head
            nxt = select()
            stack.append([nxt, live[nxt] & free, head_before, len(trail), len(queue)])


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
    return PolytopePoset(("0", "1"), (-1, 0), [[1], []])


def edge() -> PolytopePoset:
    """The unique rank-1 polytope I (two vertices under one edge)."""
    return PolytopePoset(("0", "a", "b", "1"), (-1, 0, 0, 1), [[1, 2], [3], [3], []])


# -- serialization -------------------------------------------------------------


def _id_order(P: PolytopePoset) -> tuple[list[int], list[int]]:
    """P's faces in the order the writers list ids, numbers before strings
    and each kind in its own order, so that ids of both kinds sort
    together; and the position of each face in that order."""
    keys = [(isinstance(eid, str), eid) for eid in P.labels]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    place = [0] * len(order)
    for k, i in enumerate(order):
        place[i] = k
    return order, place


def _sorted_covers(P: PolytopePoset, id_order: tuple) -> list[tuple[int, int]]:
    """P's covers (a, b), ordered by the id of a, then by the id of b, from
    ``id_order``, the pair ``_id_order(P)`` returns."""
    order, place = id_order
    return [(a, b) for a in order for b in sorted(P.upper[a], key=place.__getitem__)]


def to_json(P: PolytopePoset) -> dict:
    labels = P.labels
    return {
        "rank": P.rank,
        "elements": [{"id": eid, "rank": rk} for eid, rk in zip(labels, P.ranks)],
        "covers": [[labels[a], labels[b]] for a, b in _sorted_covers(P, _id_order(P))],
    }


def _to_json_text(P: PolytopePoset) -> str:
    """``json.dumps(to_json(P), indent=2)``, byte for byte, without the dict.

    With ``indent`` set, ``json.dumps`` encodes in pure Python; here each
    label is encoded once, by the C encoder, and the fixed layout of the
    three fields is written around the encoded labels. The covers are
    listed in the order of ``_sorted_covers``, as in ``to_json``."""
    labels = P.labels
    ids = [json.dumps(eid) for eid in labels]
    elements = ",\n".join(
        f'    {{\n      "id": {i},\n      "rank": {rk}\n    }}' for i, rk in zip(ids, P.ranks)
    )
    pairs = _sorted_covers(P, _id_order(P))
    if pairs:
        covers = ",\n".join(f"    [\n      {ids[a]},\n      {ids[b]}\n    ]" for a, b in pairs)
        covers = f"[\n{covers}\n  ]"
    else:
        covers = "[]"
    return f'{{\n  "rank": {P.rank},\n  "elements": [\n{elements}\n  ],\n  "covers": {covers}\n}}'


_ID_TYPES = {str, int, float}


def _is_id(x) -> bool:
    """Strings and numbers are ids; bools (JSON's true and false), which
    Python counts as ints, are not."""
    return isinstance(x, (str, int, float)) and not isinstance(x, bool)


def from_json(data: dict, check: bool = True) -> PolytopePoset:
    """The poset ``to_json`` wrote. ParseError when ``data`` lacks the
    elements or covers list, an element its id or integer rank, or a cover
    is not a pair of ids (strings or numbers, not ``true``/``false``)."""
    try:
        elements = list(map(itemgetter("id", "rank"), data["elements"]))
        covers = list(data["covers"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except TypeError as exc:
        raise ParseError(f"malformed poset: {exc}") from None
    # exact types first, in C-level passes; the per-item test decides when
    # they fail, so a subclass of str or int is an id and a bool is not
    if not (
        set(map(type, map(itemgetter(0), elements))) <= _ID_TYPES
        and set(map(type, map(itemgetter(1), elements))) <= {int}
    ) and not all(_is_id(eid) and type(rk) is int for eid, rk in elements):
        raise ParseError("element ids must be strings or numbers, ranks integers")
    if not (
        set(map(type, covers)) <= {list, tuple}
        and set(map(len, covers)) <= {2}
        and set(map(type, chain.from_iterable(covers))) <= _ID_TYPES
    ) and not all(
        isinstance(cover, (list, tuple))
        and len(cover) == 2
        and all(map(_is_id, cover))
        for cover in covers
    ):
        raise ParseError("covers must be pairs of element ids")
    return from_components(elements, covers, check=check)


def to_dot(P: PolytopePoset) -> str:
    # ids go inside DOT's double-quoted strings, where \ and " must be escaped
    name = [str(eid).replace("\\", "\\\\").replace('"', '\\"') for eid in P.labels]
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i, rk in enumerate(P.ranks):
        lines.append(f'  "{name[i]}" [label="{name[i]}:{rk}"];')
    id_order = _id_order(P)
    by_rank: dict[int, list[int]] = {}
    for i in id_order[0]:
        by_rank.setdefault(P.ranks[i], []).append(i)
    for rk in sorted(by_rank):
        members = "; ".join(f'"{name[i]}"' for i in by_rank[rk])
        lines.append(f"  {{ rank=same; {members}; }}")
    for a, b in _sorted_covers(P, id_order):
        lines.append(f'  "{name[a]}" -> "{name[b]}";')
    lines.append("}")
    return "\n".join(lines)
