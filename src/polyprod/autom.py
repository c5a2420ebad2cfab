"""Automorphisms: brute-force enumeration, permutation-group closure and the
recursive generating sets for polytopes of the inductive family."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import ClosureBudgetExceeded
from .family import JOIN_STEP, TIMES_STEP
from .poset import DEFAULT_SEARCH_CAP, PolytopePoset, order_isomorphisms

DEFAULT_CLOSURE_CAP = 1_000_000


@dataclass(frozen=True)
class FacePermutation:
    """A rank- and order-preserving bijection of a fixed polytope's faces;
    ``mapping[i]`` is the image of face i."""

    poset: PolytopePoset
    mapping: tuple[int, ...]

    @classmethod
    def from_dict(cls, poset: PolytopePoset, mapping: dict[str, str]) -> "FacePermutation":
        return cls(poset, tuple(poset.face(mapping[eid]) for eid in poset.labels))

    def __getitem__(self, eid: str) -> str:
        return self.poset.labels[self.mapping[self.poset.face(eid)]]

    def as_dict(self) -> dict[str, str]:
        labels = self.poset.labels
        return {eid: labels[j] for eid, j in zip(labels, self.mapping)}

    def compose(self, other: "FacePermutation") -> "FacePermutation":
        """self after other: x -> self(other(x))."""
        return FacePermutation(self.poset, tuple(self.mapping[y] for y in other.mapping))

    def inverse(self) -> "FacePermutation":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return FacePermutation(self.poset, tuple(inv))

    def is_identity(self) -> bool:
        return self.mapping == tuple(range(len(self.mapping)))

    def validate(self) -> None:
        P, m = self.poset, self.mapping
        if sorted(m) != list(range(len(P))):
            raise ValueError("not a bijection on the element set")
        for i, j in enumerate(m):
            if P.ranks[i] != P.ranks[j]:
                raise ValueError(f"rank not preserved at face {i}")
        for a, ups in enumerate(P.upper):
            images = P.upper[m[a]]
            if any(m[b] not in images for b in ups):
                raise ValueError("cover relation not preserved")


def identity(P: PolytopePoset) -> FacePermutation:
    return FacePermutation(P, tuple(range(len(P))))


def automorphisms(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> list[FacePermutation]:
    """The full automorphism group as an explicit, deterministically ordered list."""
    return [
        FacePermutation(P, m)
        for m in sorted(order_isomorphisms(P, P, max_elements=max_elements))
    ]


def _base_flag(P: PolytopePoset) -> list[int]:
    """A maximal chain that starts at a face of least rank and always steps
    to the first upper cover; on a polytope, a flag."""
    start = P.bottom_face
    if start is None:
        start = min(range(len(P)), key=P.ranks.__getitem__)
    chain = [start]
    while ups := P.upper[chain[-1]]:
        chain.append(ups[0])
    return chain


def _orbit(point: int, generators: list[tuple[int, ...]]) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def aut_order(P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP) -> int:
    """|Aut(P)| by a stabilizer chain along one base flag, using only P.

    With base flag f_0 < f_1 < ... < f_m (see ``_base_flag``; f_0 is the
    bottom when P has one), the orbit-stabilizer theorem applied level by
    level gives

        |Aut(P)| = prod_i |f_i^Stab(f_0..f_{i-1})| * |Stab(f_0..f_m)|.

    The orbit at level i lies among the upper covers of f_{i-1}. Levels are
    walked deepest first. Each orbit starts as the orbit of f_i under the
    automorphisms found so far, which all fix f_0..f_{i-1}; each candidate
    still outside it costs one first-hit ``order_isomorphisms`` search with
    f_0..f_{i-1} pinned to themselves and f_i pinned to the candidate. A
    hit is checked to be an automorphism, kept, and the orbit regrown, so
    automorphisms found deeper prune the candidates of shallower levels.
    The last factor is counted by enumerating with the whole flag pinned.
    It is 1 on a polytope, whose automorphisms act freely on flags, and it
    keeps the count exact on any ranked poset.

    Every search is a call of the public ``order_isomorphisms``, which
    reads two tables kept on P: the search tables (signatures and signature
    masks), built by the first search from P's reachability bitsets, and
    the cover masks, built by the first search or by an earlier
    ``verify_polytope`` of P. Later searches build neither.
    """
    flag = _base_flag(P)
    found: list[tuple[int, ...]] = []
    order = 1
    for i in range(len(flag) - 1, -1, -1):
        if i:
            level = P.upper[flag[i - 1]]
        else:
            level = P.faces_of_rank(P.ranks[flag[0]])
        orbit = _orbit(flag[i], found)
        fixed = {f: f for f in flag[:i]}
        for c in level:
            if c in orbit:
                continue
            pins = {**fixed, flag[i]: c}
            hit = next(order_isomorphisms(P, P, max_elements, pins=pins), None)
            if hit is not None:
                FacePermutation(P, hit).validate()
                found.append(hit)
                orbit = _orbit(flag[i], found)
        order *= len(orbit)
    pins = {f: f for f in flag}
    return order * sum(1 for _ in order_isomorphisms(P, P, max_elements, pins=pins))


def closure(
    generators: list[FacePermutation], max_size: int = DEFAULT_CLOSURE_CAP
) -> int:
    """Order of the group the generators generate, counted on flags.

    Precondition: the generators act on a polytope, as those of
    ``described_generators`` always do. The automorphism group of a
    polytope acts freely on its flags, so by orbit-stabilizer the group
    they generate has exactly as many elements as the orbit of one base
    flag under them; that orbit is what is counted, by breadth-first
    search, storing flags rather than group elements. On a poset that is
    not a polytope the count can fall short of the group order.

    Flags are tuples of faces and generators tuples of images, so the
    image of a flag under a generator is one C call: ``itemgetter(*flag)``
    is made once per frontier flag and applied to each generator.

    Each generator is first checked to be a rank- and cover-preserving
    bijection (``ValueError`` otherwise). ``ClosureBudgetExceeded`` is
    raised once the orbit, and so the group, exceeds ``max_size``.
    """
    if not generators:
        return 1
    for g in generators:
        g.validate()
    gens = [g.mapping for g in generators]
    base = tuple(_base_flag(generators[0].poset))
    if len(base) == 1:
        # itemgetter of one index returns the bare face, not a 1-tuple; the
        # flag (f, f) has one image per image of f, so the count is the same
        base *= 2
    seen = {base}
    frontier = [base]
    while frontier:
        new = []
        for flag in frontier:
            images = itemgetter(*flag)
            for g in gens:
                image = images(g)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
                    if len(seen) > max_size:
                        raise ClosureBudgetExceeded(
                            f"closure exceeds the cap of {max_size}"
                        )
        frontier = new
    return len(seen)


# -- generating sets along the construction history ----------------------------


def described_generators(node) -> list[FacePermutation]:
    """Generating set of Aut(node.polytope) built recursively along the
    node's construction history.

    Prism steps append the swap of the two newest edge coordinates, pyramid
    steps append the swap of the two newest point copies (or the copy swap
    for a pyramid's prism child); the root edge contributes the vertex flip.
    The triangle, being I * pt = pt * pt * pt, gets its extra transposition
    as an explicit base case.

    Generators are index tuples, carried from each step's polytope to the
    next by the layout of ``products``, so only sizes are needed: a face f
    of P * pt is (f // 2, f % 2), and a face f > 0 of P x I is
    (1 + x // 3, x % 3) with x = f - 1, where 0, 1, 2 are the positions of
    the vertices a, b and the edge of I among its non-bottom faces.
    Every automorphism fixes the bottom, face 0 in every family polytope.
    """
    n = 4  # faces of the root edge I: 0, a, b, 1
    gens = [(0, 2, 1, 3)]
    prev = TIMES_STEP
    for depth, step in enumerate(node.path):
        if step == TIMES_STEP:
            xs = range(3 * (n - 1))
            gens = [(0, *(3 * g[1 + x // 3] - 2 + x % 3 for x in xs)) for g in gens]
            if prev == TIMES_STEP:
                # ((p, a), b) -> ((p, b), a): swap the last two base-3 digits
                gens.append((0, *(1 + x // 9 * 9 + x % 3 * 3 + x // 3 % 3 for x in xs)))
            else:
                # (p, q) -> (p, flip q): swap the vertices of the new edge
                gens.append((0, *(1 + x // 3 * 3 + (1, 0, 2)[x % 3] for x in xs)))
            n = 3 * (n - 1) + 1
        elif step == JOIN_STEP:
            gens = [tuple(2 * g[f // 2] + f % 2 for f in range(2 * n)) for g in gens]
            if depth == 0:
                # on I * pt, the transposition of the vertex b and the apex
                gens.append((0, 4, 2, 6, 1, 5, 3, 7))
            elif prev == JOIN_STEP:
                # ((p, a), b) -> ((p, b), a): swap the last two binary digits
                gens.append(tuple(f & ~3 | (f & 1) << 1 | f >> 1 & 1 for f in range(2 * n)))
            n *= 2
        else:
            raise ValueError(f"unknown construction step {step!r}")
        prev = step
    P = node.polytope
    return [FacePermutation(P, g) for g in gens]
