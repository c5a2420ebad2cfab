"""Automorphisms: brute-force enumeration, permutation-group closure and the
recursive generating sets for polytopes of the inductive family."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClosureBudgetExceeded, MissingProvenance
from .poset import (
    DEFAULT_SEARCH_CAP,
    PolytopePoset,
    edge,
    order_isomorphisms,
    point,
)
from .products import cartesian, join, pair_id

DEFAULT_CLOSURE_CAP = 1_000_000


@dataclass(frozen=True)
class FacePermutation:
    """A rank- and order-preserving bijection of a fixed polytope's faces."""

    poset: PolytopePoset
    mapping: tuple[str, ...]  # image of element i in poset iteration order

    @classmethod
    def from_dict(cls, poset: PolytopePoset, mapping: dict[str, str]) -> "FacePermutation":
        return cls(poset, tuple(mapping[eid] for eid in poset.element_ids()))

    def __getitem__(self, eid: str) -> str:
        return self.mapping[self.poset._index[eid]]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.poset.element_ids(), self.mapping))

    def compose(self, other: "FacePermutation") -> "FacePermutation":
        """self after other: x -> self(other(x))."""
        idx = self.poset._index
        return FacePermutation(
            self.poset, tuple(self.mapping[idx[y]] for y in other.mapping)
        )

    def inverse(self) -> "FacePermutation":
        inv = {img: eid for eid, img in zip(self.poset.element_ids(), self.mapping)}
        return FacePermutation.from_dict(self.poset, inv)

    def is_identity(self) -> bool:
        return self.mapping == self.poset.element_ids()

    def validate(self) -> None:
        P = self.poset
        if sorted(self.mapping) != sorted(P.element_ids()):
            raise ValueError("not a bijection on the element set")
        for eid, img in zip(P.element_ids(), self.mapping):
            if P.rank_of(eid) != P.rank_of(img):
                raise ValueError(f"rank not preserved at {eid!r}")
        mapped = {(self[a], self[b]) for a, b in P.covers}
        if mapped != set(P.covers):
            raise ValueError("cover relation not preserved")


def identity(P: PolytopePoset) -> FacePermutation:
    return FacePermutation(P, P.element_ids())


def automorphisms(
    P: PolytopePoset, max_elements: int = DEFAULT_SEARCH_CAP
) -> list[FacePermutation]:
    """The full automorphism group as an explicit, deterministically ordered list."""
    perms = [
        FacePermutation.from_dict(P, m)
        for m in order_isomorphisms(P, P, max_elements=max_elements)
    ]
    perms.sort(key=lambda g: g.mapping)
    return perms


def _base_flag(P: PolytopePoset) -> list[str]:
    """A maximal chain that starts at an element of least rank and always
    steps to the first upper cover; on a polytope, a flag."""
    start = P.bottom
    if start is None:
        start = min(P.element_ids(), key=P.rank_of)
    chain = [start]
    while ups := P.upper_covers(chain[-1]):
        chain.append(ups[0])
    return chain


def _orbit(point: str, generators: list[dict[str, str]]) -> set[str]:
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
    """
    flag = _base_flag(P)
    found: list[dict[str, str]] = []
    order = 1
    for i in range(len(flag) - 1, -1, -1):
        if i:
            level = P.upper_covers(flag[i - 1])
        else:
            level = P.elements_of_rank(P.rank_of(flag[0]))
        orbit = _orbit(flag[i], found)
        fixed = {f: f for f in flag[:i]}
        for c in level:
            if c in orbit:
                continue
            pins = {**fixed, flag[i]: c}
            hit = next(order_isomorphisms(P, P, max_elements, pins=pins), None)
            if hit is not None:
                FacePermutation.from_dict(P, hit).validate()
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

    Each generator is first checked to be a rank- and cover-preserving
    bijection (``ValueError`` otherwise). ``ClosureBudgetExceeded`` is
    raised once the orbit, and so the group, exceeds ``max_size``.
    """
    if not generators:
        return 1
    for g in generators:
        g.validate()
    P = generators[0].poset
    idx = P._index
    gens = [tuple(idx[y] for y in g.mapping) for g in generators]
    base = tuple(idx[f] for f in _base_flag(P))
    seen = {base}
    frontier = [base]
    while frontier:
        new = []
        for flag in frontier:
            for g in gens:
                image = tuple(g[x] for x in flag)
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


def _lift(new: PolytopePoset, parent: PolytopePoset, g: FacePermutation) -> FacePermutation:
    """Act with g on the first coordinate of every pair-built face."""
    mapping = {}
    for eid in new.element_ids():
        if eid not in new.provenance:
            raise MissingProvenance(f"element {eid!r} has no product provenance")
        p, q = new.provenance[eid]
        mapping[eid] = pair_id(g[p], q)
    return FacePermutation.from_dict(new, mapping)


def _swap_last_coords(new: PolytopePoset, parent: PolytopePoset) -> FacePermutation:
    """Exchange the two most recently multiplied copies of the same atom.

    `new` is a product of `parent` with an atom, and `parent` ends in a copy
    of the same atom; the permutation sends ((f, a), b) to ((f, b), a). When
    the parent is the bare atom (no provenance), the swap is (a, b) -> (b, a).
    """
    parent_is_atom = not parent.provenance
    mapping = {}
    for eid in new.element_ids():
        p, q = new.provenance[eid]
        if parent_is_atom:
            mapping[eid] = pair_id(q, p)
        else:
            p1, p2 = parent.provenance[p]
            mapping[eid] = pair_id(pair_id(p1, q), p2)
    return FacePermutation.from_dict(new, mapping)


def _edge_flip_on_second(new: PolytopePoset) -> FacePermutation:
    """Swap the two copies of the parent inside parent x I (identity x flip)."""
    flip = {"a": "b", "b": "a", "0": "0", "1": "1"}
    mapping = {}
    for eid in new.element_ids():
        p, q = new.provenance[eid]
        mapping[eid] = pair_id(p, flip[q])
    return FacePermutation.from_dict(new, mapping)


def _triangle_last_transposition(tri: PolytopePoset) -> FacePermutation:
    """On the triangle I * pt, swap the second vertex of I with the apex.

    Faces of the triangle correspond to vertex subsets of {a, b, apex}; this
    is the transposition (b apex) on subsets, spelled out on the 8 faces.
    """
    mapping = {
        pair_id("0", "0"): pair_id("0", "0"),
        pair_id("a", "0"): pair_id("a", "0"),
        pair_id("b", "0"): pair_id("0", "1"),
        pair_id("1", "0"): pair_id("a", "1"),
        pair_id("0", "1"): pair_id("b", "0"),
        pair_id("a", "1"): pair_id("1", "0"),
        pair_id("b", "1"): pair_id("b", "1"),
        pair_id("1", "1"): pair_id("1", "1"),
    }
    return FacePermutation.from_dict(tri, mapping)


def described_generators(node) -> list[FacePermutation]:
    """Generating set of Aut(node.polytope) built recursively along the
    node's construction history.

    Prism steps append the swap of the two newest edge coordinates, pyramid
    steps append the swap of the two newest point copies (or the copy swap
    for a pyramid's prism child); the root edge contributes the vertex flip.
    The triangle, being I * pt = pt * pt * pt, gets its extra transposition
    as an explicit base case.
    """
    P = edge()
    flip = FacePermutation.from_dict(
        P, {"0": "0", "a": "b", "b": "a", "1": "1"}
    )
    gens = [flip]
    prev_prod = "cartesian"
    for depth, step in enumerate(node.path):
        if step == "xI":
            new = cartesian(P, edge())
            lifted = [_lift(new, P, g) for g in gens]
            if prev_prod == "cartesian":
                extra = _swap_last_coords(new, P)
            else:
                extra = _edge_flip_on_second(new)
            gens = lifted + [extra]
            prev_prod = "cartesian"
        elif step == "*pt":
            new = join(P, point())
            lifted = [_lift(new, P, g) for g in gens]
            if depth == 0:
                gens = lifted + [_triangle_last_transposition(new)]
            elif prev_prod == "join":
                gens = lifted + [_swap_last_coords(new, P)]
            else:
                gens = lifted
            prev_prod = "join"
        else:
            raise ValueError(f"unknown construction step {step!r}")
        P = new
    return gens
