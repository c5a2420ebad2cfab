"""Automorphisms: brute-force enumeration, permutation-group closure and the
recursive generating sets for polytopes of the inductive family."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import ClosureBudgetExceeded
from .poset import DEFAULT_SEARCH_CAP, PolytopePoset, order_isomorphisms
from .products import CARTESIAN, JOIN, SHARED_FACES, _face_count, _lift, _swap

DEFAULT_CLOSURE_CAP = 1_000_000

# the faces of the atom a factor is a power of: I^x k or pt^* k
_ATOM_FACES = {CARTESIAN: 4, JOIN: 2}


@dataclass(frozen=True)
class FacePermutation:
    """A rank- and order-preserving bijection of a fixed polytope's faces;
    ``mapping[i]`` is the image of face i."""

    poset: PolytopePoset
    mapping: tuple[int, ...]

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
    reads two cached properties of P: the search tables ``P._search``
    (signatures and signature masks), built by the first search from P's
    reachability bitsets ``above`` and ``below``, and the cover masks
    ``P._masks``, built by the first search or by an earlier
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


# -- generating sets from the factorisation ------------------------------------


def described_generators(P: PolytopePoset, node) -> list[FacePermutation]:
    """Generating set of Aut(P), for P the polytope of a family-shaped
    expression and ``node`` its family node, read off ``node.factors``.

    Each factor (op, k) adds k copies of its atom, I or pt: the first copy
    of I brings its vertex flip (I is laid out as pt * pt), and every later
    copy its swap with the copy before. The walk starts from the first
    factor's unit, of ``SHARED_FACES[op] + 1`` faces, as unit op Q is laid
    out as Q, and lifts each generator onto each larger product with
    ``products._lift``. Products are associative in layout, so every
    spelling ``expr.expr_to_family`` accepts is laid out as this walk."""
    flip = _swap(JOIN, 2)
    gens = []
    n = before = SHARED_FACES[node.factors[0][0]] + 1
    for op, k in node.factors:
        atom = _ATOM_FACES[op]
        for copy in range(k):
            gens = [_lift(op, g, range(atom)) for g in gens]
            if copy:
                gens.append(_lift(op, range(before), _swap(op, atom)))
            elif op == CARTESIAN:
                gens.append(_lift(op, range(n), flip))
            before, n = n, _face_count(op, n, atom)
    return [FacePermutation(P, g) for g in gens]
