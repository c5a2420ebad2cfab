"""Automorphisms, each the tuple of the images of a poset's faces: the
brute-force group order by a stabilizer chain, the order of the group a
generating set generates, and the generating sets of the inductive family's
polytopes."""

from __future__ import annotations

from operator import itemgetter

from .errors import ClosureBudgetExceeded
from .poset import DEFAULT_SEARCH_CAP, PolytopePoset, _base_flag, order_isomorphisms
from .products import CARTESIAN, JOIN, SHARED_FACES, _face_count, _lift, _swap

DEFAULT_CLOSURE_CAP = 1_000_000

# the faces of the atom a factor is a power of: I^x k or pt^* k
_ATOM_FACES = {CARTESIAN: 4, JOIN: 2}


def _check_automorphism(P: PolytopePoset, m: tuple[int, ...]) -> None:
    """ValueError unless ``m``, the tuple of the images of P's faces, is a
    rank- and cover-preserving bijection of P."""
    if sorted(m) != list(range(len(P))):
        raise ValueError("not a bijection on the element set")
    ranks = P.ranks
    if tuple(map(ranks.__getitem__, m)) != ranks:
        i = next(i for i, j in enumerate(m) if ranks[i] != ranks[j])
        raise ValueError(f"rank not preserved at face {i}")
    for ups, images in zip(P.upper, map(P.upper.__getitem__, m)):
        for b in ups:
            if m[b] not in images:
                raise ValueError("cover relation not preserved")


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

    With base flag f_0 < f_1 < ... < f_m (``poset._base_flag``, the flag
    the search branches along; f_0 is the bottom when P has one), the
    orbit-stabilizer theorem applied level by level gives

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
    reads two cached properties of P, both built from its cover lists: the
    search tables ``P._search`` (signatures and signature masks) and the
    cover masks ``P._masks``. The first search builds both, and later
    searches build neither; no search builds ``above`` or ``below``.
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
                _check_automorphism(P, hit)
                found.append(hit)
                orbit = _orbit(flag[i], found)
        order *= len(orbit)
    pins = {f: f for f in flag}
    return order * sum(1 for _ in order_isomorphisms(P, P, max_elements, pins=pins))


def closure(
    generators: list[tuple[int, ...]],
    P: PolytopePoset,
    max_size: int = DEFAULT_CLOSURE_CAP,
) -> int:
    """Order of the group generated by ``generators``, each the tuple of
    the images of P's faces, counted on flags.

    Precondition: the generators act on a polytope, as those of
    ``described_generators`` always do. The automorphism group of a
    polytope acts freely on its flags, so by orbit-stabilizer the group
    they generate has exactly as many elements as the orbit of the base
    flag (``poset._base_flag``) under them; that orbit is what is counted,
    storing one flag per element rather than the element itself.

    The group is grown one generator at a time, coset by coset (Dimino's
    algorithm). With H the group of the generators taken so far and s the
    next one, s is skipped when its image of the base flag is already
    counted, as it is then in H. Otherwise the left cosets g H that make up
    <H, s> are walked from the identity: for each coset representative r
    and each generator t taken so far, t r is looked up by its image of the
    base flag, and when that flag is new, t r starts a new coset, whose
    flags are the images under t r of H's flags. Flags are tuples of faces
    and permutations tuples of images, so each image is one C call of an
    ``itemgetter`` made once per flag of H or per representative. Each
    element of the group is made once, not once per generator.

    On a polytope the cosets' flags are disjoint, |H| of them per coset, so
    ``ClosureBudgetExceeded`` is raised before a coset is added that would
    take the count past ``max_size``: exactly when the group has more than
    ``max_size`` elements. On a poset whose automorphisms can fix a flag,
    which no polytope has, cosets can share flags and a generator outside
    H can look as if it were in H; the count is then at most the orbit of
    the base flag, itself at most the group order.

    Each generator is first checked to be a rank- and cover-preserving
    bijection (``ValueError`` otherwise).
    """
    for g in generators:
        _check_automorphism(P, g)
    base = tuple(_base_flag(P))
    if len(base) == 1:
        # itemgetter of one index returns the bare face, not a 1-tuple; the
        # flag (f, f) has one image per image of f, so the count is the same
        base *= 2
    at_base = itemgetter(*base)
    seen = {base}
    taken = []
    for s in generators:
        taken.append(s)
        if at_base(s) in seen:
            continue
        of_h = [itemgetter(*flag) for flag in seen]
        reps = [tuple(range(len(s)))]
        for r in reps:
            at_r = itemgetter(*at_base(r))
            for t in taken:
                if at_r(t) not in seen:
                    if len(seen) + len(of_h) > max_size:
                        raise ClosureBudgetExceeded(
                            f"closure exceeds the cap of {max_size}"
                        )
                    g = tuple(map(t.__getitem__, r))
                    seen.update([get(g) for get in of_h])
                    reps.append(g)
    return len(seen)


# -- generating sets from the factorisation ------------------------------------


def described_generators(P: PolytopePoset, node) -> list[tuple[int, ...]]:
    """Generating set of Aut(P), for P the polytope of a family-shaped
    expression and ``node`` its family node, read off ``node.factors``, as
    tuples of the images of P's faces.

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
    return gens
