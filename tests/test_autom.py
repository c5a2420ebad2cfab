import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import polyprod as pp
from polyprod import family, groups, poset
from polyprod.autom import _check_automorphism, closure, described_generators
from polyprod.errors import ClosureBudgetExceeded
from polyprod.expr import eval_expr, expr_size, parse_expr
from polyprod.poset import SearchBudgetExceeded, from_components, order_isomorphisms

from conftest import asts, family_polytope
from oracles import (
    compose,
    inverse,
    naive_automorphism_count,
    naive_group_order,
    naive_maximal_chains,
)


def _group(P):
    """Aut(P) as a sorted list of image tuples."""
    return sorted(order_isomorphisms(P, P))


def _identity(P):
    return tuple(range(len(P)))


def test_automorphisms_of_edge(seg):
    perms = _group(seg)
    assert len(perms) == 2
    assert _identity(seg) in perms
    swap = next(g for g in perms if g != _identity(seg))
    a, b = seg.face("a"), seg.face("b")
    assert swap[a] == b and swap[b] == a
    assert swap[seg.face("0")] == seg.face("0")
    assert swap[seg.face("1")] == seg.face("1")


def test_automorphisms_of_point(pt):
    assert _group(pt) == [_identity(pt)]


def test_automorphisms_of_square(square):
    assert len(_group(square)) == 8
    assert naive_automorphism_count(square) == 8


def test_automorphisms_of_triangle_naive_agreement(triangle):
    assert pp.aut_order(triangle) == naive_automorphism_count(triangle) == 6


def test_aut_order_examples(tetrahedron, cube, tri_prism):
    assert pp.aut_order(tetrahedron) == 24
    assert pp.aut_order(cube) == 48
    assert pp.aut_order(tri_prism) == 12


def test_aut_order_invariant_under_iso(triangle, pt):
    assert pp.aut_order(triangle) == pp.aut_order(pp.power(pt, "join", 3))


def test_search_budget(cube):
    with pytest.raises(SearchBudgetExceeded):
        list(order_isomorphisms(cube, cube, max_elements=10))


def test_group_axioms_literal(square):
    perms = _group(square)
    assert _identity(square) in perms
    table = set(perms)
    for g, h in itertools.product(perms, perms):
        assert compose(g, h) in table
    for g in perms:
        assert inverse(g) in table


def test_automorphisms_preserve_rank_and_flags(triangle):
    flags = set(naive_maximal_chains(triangle))
    assert len(flags) == 6
    labels = triangle.labels
    for g in _group(triangle):
        _check_automorphism(triangle, g)
        for i, j in enumerate(g):
            assert triangle.ranks[j] == triangle.ranks[i]
        images = {tuple(labels[g[triangle.face(eid)]] for eid in f) for f in flags}
        assert images == flags


def test_closure_trivial(seg):
    assert closure([_identity(seg)], seg) == 1


def test_closure_involution(seg):
    assert closure([(0, 2, 1, 3)], seg) == 2


@pytest.mark.parametrize(
    "labels, ranks, mapping, order",
    [(("0",), (-1,), (0,), 1), (("a", "b"), (-1, -1), (1, 0), 2)],
    ids=["one-face polytope", "two bottoms swapped"],
)
def test_closure_counts_one_face_flags(labels, ranks, mapping, order):
    """A base flag of one face: its images are counted as faces, one each."""
    P = poset.PolytopePoset(labels, ranks, [[]] * len(labels), check=False)
    assert closure([mapping], P) == order


def test_closure_empty(square):
    assert closure([], square) == 1


def test_closure_budget(square):
    with pytest.raises(ClosureBudgetExceeded):
        closure(_group(square), square, max_size=3)


def test_described_generators_cube():
    node = family.node_for_path(["xI", "xI"])
    P = family_polytope(node)
    gens = described_generators(P, node)
    assert len(gens) == 3
    for g in gens:
        _check_automorphism(P, g)
    assert closure(gens, P) == 48


def test_described_generators_triangle():
    node = family.node_for_path(["*pt"])
    P = family_polytope(node)
    gens = described_generators(P, node)
    assert len(gens) == 2
    for g in gens:
        _check_automorphism(P, g)
    assert closure(gens, P) == 6


def test_described_generators_prism():
    node = family.node_for_path(["*pt", "xI"])
    P = family_polytope(node)
    gens = described_generators(P, node)
    for g in gens:
        _check_automorphism(P, g)
    assert closure(gens, P) == 12


def test_formula_brute_generators_agree_through_step_5():
    nodes = [n for steps in range(6) for n in family.enumerate_family(steps)]
    assert len(nodes) == 63
    for node in nodes:
        formula = groups.order(family.aut_descriptor(node))
        P = family_polytope(node)
        assert pp.aut_order(P) == formula, node.path
        assert closure(described_generators(P, node), P) == formula, node.path


def test_brute_matches_formula_at_step_6():
    """Brute force = formula on all 64 step-6 nodes, up to I^x7 and its
    pyramids: each search branches along the polytope's base flag."""
    nodes = family.enumerate_family(6)
    assert len(nodes) == 64
    for node in nodes:
        formula = groups.order(family.aut_descriptor(node))
        assert pp.aut_order(family_polytope(node), max_elements=10**5) == formula, node.path


def test_generators_match_formula_at_step_6():
    """Closure = formula on all 64 step-6 nodes, I^x7 (645120 elements)
    included."""
    nodes = family.enumerate_family(6)
    assert len(nodes) == 64
    for node in nodes:
        formula = groups.order(family.aut_descriptor(node))
        P = family_polytope(node)
        assert closure(described_generators(P, node), P) == formula, node.path


def _subsets(gens):
    """Every non-empty subset of ``gens``, in order."""
    return [list(c) for k in range(1, len(gens) + 1) for c in itertools.combinations(gens, k)]


def test_closure_counts_subgroups_through_step_3():
    """Closure = the enumerated order of the group of every non-empty subset
    of each family node's generators through step 3, taken in order and in
    reverse, and with a generator repeated or the identity added, which
    closure skips as already counted."""
    nodes = [n for steps in range(4) for n in family.enumerate_family(steps)]
    assert len(nodes) == 15
    for node in nodes:
        P = family_polytope(node)
        for subset in _subsets(described_generators(P, node)):
            order = naive_group_order(subset)
            assert order <= 384
            for gens in (subset, subset[::-1], subset + subset[:1], [_identity(P), *subset]):
                assert closure(gens, P) == order, (node.path, gens)


def test_closure_counts_subgroups_of_a_non_family_shape():
    """Closure = the enumerated order on subsets of the brute-force group of
    a triangle times a triangle, (I * pt) x (pt^*3), of order 72."""
    P = eval_expr(parse_expr("(I*pt)x(pt^*3)"))
    group = _group(P)
    assert len(group) == 72
    rng = random.Random(5)
    orders = set()
    for k in (1, 1, 2, 2, 2, 3, 3):
        subset = rng.sample(group, k)
        order = naive_group_order(subset)
        assert closure(subset, P) == order, subset
        orders.add(order)
    assert len(orders) > 2


@pytest.mark.parametrize("path", [["xI", "xI"], ["*pt", "xI"], ["xI", "*pt", "*pt"]])
def test_closure_budget_edge(path):
    """A cap of |G| counts the whole group; a cap of |G| - 1 raises."""
    node = family.node_for_path(path)
    P = family_polytope(node)
    gens = described_generators(P, node)
    order = groups.order(family.aut_descriptor(node))
    assert closure(gens, P, max_size=order) == order
    with pytest.raises(ClosureBudgetExceeded):
        closure(gens, P, max_size=order - 1)


def _square_mutants(square):
    """The square with one cover deleted, for each cover; the square without
    its bottom (four minimal elements); and the square whose edge over
    (d, a) is moved onto (c, d), making a double edge."""
    out = []
    for cover in sorted(square.covers):
        covers = set(square.covers) - {cover}
        out.append(from_components(square.elements(), covers, check=False))
    bottomless = [(e, r) for e, r in square.elements() if r >= 0]
    covers = [(a, b) for a, b in square.covers if a != square.bottom]
    out.append(from_components(bottomless, covers, check=False))
    out.append(_double_edge())
    return out


def _double_edge():
    """Vertices a, b, c, d; edges ab, bc and two edges over c and d.

    Elements are listed so that the base flag runs through a and ab, which
    every automorphism fixes; swapping the two double edges fixes that flag,
    so the flag stabilizer has order 2."""
    vertices = ["a", "b", "c", "d"]
    edges = {"ab": "ab", "bc": "bc", "cd": "cd", "dc": "cd"}
    elements = [("0", -1)] + [(v, 0) for v in vertices]
    elements += [(e, 1) for e in edges] + [("1", 2)]
    covers = [("0", v) for v in vertices] + [(e, "1") for e in edges]
    covers += [(v, e) for e, ends in edges.items() for v in ends]
    return from_components(elements, covers)


def test_aut_order_exact_off_polytopes(square):
    mutants = _square_mutants(square)
    for P in mutants:
        assert not pp.verify_polytope(P).is_polytope
        assert pp.aut_order(P) == naive_automorphism_count(P)
    assert pp.aut_order(mutants[-1]) == 2


@st.composite
def _unchecked_posets(draw):
    """Up to 10 faces, at most 4 per rank, listed in a drawn order, and
    covers drawn from any face to any later-listed one: they may skip ranks,
    stay within a rank, go down in rank or repeat a path of other covers, so
    the cover lists need not be a Hasse diagram; they close no cycle."""
    ranks = []
    for rk, size in enumerate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))):
        ranks += [rk - 1] * min(size, 10 - len(ranks))
    ranks = draw(st.permutations(ranks))
    pairs = [(a, b) for b in range(len(ranks)) for a in range(b)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=16)) if pairs else []
    elements = [(f"f{i}", rk) for i, rk in enumerate(ranks)]
    return elements, [(f"f{a}", f"f{b}") for a, b in covers]


# no Hasse diagram: f0 -> f3 and f1 -> f4 are covers beside the longer paths
# f0 -> f2 -> f3 and f1 -> f2 -> f3 -> f4, and f2 -> f3 goes down in rank
_NOT_HASSE = (
    [("f0", 0), ("f1", 0), ("f2", 0), ("f3", -1), ("f4", -1)],
    [("f0", "f2"), ("f0", "f3"), ("f1", "f2"), ("f1", "f4"), ("f2", "f3"), ("f3", "f4")],
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_unchecked_posets(), st.randoms(use_true_random=False))
@example(_NOT_HASSE, random.Random(0))
def test_search_exact_off_polytopes(poset_data, rng):
    """On unchecked posets the search yields every rank- and
    cover-preserving bijection once: as many as the naive count, each a
    checked automorphism. ``is_isomorphic`` finds a map onto a copy whose
    elements are listed in shuffled order, sending covers onto covers. A
    search that narrowed the neighbours of a face by its image's up-set and
    down-set instead of its covers would yield one map too many on the
    example."""
    elements, covers = poset_data
    P = from_components(elements, covers, check=False)
    maps = list(order_isomorphisms(P, P))
    assert len(maps) == naive_automorphism_count(P)
    assert len(set(maps)) == len(maps)
    for m in maps:
        _check_automorphism(P, m)
    shuffled = rng.sample(elements, len(elements))
    Q = from_components(shuffled, covers, check=False)
    iso = pp.is_isomorphic(P, Q)
    assert iso is not None and sorted(iso.values()) == sorted(Q.labels)
    assert {(iso[a], iso[b]) for a, b in P.covers} == Q.covers


@settings(max_examples=100, deadline=None, derandomize=True)
@given(asts, st.randoms(use_true_random=False))
def test_search_exact_on_renumbered_polytopes(ast, rng):
    """A built polytope P and its copy Q, rebuilt from P's elements listed in
    shuffled order, number their faces differently, so the search that
    branches along P's base flag must find its images among Q's other
    numbers: ``is_isomorphic`` finds a map that sends covers onto covers,
    and the brute-force group orders agree."""
    if expr_size(ast) > 200:
        return
    P = eval_expr(ast)
    elements = P.elements()
    Q = from_components(rng.sample(elements, len(elements)), P.covers)
    iso = pp.is_isomorphic(P, Q)
    assert iso is not None and sorted(iso.values()) == sorted(Q.labels)
    assert {(iso[a], iso[b]) for a, b in P.covers} == Q.covers
    assert pp.aut_order(P) == pp.aut_order(Q)


def test_pinned_search(square):
    vertex = square.faces_of_rank(0)[0]
    fixing = list(order_isomorphisms(square, square, pins={vertex: vertex}))
    assert len(fixing) == 2
    assert all(m[vertex] == vertex for m in fixing)
    # an edge cannot be the image of a vertex
    edge_face = square.faces_of_rank(1)[0]
    assert list(order_isomorphisms(square, square, pins={vertex: edge_face})) == []


def test_closure_rejects_non_automorphism(square):
    """Each check of ``autom._check_automorphism`` rejects its own map: two
    faces sent to one, a vertex swapped with an edge, and two vertices
    swapped while their edges stay."""
    n = len(square)
    (a, b), e = square.faces_of_rank(0)[:2], square.faces_of_rank(1)[0]
    cases = [
        ({a: b}, "^not a bijection on the element set$"),
        ({a: e, e: a}, f"^rank not preserved at face {min(a, e)}$"),
        ({a: b, b: a}, "^cover relation not preserved$"),
    ]
    for images, message in cases:
        g = tuple(images.get(i, i) for i in range(n))
        with pytest.raises(ValueError, match=message):
            closure([g], square)


# property suite: group axioms on randomly drawn pairs over the corpus

_CORPUS = None


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = {
            name: _group(P)
            for name, P in {
                "pt": pp.point(),
                "I": pp.edge(),
                "triangle": pp.join(pp.edge(), pp.point()),
                "square": pp.cartesian(pp.edge(), pp.edge()),
                "prism": pp.cartesian(pp.join(pp.edge(), pp.point()), pp.edge()),
            }.items()
        }
    return _CORPUS


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_group_axioms_property(data):
    name = data.draw(st.sampled_from(sorted(_corpus())))
    perms = _corpus()[name]
    table = set(perms)
    g = data.draw(st.sampled_from(perms))
    h = data.draw(st.sampled_from(perms))
    assert compose(g, h) in table
    assert inverse(g) in table
    assert compose(g, inverse(g)) == tuple(range(len(g)))
    assert tuple(range(len(g))) in perms


@pytest.mark.parametrize(
    "text, order", [("I^x4", 384), ("((I*pt)x(I^x3))*(pt^*2)", 576)]
)
def test_aut_order_builds_search_tables_once(monkeypatch, text, order):
    """aut_order runs one search per chain candidate, but the signatures are
    computed once: the search tables are built for P alone, once, and kept
    on it."""
    builds = []
    search = poset.PolytopePoset._search.func

    def counting(P):
        builds.append(P)
        return search(P)

    monkeypatch.setattr(poset.PolytopePoset._search, "func", counting)
    P = eval_expr(parse_expr(text))
    assert pp.aut_order(P) == order
    assert builds == [P]
