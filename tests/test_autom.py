import itertools

import pytest
from hypothesis import given, settings, strategies as st

import polyprod as pp
from polyprod import family, groups, poset
from polyprod.autom import FacePermutation, closure, described_generators, identity
from polyprod.errors import ClosureBudgetExceeded
from polyprod.expr import eval_expr, parse_expr
from polyprod.poset import SearchBudgetExceeded, from_components, order_isomorphisms

from oracles import naive_automorphism_count


def test_automorphisms_of_edge(seg):
    perms = pp.automorphisms(seg)
    assert len(perms) == 2
    assert any(g.is_identity() for g in perms)
    swap = next(g for g in perms if not g.is_identity())
    assert swap["a"] == "b" and swap["b"] == "a"
    assert swap["0"] == "0" and swap["1"] == "1"


def test_automorphisms_of_point(pt):
    perms = pp.automorphisms(pt)
    assert len(perms) == 1
    assert perms[0].is_identity()


def test_automorphisms_of_square(square):
    assert len(pp.automorphisms(square)) == 8
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
        pp.automorphisms(cube, max_elements=10)


def test_group_axioms_literal(square):
    perms = pp.automorphisms(square)
    assert identity(square) in perms
    table = set(perms)
    for g, h in itertools.product(perms, perms):
        assert g.compose(h) in table
    for g in perms:
        assert g.inverse() in table


def test_automorphisms_preserve_rank_and_flags(triangle):
    n_flags = len(pp.flags(triangle))
    for g in pp.automorphisms(triangle):
        g.validate()
        for eid in triangle.element_ids():
            assert triangle.rank_of(g[eid]) == triangle.rank_of(eid)
    assert n_flags == len(pp.flags(triangle))


def test_closure_trivial(seg):
    assert closure([identity(seg)]) == 1


def test_closure_involution(seg):
    swap = FacePermutation.from_dict(seg, {"0": "0", "a": "b", "b": "a", "1": "1"})
    assert closure([swap]) == 2


@pytest.mark.parametrize(
    "labels, ranks, mapping, order",
    [(("0",), (-1,), (0,), 1), (("a", "b"), (-1, -1), (1, 0), 2)],
    ids=["one-face polytope", "two bottoms swapped"],
)
def test_closure_counts_one_face_flags(labels, ranks, mapping, order):
    """A base flag of one face: its images are counted as faces, one each."""
    P = poset.PolytopePoset(labels, ranks, [], check=False)
    assert closure([FacePermutation(P, mapping)]) == order


def test_closure_empty():
    assert closure([]) == 1


def test_closure_budget(square):
    perms = pp.automorphisms(square)
    with pytest.raises(ClosureBudgetExceeded):
        closure(perms, max_size=3)


def test_described_generators_cube():
    node = family.node_for_path(["xI", "xI"])
    gens = described_generators(node)
    assert len(gens) == 3
    for g in gens:
        g.validate()
    assert closure(gens) == 48


def test_described_generators_triangle():
    node = family.node_for_path(["*pt"])
    gens = described_generators(node)
    assert len(gens) == 2
    for g in gens:
        g.validate()
    assert closure(gens) == 6


def test_described_generators_prism():
    node = family.node_for_path(["*pt", "xI"])
    gens = described_generators(node)
    for g in gens:
        g.validate()
    assert closure(gens) == 12


def test_formula_brute_generators_agree_through_step_5():
    nodes = [n for steps in range(6) for n in family.enumerate_family(steps)]
    assert len(nodes) == 63
    for node in nodes:
        formula = groups.order(family.aut_descriptor(node))
        assert pp.aut_order(node.polytope) == formula, node.path
        assert closure(described_generators(node)) == formula, node.path


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


def test_pinned_search(square):
    vertex = square.faces_of_rank(0)[0]
    fixing = list(order_isomorphisms(square, square, pins={vertex: vertex}))
    assert len(fixing) == 2
    assert all(m[vertex] == vertex for m in fixing)
    # an edge cannot be the image of a vertex
    edge_face = square.faces_of_rank(1)[0]
    assert list(order_isomorphisms(square, square, pins={vertex: edge_face})) == []


def test_closure_rejects_non_automorphism(square):
    a, b = square.elements_of_rank(0)[:2]
    swap = {eid: eid for eid in square.element_ids()}
    swap[a], swap[b] = b, a
    g = FacePermutation.from_dict(square, swap)
    with pytest.raises(ValueError, match="cover"):
        closure([g])


# property suite: group axioms on randomly drawn pairs over the corpus

_CORPUS = None


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = {
            name: pp.automorphisms(P)
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
    assert g.compose(h) in table
    assert g.inverse() in table
    assert g.compose(g.inverse()).is_identity()
    assert any(p.is_identity() for p in perms)


@pytest.mark.parametrize(
    "text, order", [("I^x4", 384), ("((I*pt)x(I^x3))*(pt^*2)", 576)]
)
def test_aut_order_builds_search_tables_once(monkeypatch, text, order):
    """aut_order runs one search per chain candidate, but the signatures are
    computed once per face: the search tables are kept on the poset."""
    calls = 0
    signature = poset._signature

    def counting(P, i):
        nonlocal calls
        calls += 1
        return signature(P, i)

    monkeypatch.setattr(poset, "_signature", counting)
    P = eval_expr(parse_expr(text))
    assert pp.aut_order(P) == order
    assert calls <= len(P)
