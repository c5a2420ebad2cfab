import json

import pytest

import polyprod as pp
from polyprod import poset
from polyprod.errors import (
    DanglingCover,
    DuplicateId,
    NotBounded,
    NotComparable,
    NotGraded,
    UnknownId,
)

from oracles import naive_leq, naive_maximal_chains, naive_interval


def test_from_components_edge():
    I = pp.from_components(
        [("0", -1), ("v", 0), ("w", 0), ("1", 1)],
        [("0", "v"), ("0", "w"), ("v", "1"), ("w", "1")],
    )
    assert len(I) == 4
    assert I.rank == 1
    assert I.bottom == "0" and I.top == "1"


def test_from_components_point():
    P = pp.from_components([("0", -1), ("1", 0)], [("0", "1")])
    assert P.rank == 0
    assert len(P) == 2


def test_from_components_cycle_is_not_graded():
    with pytest.raises(NotGraded):
        pp.from_components(
            [("0", -1), ("a", 0), ("b", 1)],
            [("0", "a"), ("a", "b"), ("b", "a")],
        )


def test_from_components_duplicate_id():
    with pytest.raises(DuplicateId):
        pp.from_components([("0", -1), ("0", 0)], [])


def test_from_components_dangling_cover():
    with pytest.raises(DanglingCover):
        pp.from_components([("0", -1), ("1", 0)], [("0", "missing")])


def test_from_components_rank_jump_not_graded():
    with pytest.raises(NotGraded):
        pp.from_components([("0", -1), ("1", 1)], [("0", "1")])


def test_from_components_two_bottoms_not_bounded():
    with pytest.raises(NotBounded):
        pp.from_components(
            [("0", -1), ("0'", -1), ("1", 0)], [("0", "1"), ("0'", "1")]
        )


def test_less_eq_examples(seg, pt):
    assert pp.less_eq(seg, "0", "1")
    assert not pp.less_eq(seg, "a", "b")
    assert not pp.less_eq(pt, "1", "0")
    assert pp.less_eq(pt, "1", "1")


def test_less_eq_unknown_id(seg):
    with pytest.raises(UnknownId):
        pp.less_eq(seg, "0", "nope")


def test_less_eq_matches_bfs(small_corpus):
    for P in small_corpus.values():
        ids = P.element_ids()
        for a in ids:
            for b in ids:
                assert P.less_eq(a, b) == naive_leq(P, a, b)


def test_full_section_is_whole_poset(square):
    S = pp.section(square, square.bottom_face, square.top_face)
    assert pp.is_isomorphic(S, square) is not None


def test_section_of_square_edge_is_I(square, seg):
    e = square.faces_of_rank(1)[0]
    expected = sorted(naive_interval(square, square.bottom, square.labels[e]))
    S = pp.section(square, square.bottom_face, e)
    assert sorted(S.element_ids()) == expected
    assert S.rank == 1
    assert pp.is_isomorphic(S, seg) is not None


def test_cube_vertex_figure_is_triangle(cube, triangle):
    v = cube.faces_of_rank(0)[0]
    upper = naive_interval(cube, cube.labels[v], cube.top)
    assert len(upper) == 8
    S = pp.section(cube, v, cube.top_face)
    assert pp.is_isomorphic(S, triangle) is not None


def test_section_requires_comparability(square):
    v, w = square.faces_of_rank(0)[:2]
    if square.less_eq(square.labels[v], square.labels[w]):
        pytest.skip("vertices unexpectedly comparable")
    with pytest.raises(NotComparable):
        pp.section(square, v, w)


def test_flags_counts(pt, seg, square):
    assert len(pp.flags(pt)) == 1
    assert pp.flags(pt) == [("0", "1")]
    assert len(pp.flags(seg)) == 2
    assert len(pp.flags(square)) == len(naive_maximal_chains(square)) == 8


def test_flag_lengths_over_corpus(small_corpus):
    for P in small_corpus.values():
        for chain in naive_maximal_chains(P):
            assert len(chain) == P.rank + 2
        for flag in pp.flags(P):
            assert len(flag) == P.rank + 2
            assert flag[0] == P.bottom and flag[-1] == P.top


def test_isomorphic_triangle_builds(seg, pt, triangle):
    other = pp.power(pt, "join", 3)
    mapping = pp.is_isomorphic(triangle, other)
    assert mapping is not None
    # order preserved in both directions
    for a in triangle.element_ids():
        for b in triangle.element_ids():
            assert triangle.less_eq(a, b) == other.less_eq(mapping[a], mapping[b])


def test_not_isomorphic_triangle_square(triangle, square):
    assert len(triangle) != len(square)
    assert pp.is_isomorphic(triangle, square) is None


def test_isomorphic_identity(square):
    mapping = pp.is_isomorphic(square, square)
    assert mapping is not None


def test_isomorphism_symmetric(triangle, pt):
    other = pp.power(pt, "join", 3)
    f = pp.is_isomorphic(triangle, other)
    g = pp.is_isomorphic(other, triangle)
    assert f is not None and g is not None


def test_isomorphism_map_inverts(triangle, pt):
    other = pp.power(pt, "join", 3)
    f = pp.is_isomorphic(triangle, other)
    inv = {v: k for k, v in f.items()}
    assert all(inv[f[k]] == k for k in f)


def test_flag_count_invariant_under_iso(triangle, pt):
    other = pp.power(pt, "join", 3)
    assert len(pp.flags(triangle)) == len(pp.flags(other))


def test_search_budget(square):
    with pytest.raises(pp.poset.SearchBudgetExceeded):
        pp.is_isomorphic(square, square, max_elements=5)


def test_json_round_trip(square):
    data = poset.to_json(square)
    # covers listed lexicographically
    assert data["covers"] == sorted(data["covers"])
    back = poset.from_json(json.loads(json.dumps(data)))
    assert pp.is_isomorphic(back, square) is not None
    assert back.element_ids() == square.element_ids()


def test_dot_export(seg):
    dot = poset.to_dot(seg)
    assert dot.startswith("digraph")
    assert '"a" [label="a:0"];' in dot
    assert '"0" -> "a";' in dot
    assert "rank=same" in dot


def test_dot_escapes_quotes_and_backslashes():
    P = pp.from_components(
        [("0", -1), ('say "hi"', 0), ("back\\slash", 0), ("1", 1)],
        [("0", 'say "hi"'), ("0", "back\\slash"), ('say "hi"', "1"), ("back\\slash", "1")],
    )
    dot = poset.to_dot(P)
    assert '"say \\"hi\\"" [label="say \\"hi\\":0"];' in dot
    assert '"0" -> "back\\\\slash";' in dot
    assert '{ rank=same; "back\\\\slash"; "say \\"hi\\""; }' in dot
