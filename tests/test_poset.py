import json

import pytest
from hypothesis import given, settings

import polyprod as pp
from polyprod import poset
from polyprod.cli import main
from polyprod.expr import expr_size
from polyprod.errors import (
    DanglingCover,
    DuplicateId,
    NotBounded,
    NotComparable,
    NotGraded,
    UnknownId,
)

from conftest import asts
from oracles import naive_leq, naive_maximal_chains, naive_interval
from test_verify import _ranked_posets


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


def _two_edges(split):
    """Four vertices under two edges, the first over ``split`` of them, and
    one top: a bounded graded poset, but not a polytope."""
    vertices = "abcd"
    covers = [("0", v) for v in vertices]
    covers += [(v, "e" if k < split else "f") for k, v in enumerate(vertices)]
    covers += [("e", "1"), ("f", "1")]
    elements = [("0", -1)] + [(v, 0) for v in vertices] + [("e", 1), ("f", 1), ("1", 2)]
    return pp.from_components(elements, covers, check=False)


def test_not_isomorphic_equal_size_signatures_differ():
    """Equal face counts, different signature multisets: no map either way,
    and the tables each search builds stay on the poset for the next one."""
    P, Q = _two_edges(2), _two_edges(3)
    assert len(P) == len(Q)
    assert pp.is_isomorphic(P, Q) is None
    assert pp.is_isomorphic(Q, P) is None
    tables = P._search
    assert tables is not None
    assert pp.is_isomorphic(P, _two_edges(2)) is not None
    assert P._search is tables


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


def _naive_reach(covers, start):
    """The faces reachable from ``start`` along ``covers``, by breadth-first
    search, ``start`` included."""
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [b for a, b in covers if a in frontier and b not in seen]
        seen.update(frontier)
    return seen


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ranked_posets())
def test_closures_match_naive_search(poset_data):
    """The constructor raises NotGraded exactly when the covers close a cycle
    (self-covers included), with or without ``check``. Otherwise ``above``
    and ``below`` are the naive closures over ``P.covers``. The covers go
    to the constructor as drawn, repeats included."""
    elements, label_covers = poset_data
    index = {eid: i for i, (eid, _) in enumerate(elements)}
    covers = [(index[a], index[b]) for a, b in label_covers]
    cyclic = any(a in _naive_reach(covers, b) for a, b in covers)
    labels, ranks = zip(*elements)
    if cyclic:
        for check in (False, True):
            with pytest.raises(NotGraded, match="^cover relation contains a cycle$"):
                poset.PolytopePoset(labels, ranks, covers, check=check)
        return
    P = poset.PolytopePoset(labels, ranks, covers, check=False)
    ups = list(P.covers)
    downs = [(b, a) for a, b in ups]
    for i, eid in enumerate(P.labels):
        assert {P.labels[j] for j in poset._bits(P.above[i])} == _naive_reach(ups, eid)
        assert {P.labels[j] for j in poset._bits(P.below[i])} == _naive_reach(downs, eid)


def test_repeated_covers_count_once_and_self_covers_are_cycles():
    repeated = [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]
    P = poset.PolytopePoset(("0", "a", "b", "1"), (-1, 0, 0, 1), repeated)
    assert P.above == pp.edge().above and P.below == pp.edge().below
    for check in (False, True):
        with pytest.raises(NotGraded, match="cycle"):
            poset.PolytopePoset(("0", "1"), (-1, 0), [(0, 1), (1, 1)], check=check)


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["build", "pt^*9"], 0),
        (["aut", "I^x4", "--method", "generators"], 0),
        (["verify", "pt^*9"], 1),
    ],
    ids=["build", "aut-generators", "verify"],
)
def test_reachability_tables_built_only_where_read(closure_builds, capsys, argv, builds):
    """Products, builds and the generators method read no reachability
    table; the verifier builds the tables of the poset it checks, once."""
    assert main(argv) == 0
    assert len(closure_builds) == builds


def test_aut_order_builds_reachability_tables_once(closure_builds):
    P = pp.eval_expr(pp.parse_expr("(I*pt)xI"))
    assert closure_builds == []
    assert pp.aut_order(P) == 12
    assert closure_builds == [P]


def _reference_violations(P):
    """``P.violations()`` as (type, message) pairs, recomputed from
    ``P.elements()`` and ``P.covers``, with "every element lies between
    bottom and top" decided by ``_naive_reach``."""
    labels, ranks = zip(*P.elements())
    n = len(labels)
    covers = sorted(P.covers, key=lambda c: (labels.index(c[0]), labels.index(c[1])))
    rank = dict(zip(labels, ranks))
    out = [
        (NotGraded, f"cover ({a!r}, {b!r}) does not raise rank by exactly 1")
        for a, b in covers
        if rank[b] != rank[a] + 1
    ]
    low, high = min(ranks), max(ranks)
    bottoms = [eid for eid in labels if rank[eid] == low]
    tops = [eid for eid in labels if rank[eid] == high]
    downs = [(b, a) for a, b in covers]
    if low != -1:
        out.append((NotBounded, "minimal rank must be -1"))
    elif len(bottoms) > 1:
        out.append((NotBounded, "more than one element of minimal rank"))
    elif len(tops) > 1:
        out.append((NotBounded, "more than one element of maximal rank"))
    elif len(_naive_reach(covers, bottoms[0])) < n or len(_naive_reach(downs, tops[0])) < n:
        out.append((NotBounded, "not every element lies between bottom and top"))
    for eid in labels:
        if rank[eid] > -1 and all(b != eid for _, b in covers):
            out.append((NotGraded, f"element {eid!r} has no lower cover"))
        if rank[eid] < high and all(a != eid for a, _ in covers):
            out.append((NotGraded, f"element {eid!r} has no upper cover"))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ranked_posets())
def test_violations_match_naive_reachability(poset_data):
    """On acyclic random ranked posets built without ``check`` (repeated
    covers once), the violations are the reference's, so boundedness read
    from the cover lists agrees with boundedness by reachability."""
    elements, label_covers = poset_data
    index = {eid: i for i, (eid, _) in enumerate(elements)}
    covers = {(index[a], index[b]) for a, b in label_covers}
    if any(a in _naive_reach(covers, b) for a, b in covers):
        return
    P = poset.PolytopePoset(*zip(*elements), covers, check=False)
    assert [(type(v), str(v)) for v in P.violations()] == _reference_violations(P)


@pytest.mark.parametrize(
    "covers",
    [
        [(0, 1), (0, 2), (1, 3), (2, 3)],  # the edge
        [(0, 3), (1, 3), (2, 3)],  # a and b have no lower cover
        [(0, 1), (0, 2), (0, 3)],  # a and b have no upper cover
        [(1, 0), (0, 2), (0, 3), (1, 3), (2, 3)],  # the bottom has a lower cover
        [(0, 1), (0, 2), (1, 3), (3, 2)],  # the top has an upper cover
    ],
    ids=["bounded", "two-minimal", "two-maximal", "under-bottom", "over-top"],
)
def test_boundedness_read_from_cover_lists(covers):
    """Each clause of the boundedness test alone decides it, on four faces
    ranked as the edge's. The last two posets each have one face without a
    lower cover and one without an upper cover, yet the bottom has a lower
    cover or the top an upper cover, so they are not bounded."""
    P = poset.PolytopePoset(("0", "a", "b", "1"), (-1, 0, 0, 1), covers, check=False)
    violations = [(type(v), str(v)) for v in P.violations()]
    assert violations == _reference_violations(P)
    between = (NotBounded, "not every element lies between bottom and top")
    assert (between in violations) == (covers != [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_verify_then_aut_order_builds_cover_masks_once(mask_builds):
    """The verifier and every search of aut_order read the one pair of
    cover masks kept on P."""
    P = pp.eval_expr(pp.parse_expr("((I*pt)x(I^x3))*(pt^*2)"))
    assert mask_builds == []
    assert pp.verify_polytope(P).is_polytope
    assert pp.aut_order(P) == 576
    assert len(mask_builds) == 1 and mask_builds[0] is P


def _dumped(P):
    return json.dumps(poset.to_json(P), indent=2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(asts)
def test_json_text_equals_json_dumps_on_built_posets(ast):
    """The JSON writer of ``build`` and ``decompose`` prints what
    ``json.dumps(to_json(P), indent=2)`` prints, byte for byte."""
    if expr_size(ast) > 300:
        return
    P = pp.eval_expr(ast)
    assert poset._to_json_text(P) == _dumped(P)


@pytest.mark.parametrize(
    "elements, covers",
    [
        # int, float and bool ids, as from_json accepts them
        ([(0, -1), (2.5, 0), (-7, 0), (True, 1)], [(0, 2.5), (0, -7), (2.5, True), (-7, True)]),
        # quotes, backslashes and non-ASCII text must be escaped as json does
        (
            [("0", -1), ('say "hi"', 0), ("back\\slash", 0), ("été ☃", 1)],
            [("0", 'say "hi"'), ("0", "back\\slash"), ('say "hi"', "été ☃"),
             ("back\\slash", "été ☃")],
        ),
        # one face and no covers: the cover list is written as []
        ([("only", -1)], []),
    ],
    ids=["numbers", "escapes", "one-face"],
)
def test_json_text_equals_json_dumps_on_stored_posets(elements, covers):
    data = {
        "elements": [{"id": eid, "rank": rk} for eid, rk in elements],
        "covers": [list(c) for c in covers],
    }
    P = poset.from_json(json.loads(json.dumps(data)), check=False)
    assert poset._to_json_text(P) == _dumped(P)
