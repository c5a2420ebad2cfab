import json
import random
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings

import polyprod as pp
from polyprod import poset
from polyprod.cli import main
from polyprod.expr import Atom, Power, Product, expr_size, render_expr
from polyprod.errors import (
    DanglingCover,
    DuplicateId,
    NotBounded,
    NotComparable,
    NotGraded,
    ParseError,
    UnknownId,
)
from polyprod.products import CARTESIAN, JOIN

from conftest import asts, crosscheck_module
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
    assert seg.less_eq("0", "1")
    assert not seg.less_eq("a", "b")
    assert not pt.less_eq("1", "0")
    assert pt.less_eq("1", "1")


def test_less_eq_unknown_id(seg):
    with pytest.raises(UnknownId):
        seg.less_eq("0", "nope")


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
    assert naive_maximal_chains(pt) == [("0", "1")]
    assert len(naive_maximal_chains(seg)) == 2
    assert len(naive_maximal_chains(square)) == 8


def test_flag_lengths_over_corpus(small_corpus):
    for P in small_corpus.values():
        for chain in naive_maximal_chains(P):
            assert len(chain) == P.rank + 2
            assert chain[0] == P.bottom and chain[-1] == P.top


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


def test_not_isomorphic_equal_size_signatures_differ(table_holders):
    """Equal face counts, different signature multisets: no map either way,
    and the tables each search builds stay on the poset for the next one."""
    P, Q = _two_edges(2), _two_edges(3)
    assert len(P) == len(Q)
    assert table_holders("_search") == []
    assert pp.is_isomorphic(P, Q) is None
    assert pp.is_isomorphic(Q, P) is None
    assert table_holders("_search") == [P, Q]
    tables = vars(P)["_search"]
    R = _two_edges(2)
    assert pp.is_isomorphic(P, R) is not None
    assert vars(P)["_search"] is tables
    assert table_holders("_search") == [P, Q, R]


def _random_ast(rng, leaves):
    """A random expression tree over ``leaves`` atoms, counting a power's
    base as one fewer."""
    if leaves == 1:
        return Atom(rng.choice(("pt", "I")))
    op = rng.choice((JOIN, CARTESIAN))
    if rng.random() < 0.3:
        return Power(op, _random_ast(rng, leaves - 1), rng.randint(2, 4))
    left = rng.randint(1, leaves - 1)
    return Product(op, _random_ast(rng, left), _random_ast(rng, leaves - left))


def test_search_answers_not_isomorphic_exactly_where_factorisations_differ():
    """On 600 distinct seeded random expressions of up to 300 faces, every
    pair of equal size has a map found by ``is_isomorphic`` exactly when
    ``perfbench/shapes.py`` gives both the same factorisation. On these
    products the signature multisets (rank and cover degrees) already tell
    every pair that is not isomorphic apart, so a hexagon against two
    triangles under one top, whose multisets agree, makes the search itself
    answer "not isomorphic"."""
    shapes = crosscheck_module().load_shapes()
    fold = {JOIN: shapes.join, CARTESIAN: shapes.cart}

    def shape(e):
        if isinstance(e, Atom):
            return shapes.PT if e.name == "pt" else shapes.I
        if isinstance(e, Product):
            return fold[e.op](shape(e.left), shape(e.right))
        out = base = shape(e.base)
        for _ in range(e.k - 1):
            out = fold[e.op](out, base)
        return out

    rng = random.Random(0)
    corpus = {}
    while len(corpus) < 600:
        ast = _random_ast(rng, rng.randint(1, 6))
        if expr_size(ast) <= 300:
            corpus.setdefault(render_expr(ast), ast)
    by_size = defaultdict(list)
    for text, ast in corpus.items():
        by_size[expr_size(ast)].append((text, pp.eval_expr(ast), shape(ast).canon))
    apart = 0
    for group in by_size.values():
        for (s, P, a), (t, Q, b) in combinations(group, 2):
            assert (pp.is_isomorphic(P, Q) is not None) == (a == b), (s, t)
            apart += a != b
    assert apart > 300

    hexagon, triangles = _polygons(6), _polygons(3, 3)
    counts = [{s: m.bit_count() for s, m in P._search[1].items()} for P in (hexagon, triangles)]
    assert counts[0] == counts[1]
    assert pp.is_isomorphic(hexagon, triangles) is None
    assert pp.is_isomorphic(triangles, hexagon) is None
    assert pp.is_isomorphic(hexagon, _polygons(6)) is not None


def _polygons(*sizes):
    """Polygons with ``sizes`` vertices, disjoint, under one top face."""
    elements, covers = [("0", -1), ("1", 2)], []
    for p, k in enumerate(sizes):
        vertices = [f"v{p}.{i}" for i in range(k)]
        for i, v in enumerate(vertices):
            e = f"e{p}.{i}"
            elements += [(v, 0), (e, 1)]
            covers += [("0", v), (v, e), (vertices[i - 1], e), (e, "1")]
    return pp.from_components(elements, covers)


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
    assert len(naive_maximal_chains(triangle)) == len(naive_maximal_chains(other))


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


def test_built_poset_read_back_takes_the_constructors_fast_path(capsys, monkeypatch):
    """build lists covers by id text, not by face. from_json sorts each
    face's covers by face, so the constructor passes over them once and
    finds every cover raising rank by one; covers repeated in the file
    still count once."""
    assert main(["build", "((I*pt)x(I^x3))*(pt^*2)"]) == 0
    data = json.loads(capsys.readouterr().out)
    passes = []
    lower = poset._lower

    def counting(*args):
        passes.append(args)
        return lower(*args)

    monkeypatch.setattr(poset, "_lower", counting)
    P = poset.from_json(data)
    assert P._rank_steps and len(passes) == 1
    assert pp.verify_polytope(P).is_polytope
    data["covers"] += data["covers"][::7]
    assert poset.from_json(data).upper == P.upper


class _Name(str):
    pass


class _Number(int):
    pass


def test_from_json_takes_ids_that_subclass_str_or_int(seg):
    """Ids whose type is not exactly str, int or float fail the fast type
    test; the per-item test then decides, and takes subclasses of str and
    int as ids, in elements and in covers, while a cover ending in a bool
    is still rejected."""
    ids = {"0": _Name("0"), "a": _Number(7), "b": "b", "1": _Name("1")}
    data = poset.to_json(seg)
    elements = [{"id": ids[e["id"]], "rank": e["rank"]} for e in data["elements"]]
    covers = [(ids[a], ids[b]) for a, b in data["covers"]]
    P = poset.from_json({"elements": elements, "covers": covers})
    assert P.labels == tuple(ids.values()) and P.upper == seg.upper
    covers[0] = [True, ids["a"]]
    with pytest.raises(ParseError, match="^covers must be pairs of element ids$"):
        poset.from_json({"elements": elements, "covers": covers})


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
def test_reachability_tables_match_naive_search(poset_data):
    """The constructor raises NotGraded exactly when the covers close a cycle
    (self-covers included), with or without ``check``. Otherwise ``above``
    and ``below`` are the naive closures over ``P.covers``. The covers go
    through ``from_components`` to the constructor as drawn, repeats
    included."""
    elements, label_covers = poset_data
    index = {eid: i for i, (eid, _) in enumerate(elements)}
    covers = [(index[a], index[b]) for a, b in label_covers]
    cyclic = any(a in _naive_reach(covers, b) for a, b in covers)
    if cyclic:
        for check in (False, True):
            with pytest.raises(NotGraded, match="^cover relation contains a cycle$"):
                pp.from_components(elements, label_covers, check=check)
        return
    P = pp.from_components(elements, label_covers, check=False)
    ups = list(P.covers)
    downs = [(b, a) for a, b in ups]
    for i, eid in enumerate(P.labels):
        assert {P.labels[j] for j in poset._bits(P.above[i])} == _naive_reach(ups, eid)
        assert {P.labels[j] for j in poset._bits(P.below[i])} == _naive_reach(downs, eid)


def test_repeated_covers_count_once_and_self_covers_are_cycles():
    I = pp.edge()
    P = poset.PolytopePoset(I.labels, I.ranks, [[1, 1, 2], [3], [3, 3], []])
    assert (P.upper, P.lower) == (I.upper, I.lower)
    assert (P.above, P.below) == (I.above, I.below)
    assert pp.aut_order(P) == 2
    assert poset._to_json_text(P) == poset._to_json_text(I)
    for check in (False, True):
        with pytest.raises(NotGraded, match="cycle"):
            poset.PolytopePoset(("0", "1"), (-1, 0), [[1], [1]], check=check)


@pytest.mark.parametrize(
    "ranks, upper, error, match",
    [
        ((-1, 0, 0, 1), [[1, 2], [3, -1], [3], []], DanglingCover,
         "^element 'a' is covered by -1, not a face$"),
        ((-1, 0, 0, 1), [[1, 2], [3, 7], [3], []], DanglingCover,
         "^element 'a' is covered by 7, not a face$"),
        ((-1, 0, 0, 1), [[1, 2], [3], [3]], ValueError, "^3 cover lists for 4 elements$"),
        ((-1, 0, 0), [[1, 2], [3], [3], []], ValueError, "^3 ranks for 4 elements$"),
        ((-1, 0, 0, 1, 2), [[1, 2], [3], [3], []], ValueError, "^5 ranks for 4 elements$"),
    ],
    ids=["negative", "past-the-end", "one-list-short", "one-rank-short", "one-rank-over"],
)
def test_cover_lists_must_name_faces(ranks, upper, error, match):
    """An entry outside the faces 0..n-1 is DanglingCover, naming its face
    and the entry, and cover lists or ranks not one per face are ValueError,
    with or without ``check``."""
    for check in (False, True):
        with pytest.raises(error, match=match):
            poset.PolytopePoset(("0", "a", "b", "1"), ranks, upper, check=check)


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["build", "pt^*9"], 0),
        (["aut", "I^x4", "--method", "generators"], 0),
        (["aut", "I^x4", "--method", "brute"], 0),
        (["verify", "pt^*9"], 1),
    ],
    ids=["build", "aut-generators", "aut-brute", "verify"],
)
def test_reachability_tables_built_only_where_read(table_holders, capsys, argv, builds):
    """Products, builds and both searching methods of ``aut`` read no
    reachability table; the verifier builds ``below`` of the poset it
    checks, and on a polytope not ``above``, which only its exact checks
    read."""
    assert main(argv) == 0
    assert len(table_holders("below")) == builds
    assert table_holders("above") == []


def test_aut_order_builds_no_reachability_table(table_holders):
    """The searches of aut_order read tables built from the cover lists
    alone: only P holds the search tables, and no poset ``above`` or
    ``below``."""
    P = pp.eval_expr(pp.parse_expr("(I*pt)xI"))
    assert pp.aut_order(P) == 12
    assert table_holders("_search") == [P]
    assert table_holders("above") == table_holders("below") == []


_KAHN = poset._topological_order


@pytest.fixture
def walks(monkeypatch):
    """The calls of ``poset._topological_order``, Kahn's walk, from here on."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _KAHN(*args)

    monkeypatch.setattr(poset, "_topological_order", counting)
    return calls


def test_reachability_tables_fold_the_constructors_order(walks, monkeypatch):
    """The constructor's order is kept for the tables: building them folds
    that order, forwards for ``below``, which ``verify_polytope`` reads,
    and backwards for ``above``, and walks no other. Every cover of a
    polytope raises rank by one, so its order is its faces by rank and no
    Kahn walk runs at all."""
    folds = []
    fold = poset._fold

    def recording(order, covers):
        order = list(order)
        folds.append(order)
        return fold(order, covers)

    monkeypatch.setattr(poset, "_fold", recording)
    P = pp.eval_expr(pp.parse_expr("pt^*9"))
    assert P._order == sorted(range(len(P)), key=P.ranks.__getitem__)
    assert pp.verify_polytope(P).is_polytope
    assert folds == [P._order]
    assert P.above
    assert folds == [P._order, P._order[::-1]]
    assert walks == []


_EDGE_TOP_FIRST = [("1", 1), ("a", 0), ("b", 0), ("0", -1)]
_CHAIN = [("0", -1), ("a", 0), ("b", 1), ("1", 2)]


@pytest.mark.parametrize(
    "elements, covers, kahn",
    [
        # listed top first, and the bottom's covers out of order
        (_EDGE_TOP_FIRST, [("0", "b"), ("0", "a"), ("a", "1"), ("b", "1")], False),
        (_CHAIN, [("0", "a"), ("a", "b"), ("b", "1")], False),
        # the cover ("0", "b") skips rank 0
        (_CHAIN, [("b", "1"), ("a", "b"), ("0", "a"), ("0", "b")], True),
        (_CHAIN[::-1], [("0", "1"), ("a", "b"), ("b", "1")], True),
    ],
    ids=["edge-by-rank", "chain-by-rank", "skip-kahn", "reversed-skip-kahn"],
)
def test_constructor_orders_by_rank_unless_a_cover_skips_one(walks, elements, covers, kahn):
    """When every cover raises rank by one, the faces in rank order are the
    constructor's order and no Kahn walk runs; otherwise the order is one
    Kahn walk's. Either way ``above``/``below`` are the naive reach and the
    violations are the reference's."""
    P = pp.from_components(elements, covers, check=False)
    if kahn:
        assert len(walks) == 1
        assert P._order == _KAHN(P.upper, P.lower)
    else:
        assert walks == []
        assert P._order == sorted(range(len(P)), key=P.ranks.__getitem__)
    ups = list(P.covers)
    downs = [(b, a) for a, b in ups]
    for i, eid in enumerate(P.labels):
        assert {P.labels[j] for j in poset._bits(P.above[i])} == _naive_reach(ups, eid)
        assert {P.labels[j] for j in poset._bits(P.below[i])} == _naive_reach(downs, eid)
    assert [(type(v), str(v)) for v in P.violations()] == _reference_violations(P)
    assert len(walks) == kahn  # the tables walked no second order


@pytest.mark.parametrize("covers", [[("0", "a"), ("a", "0")], [("0", "a"), ("a", "a")]])
def test_cover_cycles_are_not_graded(walks, covers):
    """A cycle never raises rank by one at every cover, so it reaches the
    Kahn walk, which rejects it, with or without ``check``."""
    for check in (False, True):
        with pytest.raises(NotGraded, match="^cover relation contains a cycle$"):
            pp.from_components([("0", -1), ("a", 0)], covers, check=check)
    assert len(walks) == 2


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
    P = pp.from_components(elements, label_covers, check=False)
    assert [(type(v), str(v)) for v in P.violations()] == _reference_violations(P)


@pytest.mark.parametrize(
    "upper",
    [
        [[1, 2], [3], [3], []],  # the edge
        [[3], [3], [3], []],  # a and b have no lower cover
        [[1, 2, 3], [], [], []],  # a and b have no upper cover
        [[2, 3], [0, 3], [3], []],  # the bottom has a lower cover
        [[1, 2], [3], [], [2]],  # the top has an upper cover
    ],
    ids=["bounded", "two-minimal", "two-maximal", "under-bottom", "over-top"],
)
def test_boundedness_read_from_cover_lists(upper):
    """Each clause of the boundedness test alone decides it, on four faces
    ranked as the edge's. The last two posets each have one face without a
    lower cover and one without an upper cover, yet the bottom has a lower
    cover or the top an upper cover, so they are not bounded."""
    P = poset.PolytopePoset(("0", "a", "b", "1"), (-1, 0, 0, 1), upper, check=False)
    violations = [(type(v), str(v)) for v in P.violations()]
    assert violations == _reference_violations(P)
    between = (NotBounded, "not every element lies between bottom and top")
    assert (between in violations) == (upper != [[1, 2], [3], [3], []])


def test_verify_then_aut_order_builds_cover_masks_once(table_holders, monkeypatch):
    """The verifier reads no cover masks; every search of aut_order reads
    the one pair kept on P, built by the first."""
    builds = []
    masks = poset.PolytopePoset._masks.func

    def counting(P):
        builds.append(P)
        return masks(P)

    monkeypatch.setattr(poset.PolytopePoset._masks, "func", counting)
    P = pp.eval_expr(pp.parse_expr("((I*pt)x(I^x3))*(pt^*2)"))
    assert pp.verify_polytope(P).is_polytope
    assert table_holders("_masks") == [] and table_holders("_search") == []
    assert pp.aut_order(P) == 576
    assert table_holders("_masks") == [P] and builds == [P]


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
        # int and float ids, as from_json accepts them
        ([(0, -1), (2.5, 0), (-7, 0), (1e3, 1)], [(0, 2.5), (0, -7), (2.5, 1e3), (-7, 1e3)]),
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


def test_mixed_ids_written_numbers_first_and_read_back():
    """``from_json`` takes string and numeric ids in one poset, so every
    writer lists numbers before strings, and what it writes reads back."""
    P = pp.from_components(
        [(0, -1), ("a", 0), (2, 0), ("top", 1)],
        [(0, "a"), (0, 2), ("a", "top"), (2, "top")],
    )
    assert pp.verify_polytope(P).is_polytope
    data = poset.to_json(P)
    assert data["covers"] == [[0, 2], [0, "a"], [2, "top"], ["a", "top"]]
    back = poset.from_json(json.loads(json.dumps(data)))
    assert back.elements() == P.elements() and back.covers == P.covers
    assert poset._to_json_text(P) == _dumped(P)
    dot = poset.to_dot(P)
    assert '{ rank=same; "2"; "a"; }' in dot
    assert dot.index('"0" -> "2";') < dot.index('"0" -> "a";') < dot.index('"2" -> "top";')
