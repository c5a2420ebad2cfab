import random

import pytest
from hypothesis import given, settings, strategies as st

import polyprod as pp
from polyprod import family, verify
from polyprod.errors import PolytopeError
from polyprod.expr import eval_expr, parse_expr
from polyprod.poset import from_components

from conftest import family_polytope
from oracles import naive_violations


def _without_cover(P, cover):
    covers = set(P.covers)
    covers.remove(cover)
    return from_components(P.elements(), covers, check=False)


def test_square_passes(square):
    report = pp.verify_polytope(square)
    assert report.bounded and report.graded
    assert report.diamond_ok and report.connected_ok
    assert report.is_polytope


def test_single_vertex_rank1_fails_diamond():
    P = from_components(
        [("0", -1), ("v", 0), ("1", 1)],
        [("0", "v"), ("v", "1")],
        check=False,
    )
    report = pp.verify_polytope(P)
    assert not report.diamond_ok
    assert ("0", "1", 1) in report.diamond_violations
    assert not report.is_polytope


def test_square_with_deleted_cover_fails(square):
    v = square.faces_of_rank(0)[0]
    e = square.upper[v][0]
    mutated = _without_cover(square, (square.labels[v], square.labels[e]))
    report = pp.verify_polytope(mutated)
    assert not report.is_polytope
    assert not report.diamond_ok


def test_every_single_cover_deletion_breaks_square(square):
    for cover in sorted(square.covers):
        assert not pp.verify_polytope(_without_cover(square, cover)).is_polytope


def test_every_single_cover_deletion_breaks_cube(cube):
    for cover in sorted(cube.covers):
        assert not pp.verify_polytope(_without_cover(cube, cover)).is_polytope


def test_family_members_pass(small_corpus):
    for P in small_corpus.values():
        assert pp.verify_polytope(P).is_polytope


def test_disconnected_section_detected():
    # two squares glued at bottom and top only: rank-2 middle is fine but the
    # full rank-3 body has no connecting faces; build a compound that breaks
    # connectivity: two disjoint edges between a common bottom and top.
    P = from_components(
        [("0", -1), ("v", 0), ("w", 0), ("x", 0), ("y", 0), ("e", 1), ("f", 1), ("1", 2)],
        [
            ("0", "v"), ("0", "w"), ("0", "x"), ("0", "y"),
            ("v", "e"), ("w", "e"), ("x", "f"), ("y", "f"),
            ("e", "1"), ("f", "1"),
        ],
        check=False,
    )
    report = pp.verify_polytope(P)
    assert not report.connected_ok
    assert ("0", "1") in report.connectivity_violations


def test_connectivity_checked_at_every_rank_gap():
    # ranks read from a file need not be consecutive: a section whose rank
    # gap exceeds the number of faces is still checked
    P = from_components(
        [("a", -1), ("c", 0), ("d", 0), ("b", 99)],
        [("a", "c"), ("a", "d"), ("c", "b"), ("d", "b")],
        check=False,
    )
    assert pp.verify_polytope(P).connectivity_violations == [("a", "b")]


def test_bounded_and_graded_verdicts(square):
    """verify_polytope reads these from the checker the constructor uses."""
    no_bottom = from_components(
        [(e, r) for e, r in square.elements() if r >= 0],
        [(a, b) for a, b in square.covers if a != square.bottom],
        check=False,
    )
    rank_jump = from_components([("0", -1), ("1", 1)], [("0", "1")], check=False)
    dangling_top = from_components(
        [("0", -1), ("v", 0), ("w", 0), ("1", 1)], [("0", "v"), ("0", "w"), ("v", "1")],
        check=False,
    )
    report = pp.verify_polytope(no_bottom)
    assert not report.bounded
    assert not report.graded  # the vertices have no lower cover
    report = pp.verify_polytope(rank_jump)
    assert report.bounded and not report.graded
    report = pp.verify_polytope(dangling_top)
    assert not report.bounded  # w is not below the top
    assert not report.graded  # and has no upper cover
    assert pp.verify_polytope(rank_jump).to_json()["failures"][0] == {"check": "graded"}


def test_report_json(square):
    data = pp.verify_polytope(square).to_json()
    assert data == {"is_polytope": True, "failures": []}


def test_report_json_failures():
    P = from_components(
        [("0", -1), ("v", 0), ("1", 1)],
        [("0", "v"), ("v", "1")],
        check=False,
    )
    data = pp.verify_polytope(P).to_json()
    assert data["is_polytope"] is False
    assert {"check": "diamond", "interval": ["0", "1"], "middle_count": 1} in data[
        "failures"
    ]


def _bottom_vertices_top(vertices):
    """One face of rank -1 under ``vertices``, all of them under one top of
    rank 1: an interval of rank difference 2 with that many middle faces."""
    elements = [("0", -1)] + [(v, 0) for v in vertices] + [("1", 1)]
    return elements, [("0", v) for v in vertices] + [(v, "1") for v in vertices]


def _square_with_second_bottom():
    """A square whose first two vertices also cover a second face of rank
    -1, so the intervals from it to the edges through only one of them have
    one middle face."""
    vertices = [f"v{i}" for i in range(4)]
    edges = {f"e{i}": (vertices[i], vertices[(i + 1) % 4]) for i in range(4)}
    elements = [("0", -1), ("0'", -1)] + [(v, 0) for v in vertices]
    elements += [(e, 1) for e in edges] + [("1", 2)]
    covers = [("0", v) for v in vertices] + [("0'", "v0"), ("0'", "v1")]
    covers += [(v, e) for e, ends in edges.items() for v in ends] + [(e, "1") for e in edges]
    return elements, covers


@pytest.mark.parametrize(
    "elements, covers",
    [
        _bottom_vertices_top("v"),
        _bottom_vertices_top("abc"),
        _bottom_vertices_top("abcd"),
        # y covers the bottom directly, two ranks up: (0, y) has no middle
        # face and no path bottom < H < y reaches it
        (
            [("0", -1), ("a", 0), ("b", 0), ("e", 1), ("y", 1)],
            [("0", "a"), ("0", "b"), ("a", "e"), ("b", "e"), ("0", "y")],
        ),
        _square_with_second_bottom(),
    ],
    ids=["one-middle", "three-middles", "four-middles", "rank-skip", "two-minimal"],
)
def test_tally_fails_on_each_broken_diamond(elements, covers):
    """Each poset has one defect that breaks the diamond condition, so the
    one walk's tally must not hold and the exact walk must report what the
    naive oracle finds. An interval with four middle faces reaches its
    bottom an even number of times; a cover that skips a rank makes an
    interval no path of two covers reaches."""
    P = from_components(elements, covers, check=False)
    diamonds_hold, _ = verify._certify(P)
    report = pp.verify_polytope(P)
    diamond, disconnected = naive_violations(P)
    assert not diamonds_hold and diamond
    assert report.diamond_violations == diamond
    assert report.connectivity_violations == disconnected


def test_violation_lists_are_capped():
    # 25 disjoint vertex-edge spikes give 25+ broken rank-2 intervals; the
    # report keeps at most 20 per category
    n = 25
    elements = (
        [("0", -1)]
        + [(f"v{i}", 0) for i in range(n)]
        + [(f"e{i}", 1) for i in range(n)]
        + [("1", 2)]
    )
    covers = (
        [("0", f"v{i}") for i in range(n)]
        + [(f"v{i}", f"e{i}") for i in range(n)]
        + [(f"e{i}", "1") for i in range(n)]
    )
    P = from_components(elements, covers, check=False)
    report = pp.verify_polytope(P)
    assert not report.diamond_ok
    assert len(report.diamond_violations) == 20


def test_verifier_matches_naive_oracle_on_cover_deletions(exact_tests):
    """On every family node through step 3, intact and with a seeded sample
    of 1 to 40 covers deleted, each with its elements listed as built and
    in a seeded shuffled order, the violation lists and verdicts equal
    those of the naive oracle (which also fixes their order and their cap).
    Shuffled, the faces are numbered in an order the products never lay
    out, and the one pass of ridge folds leaves some sections of the intact
    polytopes to the exact test, which passes them."""
    rng, shuffle = random.Random(4), random.Random(5)
    shuffled_intact = 0
    for node in (n for steps in range(4) for n in family.enumerate_family(steps)):
        Q = family_polytope(node)
        covers = sorted(Q.covers)
        elements = Q.elements()
        for k in (0, 1, 1, 2, 3, 10, 40):
            deleted = set(rng.sample(covers, min(k, len(covers))))
            for listed in (elements, shuffle.sample(elements, len(elements))):
                P = from_components(listed, set(covers) - deleted, check=False)
                before = len(exact_tests)
                report = pp.verify_polytope(P)
                diamond, disconnected = naive_violations(P)
                case = (node.path, k, listed is elements)
                assert report.diamond_violations == diamond, case
                assert report.connectivity_violations == disconnected, case
                assert report.diamond_ok == (not diamond)
                assert report.connected_ok == (not disconnected)
                if not k and listed is not elements:
                    assert report.is_polytope, case
                    shuffled_intact += len(exact_tests) - before
    assert shuffled_intact


@st.composite
def _ranked_posets(draw):
    """Up to 12 faces in three to six levels of 1-3 faces each, the lowest at
    rank -1 and each level one rank, sometimes two, above the one before
    (a rank jump). Covers mostly join consecutive levels; a few join a face
    to any later one, at the same rank or skipping ranks, and at most one
    joins any two faces, which may go down in rank or close a cycle."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=6))
    ranks, rk = [], -1
    for size in sizes:
        ranks += [rk] * min(size, 12 - len(ranks))
        rk += draw(st.sampled_from((1, 1, 1, 2)))
    n = len(ranks)
    forward = [(a, b) for b in range(n) for a in range(b)]
    steps = [
        (a, b)
        for a, b in forward
        if ranks[a] < ranks[b] and not any(ranks[a] < r < ranks[b] for r in ranks)
    ]
    covers = []
    for pool, most in ((steps, 2 * n), (forward, 2)):
        if pool:
            covers += draw(st.lists(st.sampled_from(pool), max_size=most))
    face = st.integers(0, n - 1)
    covers += draw(st.lists(st.tuples(face, face), max_size=1))
    elements = [(f"f{i}", rk) for i, rk in enumerate(ranks)]
    return elements, [(f"f{a}", f"f{b}") for a, b in covers]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ranked_posets())
def test_verifier_matches_naive_oracle_on_random_posets(poset_data):
    """On small random ranked posets, valid or not, both violation lists
    equal the naive oracle's, capped at 20; the posets the constructor
    rejects (cycles) are skipped."""
    try:
        P = from_components(*poset_data, check=False)
    except PolytopeError:
        return
    report = pp.verify_polytope(P)
    assert (report.diamond_violations, report.connectivity_violations) == (
        naive_violations(P)
    )


def test_two_squares_glued_at_bottom_and_top():
    """Two square face lattices sharing only their bottom and top satisfy the
    diamond condition everywhere; the one section of rank difference 3,
    (bottom, top), falls apart into two 8-cycles."""
    elements, covers = [("0", -1), ("1", 2)], []
    for s in "ab":
        vertices = [f"{s}v{i}" for i in range(4)]
        edges = [f"{s}e{i}" for i in range(4)]
        elements += [(v, 0) for v in vertices] + [(e, 1) for e in edges]
        for i, e in enumerate(edges):
            ends = (vertices[i], vertices[(i + 1) % 4])
            covers += [("0", vertices[i]), (ends[0], e), (ends[1], e), (e, "1")]
    P = from_components(elements, covers, check=False)
    report = pp.verify_polytope(P)
    assert report.bounded and report.graded and report.diamond_ok
    assert report.connectivity_violations == [("0", "1")]


def test_connectivity_needs_a_second_pass_over_the_coatoms():
    """A square whose edges are listed A, C, B, D, with C opposite A. In the
    section (bottom, top), C's down-set misses A's, so the first pass over
    the lower covers of the top folds in B and D but not C; C joins on the
    second pass. The square is a polytope."""
    edges = {"A": "pq", "C": "rs", "B": "qr", "D": "sp"}
    elements = [("0", -1)] + [(v, 0) for v in "pqrs"] + [(e, 1) for e in edges] + [("1", 2)]
    covers = [("0", v) for v in "pqrs"]
    covers += [(v, e) for e, ends in edges.items() for v in ends] + [(e, "1") for e in edges]
    P = from_components(elements, covers, check=False)
    report = pp.verify_polytope(P)
    assert report.diamond_ok and report.connectivity_violations == []
    assert report.is_polytope



_FAMILY_THROUGH_STEP_4 = [n.path for steps in range(5) for n in family.enumerate_family(steps)]


@pytest.mark.parametrize(
    "shape",
    [*_FAMILY_THROUGH_STEP_4, "pt^*9", "((I*pt)x(I^x3))*(pt^*2)"],
    ids=lambda shape: shape if isinstance(shape, str) else ",".join(shape) or "I",
)
def test_ridges_certify_every_section_of_a_polytope(shape, exact_tests):
    """In a polytope every interval of rank difference 2 is a diamond, so
    the one walk's tally holds; on the polytopes the products lay out, its
    one pass of ridge folds also joins the facets of every section, so it
    leaves no section open and the exact test never runs: on every family
    node through step 4, on pt^*9 and on the worked example."""
    if isinstance(shape, str):
        P = eval_expr(parse_expr(shape))
    else:
        P = family_polytope(family.node_for_path(shape))
    diamonds_hold, tops = verify._certify(P)
    assert diamonds_hold and not any(tops)
    assert pp.verify_polytope(P).is_polytope
    assert exact_tests == []


def test_section_connected_only_through_a_vertex_goes_to_the_exact_test(exact_tests):
    """A bowtie: two triangles H and K under one top G, sharing only the
    vertex v. The section (bottom, G) is connected, but only through v, which
    is no ridge, so the certificate leaves it to the exact test, which
    passes it. In the section (v, G) the edges of H and those of K never
    meet: it is disconnected and must be reported. Every other vertex lies
    under one triangle only, so these two are the only exact tests."""
    triangles = {"H": "vab", "K": "vcd"}
    elements = [("0", -1), ("G", 3)]
    covers = []
    for t, (p, q, r) in triangles.items():
        edges = {p + q: (p, q), q + r: (q, r), r + p: (r, p)}
        elements += [(t, 2)] + [(e, 1) for e in edges]
        covers += [(t, "G")] + [(e, t) for e in edges]
        covers += [(x, e) for e, ends in edges.items() for x in ends]
    elements += [(x, 0) for x in "vabcd"]
    covers += [("0", x) for x in "vabcd"]
    P = from_components(elements, covers, check=False)
    report = pp.verify_polytope(P)
    assert report.connectivity_violations == [("v", "G")]
    assert len(exact_tests) == 2
