import random

import polyprod as pp
from polyprod import family
from polyprod.poset import from_components

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
    v = square.elements_of_rank(0)[0]
    e = square.upper_covers(v)[0]
    mutated = _without_cover(square, (v, e))
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


def test_verifier_matches_naive_oracle_on_cover_deletions():
    """On every family node through step 3, intact and with a seeded sample
    of 1 to 40 covers deleted, the violation lists and verdicts equal those
    of the naive oracle (which also fixes their order and their cap)."""
    rng = random.Random(4)
    for node in (n for steps in range(4) for n in family.enumerate_family(steps)):
        covers = sorted(node.polytope.covers)
        for k in (0, 1, 1, 2, 3, 10, 40):
            deleted = set(rng.sample(covers, min(k, len(covers))))
            P = from_components(node.polytope.elements(), set(covers) - deleted, check=False)
            report = pp.verify_polytope(P)
            diamond, disconnected = naive_violations(P)
            assert report.diamond_violations == diamond, (node.path, k)
            assert report.connectivity_violations == disconnected, (node.path, k)
            assert report.diamond_ok == (not diamond)
            assert report.connected_ok == (not disconnected)
