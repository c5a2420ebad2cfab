import pytest

import polyprod as pp
from polyprod import family, poset, products, structure
from polyprod.errors import NotBounded, PolytopeError
from polyprod.poset import from_components

from conftest import family_polytope


def test_triangle_apex_candidates(triangle):
    assert sorted(pp.pyramid_apex_candidates(triangle)) == triangle.faces_of_rank(0)


def test_square_has_no_apex_candidates(square):
    assert pp.pyramid_apex_candidates(square) == []


def test_square_pyramid_apex_listed(square_pyramid, square, pt):
    # the apex is the pair (bottom of the square, top of pt), which the join
    # layout puts at face bottom * |pt| + top
    apex = square.bottom_face * len(pt) + pt.top_face
    assert square_pyramid.labels[apex] == f"({square.bottom}|{pt.top})"
    assert apex in pp.pyramid_apex_candidates(square_pyramid)


def test_pyramid_decompose_triangle(triangle, seg):
    Q = pp.pyramid_decompose(triangle)
    assert Q is not None
    assert pp.is_isomorphic(Q, seg) is not None


def test_pyramid_decompose_square_absent(square):
    assert pp.pyramid_decompose(square) is None


def test_pyramid_decompose_edge(seg, pt):
    Q = pp.pyramid_decompose(seg)
    assert Q is not None
    assert pp.is_isomorphic(Q, pt) is not None


def test_prism_decompose_square(square, seg):
    Q = pp.prism_decompose(square)
    assert Q is not None
    assert pp.is_isomorphic(Q, seg) is not None


def test_prism_decompose_triangle_absent(triangle):
    assert pp.prism_decompose(triangle) is None


def test_prism_decompose_tri_prism(tri_prism, triangle):
    Q = pp.prism_decompose(tri_prism)
    assert Q is not None
    assert pp.is_isomorphic(Q, triangle) is not None


def test_point_decomposes_as_neither(pt):
    assert pp.pyramid_decompose(pt) is None
    assert pp.prism_decompose(pt) is None


def test_family_exclusivity_through_step_3():
    for steps in range(1, 4):
        for node in family.enumerate_family(steps):
            P = family_polytope(node)
            if node.prod == "cartesian":
                assert pp.pyramid_decompose(P) is None, node.path
            else:
                assert pp.prism_decompose(P) is None, node.path


def test_decompose_round_trips():
    for steps in range(1, 4):
        for node in family.enumerate_family(steps):
            P = family_polytope(node)
            if node.prod == "cartesian":
                Q = pp.prism_decompose(P)
                assert Q is not None, node.path
                assert pp.is_isomorphic(pp.cartesian(Q, pp.edge()), P) is not None
            else:
                Q = pp.pyramid_decompose(P)
                assert Q is not None, node.path
                assert pp.is_isomorphic(pp.join(Q, pp.point()), P) is not None


def test_decompose_builds_only_products_of_the_right_size(monkeypatch):
    """Neither oracle builds a candidate product whose face count differs
    from |P|, nor a base Q other than of the one size whose product has |P|
    faces, on every family node of steps 1-4. Every base is an induced
    subposet, whether built directly or as a section."""
    sizes, bases = [], []

    def recording(build, built):
        def wrapper(*args):
            out = build(*args)
            built.append(len(out))
            return out

        return wrapper

    monkeypatch.setattr(products, "join", recording(products.join, sizes))
    monkeypatch.setattr(products, "cartesian", recording(products.cartesian, sizes))
    induced = recording(poset._induced, bases)
    monkeypatch.setattr(poset, "_induced", induced)
    monkeypatch.setattr(structure, "_induced", induced)
    built = 0
    for steps in range(1, 5):
        for node in family.enumerate_family(steps):
            P = family_polytope(node)
            # Q * pt has 2|Q| faces, Q x I has 3|Q| - 2
            for oracle, base in (
                (pp.pyramid_decompose, len(P) / 2),
                (pp.prism_decompose, (len(P) + 2) / 3),
            ):
                sizes.clear()
                bases.clear()
                oracle(P)
                assert set(sizes) <= {len(P)}, (node.path, oracle.__name__, sizes)
                assert set(bases) <= {base}, (node.path, oracle.__name__, bases)
                built += len(bases)
    assert built


def test_pyramid_implies_apex_candidates(small_corpus):
    for P in small_corpus.values():
        if P.rank >= 1 and pp.pyramid_decompose(P) is not None:
            assert pp.pyramid_apex_candidates(P)


def test_pyramid_decompose_skips_a_rejected_base(monkeypatch):
    """The square abcd with two more edges between b and d, 12 faces: b and
    d are its apex candidates, and the faces not above either are the
    square without that vertex, 6 faces, the size of the base of a 12-face
    pyramid. There two edges are maximal, so the constructor rejects both
    bases, and both are skipped."""
    edges = {"ab": "ab", "bc": "bc", "cd": "cd", "da": "da", "bd": "bd", "db": "bd"}
    elements = [("0", -1)] + [(v, 0) for v in "abcd"] + [(e, 1) for e in edges]
    covers = [("0", v) for v in "abcd"] + [(e, "1") for e in edges]
    covers += [(v, e) for e, ends in edges.items() for v in ends]
    P = from_components(elements + [("1", 2)], covers)
    assert [P.labels[v] for v in pp.pyramid_apex_candidates(P)] == ["b", "d"]
    rejected = []
    induced = structure._induced

    def recording(*args):
        try:
            return induced(*args)
        except PolytopeError as exc:
            rejected.append(type(exc))
            raise

    monkeypatch.setattr(structure, "_induced", recording)
    assert pp.pyramid_decompose(P) is None
    assert rejected == [NotBounded, NotBounded]


def test_pyramid_decompose_propagates_other_errors(monkeypatch):
    """Only the constructor's rejection skips a base: any other error of the
    base builder propagates. Every vertex of the triangle is an apex
    candidate whose base has the size the pyramid wants."""
    def broken(*args, **kwargs):
        raise RuntimeError("not a structural error")

    monkeypatch.setattr(structure, "_induced", broken)
    with pytest.raises(RuntimeError):
        pp.pyramid_decompose(pp.eval_expr(pp.parse_expr("pt^*3")))


def test_decompose_of_unbounded_posets_is_none(square):
    """Posets no product of polytopes is isomorphic to: both oracles answer
    None. prism_decompose used to raise on each (TypeError on a section from
    face None, NotComparable on a facet off the bottom, NotGraded on a facet
    section with a cover that skips a rank), and pyramid_decompose raised
    KeyError on the skipping cover from the bottom to an edge."""
    no_bottom = from_components(
        [(e, r) for e, r in square.elements() if r >= 0],
        [(a, b) for a, b in square.covers if a != square.bottom],
        check=False,
    )
    assert no_bottom.bottom_face is None
    elements = [("0", -1), ("v", 0), ("w", 0), ("e", 1), ("x", 1), ("1", 2)]
    covers = [("0", "v"), ("0", "w"), ("v", "e"), ("w", "e"), ("e", "1"), ("x", "1")]
    facet_off_bottom = from_components(elements, covers, check=False)
    skip_in_facet = from_components(elements, covers + [("0", "e")], check=False)
    for P in (no_bottom, facet_off_bottom, skip_in_facet):
        assert pp.pyramid_decompose(P) is None
        assert pp.prism_decompose(P) is None


@pytest.mark.parametrize(
    "text, oracle",
    [
        ("I^x3", structure.prism_decompose),
        ("(I*pt)xI", structure.prism_decompose),
        ("(IxI)*pt", structure.pyramid_decompose),
        ("pt^*5", structure.pyramid_decompose),
        ("((I*pt)x(I^x3))*(pt^*2)", structure.pyramid_decompose),
    ],
)
def test_decompose_builds_no_candidate_cover_masks(table_holders, text, oracle):
    """Each rebuilt candidate is the first argument of its search, whose
    cover masks are never read; only P's are, built by the first
    ``is_isomorphic`` search, which has P as its second argument."""
    P = pp.eval_expr(pp.parse_expr(text))
    assert table_holders("_masks") == []
    assert oracle(P) is not None
    assert table_holders("_masks") == [P]
