import pytest

import polyprod as pp
from polyprod import family, structure


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
            P = node.polytope
            if node.prod == "cartesian":
                assert pp.pyramid_decompose(P) is None, node.path
            else:
                assert pp.prism_decompose(P) is None, node.path


def test_decompose_round_trips():
    for steps in range(1, 4):
        for node in family.enumerate_family(steps):
            P = node.polytope
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
    from |P|, on every family node of steps 1-4."""
    sizes = []

    def recording(product):
        def build(*args):
            out = product(*args)
            sizes.append(len(out))
            return out

        return build

    monkeypatch.setattr(structure, "join", recording(structure.join))
    monkeypatch.setattr(structure, "cartesian", recording(structure.cartesian))
    for steps in range(1, 5):
        for node in family.enumerate_family(steps):
            P = node.polytope
            for oracle in (pp.pyramid_decompose, pp.prism_decompose):
                sizes.clear()
                oracle(P)
                assert set(sizes) <= {len(P)}, (node.path, oracle.__name__, sizes)


def test_pyramid_implies_apex_candidates(small_corpus):
    for P in small_corpus.values():
        if P.rank >= 1 and pp.pyramid_decompose(P) is not None:
            assert pp.pyramid_apex_candidates(P)


def test_subposet_avoiding_degenerate_is_none(square):
    # without one vertex of the square, two edges are left as maximal elements
    vertex = square.faces_of_rank(0)[0]
    assert structure._subposet_avoiding(square, vertex) is None


def test_subposet_avoiding_propagates_other_errors(square, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a structural error")

    monkeypatch.setattr(structure, "_induced", broken)
    with pytest.raises(RuntimeError):
        structure._subposet_avoiding(square, square.faces_of_rank(0)[0])
