import random

import pytest

import polyprod as pp
from polyprod.errors import NonPositiveExponent, NotBounded
from polyprod.poset import order_isomorphisms
from polyprod.products import CARTESIAN, JOIN, _lift, _swap

from oracles import count_by_rank


def test_join_pt_pt_is_I(pt, seg):
    P = pp.join(pt, pt)
    assert len(P) == 4
    assert P.rank == 1
    assert pp.is_isomorphic(P, seg) is not None


def test_join_I_pt_is_triangle(triangle):
    assert len(triangle) == 8
    assert triangle.rank == 2
    counts = count_by_rank(triangle)
    assert counts == {-1: 1, 0: 3, 1: 3, 2: 1}


def test_join_triangle_pt_is_tetrahedron(triangle, pt, tetrahedron):
    T = pp.join(triangle, pt)
    assert len(T) == len(triangle) * len(pt) == 16
    assert T.rank == 3
    assert count_by_rank(T) == {-1: 1, 0: 4, 1: 6, 2: 4, 3: 1}
    assert pp.is_isomorphic(T, tetrahedron) is not None


def test_cartesian_I_I_is_square(square):
    assert len(square) == 10
    assert square.rank == 2
    assert count_by_rank(square) == {-1: 1, 0: 4, 1: 4, 2: 1}


def test_cartesian_triangle_I_is_prism(tri_prism):
    assert len(tri_prism) == 22
    assert tri_prism.rank == 3
    assert count_by_rank(tri_prism) == {-1: 1, 0: 6, 1: 9, 2: 5, 3: 1}


def test_cartesian_with_point_is_identity(pt, small_corpus):
    for P in small_corpus.values():
        left = pp.cartesian(pt, P)
        right = pp.cartesian(P, pt)
        assert len(left) == len(P) and len(right) == len(P)
        assert pp.is_isomorphic(left, P) is not None
        assert pp.is_isomorphic(right, P) is not None


def test_power_join_pt_3_is_triangle(pt, triangle):
    P = pp.power(pt, "join", 3)
    assert pp.is_isomorphic(P, triangle) is not None


def test_power_cartesian_I_3_is_cube(cube):
    assert len(cube) == 28
    assert count_by_rank(cube) == {-1: 1, 0: 8, 1: 12, 2: 6, 3: 1}


def test_power_one_is_same_object(seg):
    assert pp.power(seg, "cartesian", 1) is seg


def test_power_rejects_nonpositive(seg):
    with pytest.raises(NonPositiveExponent):
        pp.power(seg, "join", 0)


def test_product_layout_labels(small_corpus):
    """Join face (i, j) is i*|Q| + j; Cartesian face 0 is the shared bottom
    and (i, j) is 1 + pos(i)*(|Q| - 1) + pos(j), pos counting non-bottom
    faces; each face's label is "(p|q)" of its factors' labels. ``_lift(op,
    g, h)`` sends the face "(p|q)" to "(g p|h q)" and ``_swap`` sends it to
    "(q|p)", for automorphisms g and h of factors with the bottom at face 0."""
    factors = [small_corpus[k] for k in ("pt", "I", "triangle", "square")]
    for P in factors:
        for Q in factors:
            J = pp.join(P, Q)
            for i, p in enumerate(P.labels):
                for j, q in enumerate(Q.labels):
                    assert J.labels[i * len(Q) + j] == f"({p}|{q})"
                    assert J.ranks[i * len(Q) + j] == P.ranks[i] + Q.ranks[j] + 1
            C = pp.cartesian(P, Q)
            assert C.labels[0] == f"({P.bottom}|{Q.bottom})"
            proper_p = [i for i in range(len(P)) if i != P.bottom_face]
            proper_q = [j for j in range(len(Q)) if j != Q.bottom_face]
            for a, i in enumerate(proper_p):
                for b, j in enumerate(proper_q):
                    face = 1 + a * (len(Q) - 1) + b
                    assert C.labels[face] == f"({P.labels[i]}|{Q.labels[j]})"
                    assert C.ranks[face] == P.ranks[i] + Q.ranks[j]
            for op, R in ((JOIN, J), (CARTESIAN, C)):
                face = {label: f for f, label in enumerate(R.labels)}
                pairs = [
                    (p, q, face[f"({p}|{q})"])
                    for p in P.labels
                    for q in Q.labels
                    if f"({p}|{q})" in face
                ]
                assert len(pairs) == len(R)
                for g in sorted(order_isomorphisms(P, P)):
                    for h in sorted(order_isomorphisms(Q, Q)):
                        lifted = _lift(op, g, h)
                        gp = dict(zip(P.labels, (P.labels[i] for i in g)))
                        hq = dict(zip(Q.labels, (Q.labels[j] for j in h)))
                        for p, q, f in pairs:
                            assert lifted[f] == face[f"({gp[p]}|{hq[q]})"]
                if P is Q:
                    swapped = _swap(op, len(Q))
                    assert all(swapped[f] == face[f"({q}|{p})"] for p, q, f in pairs)


def test_edge_is_laid_out_as_pt_join_pt(pt, seg):
    """I's faces are numbered as those of pt * pt, so the vertex flip that
    ``autom.described_generators`` gives each first copy of I is
    ``_swap(JOIN, 2)``."""
    J = pp.join(pt, pt)
    assert seg.ranks == J.ranks and seg.upper == J.upper


def test_count_and_rank_formulas_random_pairs(small_corpus):
    rng = random.Random(20260823)
    names = sorted(small_corpus)
    for _ in range(20):
        P = small_corpus[rng.choice(names)]
        Q = small_corpus[rng.choice(names)]
        J = pp.join(P, Q)
        C = pp.cartesian(P, Q)
        assert len(J) == len(P) * len(Q)
        assert len(C) == (len(P) - 1) * (len(Q) - 1) + 1
        assert J.rank == P.rank + Q.rank + 1
        assert C.rank == P.rank + Q.rank


@pytest.mark.parametrize("op", ["join", "cartesian"])
def test_products_associative_commutative_up_to_iso(op, pt, seg, triangle):
    combine = pp.join if op == "join" else pp.cartesian
    items = [pt, seg, triangle]
    for P in items:
        for Q in items:
            assert pp.is_isomorphic(combine(P, Q), combine(Q, P)) is not None
    A, B, C = pt, seg, pt
    assert (
        pp.is_isomorphic(combine(combine(A, B), C), combine(A, combine(B, C)))
        is not None
    )


def test_products_of_polytopes_are_polytopes(small_corpus):
    small = [small_corpus[k] for k in ("pt", "I", "triangle", "square")]
    for P in small:
        for Q in small:
            assert pp.verify_polytope(pp.join(P, Q)).is_polytope
            assert pp.verify_polytope(pp.cartesian(P, Q)).is_polytope


def test_join_with_pt_has_apex(small_corpus):
    for name in ("I", "triangle", "square"):
        P = pp.join(small_corpus[name], pp.point())
        assert pp.pyramid_apex_candidates(P)



def test_product_and_power_reject_unknown_op(seg):
    with pytest.raises(ValueError, match="unknown product"):
        pp.product("meet", seg, seg)
    for k in (1, 2):
        with pytest.raises(ValueError, match="unknown product"):
            pp.power(seg, "meet", k)


@pytest.mark.parametrize(
    "build",
    [
        lambda P, Q: pp.cartesian(P, Q),
        lambda P, Q: pp.cartesian(Q, P),
        lambda P, Q: pp.product(CARTESIAN, Q, P),
        lambda P, Q: pp.power(P, CARTESIAN, 2),
        lambda P, Q: pp.join(P, Q),
    ],
    ids=["cartesian-left", "cartesian-right", "product", "power", "join"],
)
def test_product_rejects_a_factor_without_a_unique_bottom(seg, build):
    """A factor built unchecked with two minimal faces has no bottom face:
    a product with it, in either position, is NotBounded."""
    P = pp.PolytopePoset(("a", "b", "c"), (-1, -1, 0), [[2], [2], []], check=False)
    assert P.bottom_face is None
    with pytest.raises(NotBounded):
        build(P, seg)


def _edge(a, b, lo="lo"):
    """I with vertex ids a and b and bottom id lo."""
    return pp.from_components(
        [(lo, -1), (a, 0), (b, 0), ("hi", 1)], [(lo, a), (lo, b), (a, "hi"), (b, "hi")]
    )


@pytest.mark.parametrize("op", ["join", "cartesian"])
@pytest.mark.parametrize(
    "left, right, labels",
    [
        # "(a|b|c)" twice: ("a|b", "c") and ("a", "b|c")
        (("a", "a|b"), ("c", "b|c"), ["('a|b'|'c')", "('a'|'b|c')"]),
        # "(1|c)" twice: (1, "c") and ("1", "c")
        ((1, "1"), ("c", "d"), ["(1|'c')", "('1'|'c')"]),
    ],
)
def test_product_relabels_with_reprs_when_labels_collide(seg, op, left, right, labels):
    P = pp.product(op, _edge(*left), _edge(*right))
    assert set(labels) <= set(P.labels)
    assert pp.is_isomorphic(P, pp.product(op, seg, seg)) is not None


@pytest.mark.parametrize("op", ["join", "cartesian"])
@pytest.mark.parametrize(
    "ids",
    [
        (1, "1"),
        # the bottom and face ("a", "b|a|b") of E op E are both "(a|b|a|b)",
        # and E x E x E has no face over that bottom
        ("a", "b|a|b", "a|b"),
    ],
)
def test_power_relabels_each_product_as_stepwise_products(seg, op, ids):
    """Where the factor's labels make "(p|q)" repeat, ``power`` labels each
    product as the checked products one at a time do: with the reprs
    where that product needs them."""
    E = _edge(*ids)
    P = pp.power(E, op, 3)
    Q = pp.product(op, pp.product(op, E, E), E)
    assert (P.labels, P.ranks, P.upper) == (Q.labels, Q.ranks, Q.upper)
    assert any("'" in label for label in P.labels)
    assert pp.is_isomorphic(P, pp.power(seg, op, 3)) is not None
