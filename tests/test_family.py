import itertools
import json

import pytest

import polyprod as pp
from polyprod import family, groups
from polyprod.groups import DirectProduct, Hyp, Sym
from polyprod.poset import PolytopePoset

from conftest import family_polytope


def test_root_state():
    r = family.root()
    assert r.k == 1
    assert r.prod == "cartesian"
    assert groups.normalize(r.A) == DirectProduct(())
    assert r.path == ()
    assert pp.is_isomorphic(family_polytope(r), pp.edge()) is not None


def test_children_of_root(square, triangle):
    times_child, join_child = family.children(family.root())
    assert times_child.k == 2 and times_child.prod == "cartesian"
    assert groups.normalize(times_child.A) == DirectProduct(())
    assert pp.is_isomorphic(family_polytope(times_child), square) is not None
    # hard-coded base case for the triangle
    assert join_child.k == 3 and join_child.prod == "join"
    assert groups.normalize(join_child.A) == DirectProduct(())
    assert pp.is_isomorphic(family_polytope(join_child), triangle) is not None


def test_children_of_triangle(tri_prism, tetrahedron):
    node = family.node_for_path(["*pt"])
    times_child, join_child = family.children(node)
    assert times_child.A == Sym(3) and times_child.k == 1
    assert times_child.prod == "cartesian"
    assert pp.is_isomorphic(family_polytope(times_child), tri_prism) is not None
    assert groups.normalize(join_child.A) == DirectProduct(()) and join_child.k == 4
    assert join_child.prod == "join"
    assert pp.is_isomorphic(family_polytope(join_child), tetrahedron) is not None


def test_children_of_square(square_pyramid):
    node = family.node_for_path(["xI"])
    _, join_child = family.children(node)
    assert join_child.A == Hyp(2) and join_child.k == 1
    assert pp.is_isomorphic(family_polytope(join_child), square_pyramid) is not None


def test_aut_descriptor_examples():
    square_node = family.node_for_path(["xI"])
    assert family.aut_descriptor(square_node) == Hyp(2)
    tetra_node = family.node_for_path(["*pt", "*pt"])
    assert family.aut_descriptor(tetra_node) == Sym(4)
    big = family.node_for_path(["*pt", "xI", "xI", "xI", "*pt", "*pt"])
    d = family.aut_descriptor(big)
    assert groups.normalize(d) == groups.normalize(DirectProduct((Sym(3), Hyp(3), Sym(2))))
    assert groups.order(d) == 576


def test_enumerate_counts():
    assert [n.path for n in family.enumerate_family(0)] == [()]
    level1 = family.enumerate_family(1)
    assert [n.path for n in level1] == [("xI",), ("*pt",)]
    level2 = family.enumerate_family(2)
    assert [n.path for n in level2] == [
        ("xI", "xI"),
        ("xI", "*pt"),
        ("*pt", "xI"),
        ("*pt", "*pt"),
    ]
    assert len(family.enumerate_family(4)) == 16


def test_rank_matches_path_length():
    for steps in range(4):
        for node in family.enumerate_family(steps):
            P = family_polytope(node)
            assert P.rank == 1 + len(node.path)
            size = 4
            for step in node.path:
                size = (size - 1) * 3 + 1 if step == "xI" else size * 2
            assert len(P) == size


def test_k_equals_trailing_run():
    for steps in range(5):
        for node in family.enumerate_family(steps):
            if not node.path:
                assert node.k == 1
                continue
            last = node.path[-1]
            run = 0
            for step in reversed(node.path):
                if step != last:
                    break
                run += 1
            if run == len(node.path):
                # runs reaching the root absorb the root edge: one extra
                # Cartesian factor, or two extra pt joins since I = pt * pt
                assert node.k == run + (2 if last == "*pt" else 1)
            else:
                assert node.k == run


def _count_builds(monkeypatch) -> list:
    built = []
    init = PolytopePoset.__init__

    def counting(self, *args, **kwargs):
        built.append(len(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolytopePoset, "__init__", counting)
    return built


def test_polytopes_built_lazily(monkeypatch):
    """Listing nodes and reading their groups builds no poset."""
    built = _count_builds(monkeypatch)
    nodes = family.enumerate_family(6)
    assert len(nodes) == 64
    for n in nodes:
        assert groups.order(family.aut_descriptor(n)) >= 1
        family.node_to_json(n)
    assert built == []


def test_descriptors_deep_without_polytopes(monkeypatch):
    built = _count_builds(monkeypatch)
    node = family.node_for_path(["xI"] * 12)
    assert family.aut_descriptor(node) == Hyp(13)
    assert built == []


def test_node_json():
    node = family.node_for_path(["xI"])
    data = family.node_to_json(node)
    assert data["path"] == ["xI"]
    assert data["k"] == 2
    assert data["prod"] == "cartesian"
    assert data["order"] == 8
    assert data["A"] == {"kind": "prod", "factors": []}


def test_polytope_builds_each_atom_once(monkeypatch):
    """``eval_expr`` builds each atom once per call and the products below
    the root as tables, a power's included, so a family polytope costs one
    edge, one point and one poset for the expression."""
    built = _count_builds(monkeypatch)
    for text, sizes in (("(((I*pt)xI)xI)*pt", [4, 2, 128]), ("(I*pt)^x3", [4, 2, 344])):
        built.clear()
        P = pp.eval_expr(pp.parse_expr(text))
        assert built == sizes and len(P) == sizes[-1]


@pytest.mark.parametrize("steps, exact", [(1422, True), (1423, False)])
def test_node_json_order_exact_below_4300_digits(steps, exact):
    """Hyp(1423) has an order below 10^4300 and Hyp(1424) one above: the
    first is written as an int, the second as "at least 10^4300"."""
    node = family.node_for_path(["xI"] * steps)
    order = groups.order(family.aut_descriptor(node))
    data = json.loads(json.dumps(family.node_to_json(node)))
    assert data["order"] == (order if exact else "at least 10^4300")
    assert (len(str(order)) == 4300) if exact else order >= 10**4300


def test_unknown_step_is_rejected():
    """An unknown step is named when a node is made from a path or from runs,
    so no node holds one."""
    message = "unknown construction step 'bogus'"
    with pytest.raises(ValueError, match=message):
        family.node_for_path(["bogus"])
    with pytest.raises(ValueError, match=message):
        family.FamilyNode((("bogus", 1),))


@pytest.mark.parametrize("runs", [(("xI", 0),), (("xI", 1), ("xI", 2))])
def test_runs_must_be_maximal(runs):
    with pytest.raises(ValueError, match="runs need counts >= 1"):
        family.FamilyNode(runs)


def test_node_for_path_round_trips_through_step_7():
    paths = [p for n in range(8) for p in itertools.product(("xI", "*pt"), repeat=n)]
    assert len(paths) == 255
    for path in paths:
        assert family.node_for_path(path).path == path


def test_factors_take_in_the_root_edge():
    assert family.root().factors == (("cartesian", 1),)
    assert family.node_for_path(["xI", "xI"]).factors == (("cartesian", 3),)
    node = family.node_for_path(["*pt", "xI", "xI", "xI", "*pt", "*pt"])
    assert node.runs == (("*pt", 1), ("xI", 3), ("*pt", 2))
    assert node.factors == (("join", 3), ("cartesian", 3), ("join", 2))


def test_formula_matches_brute_force_through_step_3():
    for steps in range(4):
        for node in family.enumerate_family(steps):
            expected = groups.order(family.aut_descriptor(node))
            assert expected == pp.aut_order(family_polytope(node)), node.path
