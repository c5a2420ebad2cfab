"""Acceptance suite: one test per criterion, each printing a pass line."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import polyprod as pp
from polyprod import expr, family, groups
from polyprod.autom import _check_automorphism, closure, described_generators
from polyprod.cli import main
from polyprod.groups import DirectProduct, Hyp, Sym
from polyprod.poset import from_components, order_isomorphisms

from conftest import asts, family_polytope
from oracles import compose, inverse


@pytest.fixture(scope="module")
def family_nodes():
    """All nodes through step 4, with brute-force orders computed once."""
    nodes = []
    for steps in range(5):
        nodes.extend(family.enumerate_family(steps))
    return [(node, pp.aut_order(family_polytope(node))) for node in nodes]


EXPECTED_ORDERS = {
    ("xI",): 8,  # square
    ("*pt",): 6,  # triangle
    ("xI", "xI"): 48,  # 3-cube
    ("*pt", "*pt"): 24,  # tetrahedron
    ("*pt", "xI"): 12,  # triangular prism
    ("xI", "*pt"): 8,  # square pyramid
    ("xI", "xI", "xI"): 384,  # 4-cube
    ("*pt", "*pt", "*pt"): 120,  # 4-simplex
}


def test_criterion_1_formula_vs_brute_force(family_nodes):
    for node, brute in family_nodes:
        formula = groups.order(family.aut_descriptor(node))
        assert formula == brute, node.path
        if node.path in EXPECTED_ORDERS:
            assert brute == EXPECTED_ORDERS[node.path], node.path
    print("\nACCEPTANCE 1: PASS (formula = brute force on all 31 nodes through step 4)")


def test_criterion_2_worked_example(capsys):
    node = pp.expr_to_family(pp.parse_expr("((I*pt)x(I^x3))*(pt^*2)"))
    d = family.aut_descriptor(node)
    assert groups.normalize(d) == groups.normalize(DirectProduct((Sym(3), Hyp(3), Sym(2))))
    assert groups.order(d) == 576
    times_child, join_child = family.children(node)
    assert groups.order(family.aut_descriptor(times_child)) == 1152
    dj = family.aut_descriptor(join_child)
    assert groups.normalize(dj) == groups.normalize(DirectProduct((Sym(3), Hyp(3), Sym(3))))
    assert groups.order(dj) == 1728
    # the CLI front end agrees
    assert main(["aut", "((I*pt)x(I^x3))*(pt^*2)", "--method", "formula"]) == 0
    out = capsys.readouterr().out
    assert "order: 576" in out
    assert groups.render(groups.normalize(d)) in out
    print("ACCEPTANCE 2: PASS (worked example: 576 / 1152 / 1728)")


def test_criterion_2_slow_brute_force_worked_example():
    P = pp.eval_expr(
        pp.parse_expr("((I*pt)x(I^x3))*(pt^*2)"), max_elements=1000
    )
    assert len(P) == 760
    assert pp.aut_order(P) == 576


def test_criterion_3_prism_pyramid_exclusivity(family_nodes):
    checked = 0
    for node, _ in family_nodes:
        if len(node.path) < 1:
            continue
        P = family_polytope(node)
        if node.prod == "cartesian":
            assert pp.pyramid_decompose(P) is None, node.path
            Q = pp.prism_decompose(P)
            assert Q is not None, node.path
            assert pp.is_isomorphic(pp.cartesian(Q, pp.edge()), P) is not None
        else:
            assert pp.prism_decompose(P) is None, node.path
            Q = pp.pyramid_decompose(P)
            assert Q is not None, node.path
            assert pp.is_isomorphic(pp.join(Q, pp.point()), P) is not None
        checked += 1
    assert checked == 30
    print("ACCEPTANCE 3: PASS (prism/pyramid exclusivity + round trips on 30 nodes)")


def test_criterion_4_generating_sets(family_nodes):
    for node, brute in family_nodes:
        P = family_polytope(node)
        gens = described_generators(P, node)
        for g in gens:
            _check_automorphism(P, g)
        assert closure(gens, P) == brute, node.path
    print("ACCEPTANCE 4: PASS (generator closures match brute force on all 31 nodes)")


def test_criterion_5_axiom_verifier(family_nodes, small_corpus):
    basics = [small_corpus[k] for k in ("pt", "I", "triangle", "square")]
    for P in basics:
        for Q in basics:
            assert pp.verify_polytope(pp.join(P, Q)).is_polytope
            assert pp.verify_polytope(pp.cartesian(P, Q)).is_polytope
    for node, _ in family_nodes:
        assert pp.verify_polytope(family_polytope(node)).is_polytope, node.path
    square = small_corpus["square"]
    cube = pp.power(pp.edge(), "cartesian", 3)
    for P in (square, cube):
        for cover in sorted(P.covers):
            covers = set(P.covers)
            covers.remove(cover)
            mutated = from_components(P.elements(), covers, check=False)
            assert not pp.verify_polytope(mutated).is_polytope, cover
    print("ACCEPTANCE 5: PASS (verifier on 32 products, 31 nodes, 78 mutations)")


def test_criterion_6_count_formulas(small_corpus):
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
    print("ACCEPTANCE 6: PASS (count and rank formulas on 20 random pairs)")


# criterion 7: property suites, >= 100 cases each

_AUT_CACHE = {}


def _aut_corpus():
    if not _AUT_CACHE:
        for name, P in {
            "pt": pp.point(),
            "I": pp.edge(),
            "triangle": pp.join(pp.edge(), pp.point()),
            "square": pp.cartesian(pp.edge(), pp.edge()),
        }.items():
            _AUT_CACHE[name] = sorted(order_isomorphisms(P, P))
    return _AUT_CACHE


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_criterion_7a_automorphism_group_axioms(data):
    perms = _aut_corpus()[data.draw(st.sampled_from(sorted(_aut_corpus())))]
    table = set(perms)
    g = data.draw(st.sampled_from(perms))
    h = data.draw(st.sampled_from(perms))
    assert tuple(range(len(g))) in table
    assert compose(g, h) in table
    assert inverse(g) in table


_primitive = st.one_of(st.integers(1, 6).map(Sym), st.integers(1, 6).map(Hyp))
_descriptor = st.recursive(
    _primitive,
    lambda child: st.lists(child, max_size=4).map(lambda fs: DirectProduct(tuple(fs))),
    max_leaves=8,
)


@settings(max_examples=120, deadline=None)
@given(_descriptor)
def test_criterion_7b_normalization(d):
    once = groups.normalize(d)
    assert groups.normalize(once) == once
    assert groups.order(once) == groups.order(d)


@settings(max_examples=120, deadline=None)
@given(asts)
def test_criterion_7c_parser_round_trip(ast):
    assert pp.parse_expr(expr.render_expr(ast)) == ast


def test_criterion_7_report():
    print("ACCEPTANCE 7: PASS (property suites: group axioms, normalization, parser)")
