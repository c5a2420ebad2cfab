import pytest
from hypothesis import given, settings, strategies as st

import polyprod as pp
from polyprod import expr, family, groups, verify
from polyprod.autom import closure, described_generators
from polyprod.errors import BudgetExceeded, MixedOperatorsWithoutParens, ParseError
from polyprod.expr import Atom, Power, Product
from polyprod.products import CARTESIAN, JOIN

from conftest import asts, family_polytope, family_text


def test_parse_nested_expression():
    ast = pp.parse_expr("((I*pt)x(I^x3))*(pt^*2)")
    assert ast == Product(
        JOIN,
        Product(CARTESIAN, Product(JOIN, Atom("I"), Atom("pt")), Power(CARTESIAN, Atom("I"), 3)),
        Power(JOIN, Atom("pt"), 2),
    )


def test_parse_cart_power():
    assert pp.parse_expr("I^x3") == Power(CARTESIAN, Atom("I"), 3)


def test_parse_join_power():
    assert pp.parse_expr("pt^*4") == Power(JOIN, Atom("pt"), 4)


def test_parse_chain_same_operator():
    assert pp.parse_expr("pt * pt * pt") == Product(
        JOIN, Product(JOIN, Atom("pt"), Atom("pt")), Atom("pt")
    )


def test_mixed_operators_rejected():
    with pytest.raises(MixedOperatorsWithoutParens):
        pp.parse_expr("I*pt x pt")


def test_mixed_operators_fine_with_parens():
    ast = pp.parse_expr("(I*pt) x pt")
    assert ast == Product(CARTESIAN, Product(JOIN, Atom("I"), Atom("pt")), Atom("pt"))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        pp.parse_expr("I * &")
    assert err.value.position == 4


def test_parse_error_unbalanced():
    with pytest.raises(ParseError):
        pp.parse_expr("(I*pt")
    with pytest.raises(ParseError):
        pp.parse_expr("I)")


def test_parse_error_zero_exponent():
    with pytest.raises(ParseError):
        pp.parse_expr("I^x0")


def test_whitespace_ignored():
    assert pp.parse_expr("  I ^x 3 ") == Power(CARTESIAN, Atom("I"), 3)


def test_eval_tetrahedron():
    P = pp.eval_expr(pp.parse_expr("pt^*4"))
    assert len(P) == 16
    assert pp.is_isomorphic(P, pp.power(pp.point(), "join", 4)) is not None


def test_eval_square():
    P = pp.eval_expr(pp.parse_expr("I^x2"))
    assert len(P) == 10


def test_eval_point():
    P = pp.eval_expr(pp.parse_expr("pt"))
    assert len(P) == 2


def test_eval_budget():
    with pytest.raises(BudgetExceeded):
        pp.eval_expr(pp.parse_expr("I^x8"), max_elements=1000)


def test_expr_to_family_nested_expression():
    node = pp.expr_to_family(pp.parse_expr("((I*pt)x(I^x3))*(pt^*2)"))
    assert node is not None
    assert node.path == ("*pt", "xI", "xI", "xI", "*pt", "*pt")


def test_expr_to_family_rejects_pt_power():
    assert pp.expr_to_family(pp.parse_expr("pt^*3")) is None


def test_expr_to_family_rejects_compound_right_factor():
    assert pp.expr_to_family(pp.parse_expr("I x (I*pt)")) is None


def test_expr_to_family_simple():
    node = pp.expr_to_family(pp.parse_expr("I^x3"))
    assert node is not None and node.path == ("xI", "xI")
    node = pp.expr_to_family(pp.parse_expr("I"))
    assert node is not None and node.path == ()


@pytest.mark.parametrize(
    "text, path",
    [
        ("I x I^x2", ("xI", "xI")),
        ("I * pt^*2", ("*pt", "*pt")),
        ("(I*pt)^x1", ("*pt",)),
        ("I^x1 * pt", ("*pt",)),
        ("I^*2", None),
        ("(IxI)^x2", None),
        ("I*pt^x2", None),
    ],
)
def test_expr_to_family_cases(text, path):
    """A power k = 1 is its base; a right factor must be a run of the
    product's own atom (pt for *, I for x) under the product's own power."""
    node = pp.expr_to_family(pp.parse_expr(text))
    assert (None if node is None else node.path) == path


@pytest.mark.parametrize(
    "text, runs",
    [
        ("I^x3 x I", (("xI", 3),)),
        ("(I x I) x I^x2", (("xI", 3),)),
        ("(I*pt^*3) x I", (("*pt", 3), ("xI", 1))),
        ("I^x1", ()),
        ("pt*I", None),
    ],
)
def test_expr_to_family_runs(text, runs):
    """A power is one run, and neighbouring runs of one step merge."""
    node = pp.expr_to_family(pp.parse_expr(text))
    assert (None if node is None else node.runs) == runs


_RUN_TEXT = {"xI": " x I^x{}", "*pt": " * pt^*{}"}


def _spellings(node):
    """Three spellings of a family node: step by step, each run as one right
    power, and the root edge with a leading Cartesian run as one I^x k."""
    by_runs = "I"
    for step, count in node.runs:
        by_runs = f"({by_runs}){_RUN_TEXT[step].format(count)}"
    runs = node.runs
    lead = 1
    if runs and runs[0][0] == "xI":
        lead += runs[0][1]
        runs = runs[1:]
    leading = family_text(family.FamilyNode(runs), f"I^x{lead}")
    return family_text(node), by_runs, leading


def test_family_node_matches_eval():
    """Every spelling of a family node through step 5 evaluates to one
    layout, the one ``described_generators`` walks, so its generators
    close to the formula's group on the built poset."""
    nodes = [n for steps in range(6) for n in family.enumerate_family(steps)]
    assert len(nodes) == 63
    for node in nodes:
        layout = family_polytope(node)
        for text in _spellings(node):
            assert pp.expr_to_family(pp.parse_expr(text)).runs == node.runs, text
            P = pp.eval_expr(pp.parse_expr(text))
            assert (P.ranks, P.upper) == (layout.ranks, layout.upper), text
        # the generators act on the last spelling's poset
        formula = groups.order(family.aut_descriptor(node))
        assert closure(described_generators(P, node), P) == formula, node.path


@settings(max_examples=150, deadline=None)
@given(asts)
def test_parse_render_round_trip(ast):
    assert pp.parse_expr(expr.render_expr(ast)) == ast


@settings(max_examples=150, deadline=None, derandomize=True)
@given(asts)
def test_expr_size_matches_built_poset(ast):
    """eval_expr does not verify what it builds, since products of polytopes
    are polytopes; this is where that guarantee is checked. The verifier's
    one walk settles every check on the built poset, so no expression's
    polytope reaches the exact tests."""
    size = expr.expr_size(ast)
    if size > 400:
        return
    P = pp.eval_expr(ast)
    assert len(P) == size
    assert verify._certify(P) == (True, [0] * len(P))
    assert pp.verify_polytope(P).is_polytope


def _stepwise(e):
    """The poset of an expression folded from the public ``product`` and
    ``power``, one checked poset per product."""
    if isinstance(e, Atom):
        return pp.point() if e.name == "pt" else pp.edge()
    if isinstance(e, Product):
        return pp.product(e.op, _stepwise(e.left), _stepwise(e.right))
    return pp.power(_stepwise(e.base), e.op, e.k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(asts)
def test_one_poset_per_expression_equals_stepwise_products(ast):
    """eval_expr builds the products below the root as tables and checks
    only the root; the poset equals the one built a checked product at a
    time, table by table."""
    if expr.expr_size(ast) > 400:
        return
    P, Q = pp.eval_expr(ast), _stepwise(ast)
    for table in ("labels", "ranks", "upper", "lower", "bottom_face", "top_face", "above", "below"):
        assert getattr(P, table) == getattr(Q, table), table


@settings(max_examples=150, deadline=None, derandomize=True)
@given(asts, st.integers(2, 10**6))
def test_clamped_size_is_the_size_or_the_limit(ast, limit):
    """The size eval_expr checks against its cap is exact below the limit,
    and the limit itself from there on."""
    assert expr._size(ast, limit) == min(expr.expr_size(ast), limit)


def test_nesting_limit_counts_parentheses_and_operators():
    assert pp.parse_expr("(" * expr.MAX_DEPTH + "I" + ")" * expr.MAX_DEPTH) == Atom("I")
    with pytest.raises(ParseError, match="nests deeper"):
        pp.parse_expr("(" * (expr.MAX_DEPTH + 1) + "I" + ")" * (expr.MAX_DEPTH + 1))
    # each power and each operator of a chain is one level
    text = "pt"
    for _ in range(expr.MAX_DEPTH):
        text = f"({text})^x1"
    assert expr.expr_size(pp.parse_expr(text)) == 2
    with pytest.raises(ParseError, match="nests deeper"):
        pp.parse_expr(f"{text} x pt")
