import functools

import pytest
from hypothesis import strategies as st

from polyprod import cartesian, edge, eval_expr, join, parse_expr, point, power
from polyprod.expr import Atom, Power, Product
from polyprod.family import FamilyNode
from polyprod.products import CARTESIAN, JOIN

# random expression trees of up to 6 atoms, for the parser round trips and
# the properties of built expressions; import it with ``from conftest import asts``
asts = st.recursive(
    st.sampled_from(["pt", "I"]).map(Atom),
    lambda child: st.one_of(
        st.tuples(child, child).map(lambda t: Product(JOIN, *t)),
        st.tuples(child, child).map(lambda t: Product(CARTESIAN, *t)),
        st.tuples(child, st.integers(1, 4)).map(lambda t: Power(JOIN, *t)),
        st.tuples(child, st.integers(1, 4)).map(lambda t: Power(CARTESIAN, *t)),
    ),
    max_leaves=6,
)

_STEP_TEXT = {"xI": " x I", "*pt": " * pt"}


def family_text(node: FamilyNode, text: str = "I") -> str:
    """The node spelt step by step: ``text`` (the root edge I), then
    ``(...) x I`` or ``(...) * pt`` for each step of its path."""
    for step in node.path:
        text = f"({text}){_STEP_TEXT[step]}"
    return text


def family_polytope(node: FamilyNode):
    """The node's polytope, built by ``eval_expr`` from ``family_text`` once
    per node in a session; import it with ``from conftest import
    family_polytope``."""
    return _family_polytope(node.runs)


@functools.cache
def _family_polytope(runs):
    return eval_expr(parse_expr(family_text(FamilyNode(runs))), max_elements=10**5)


@pytest.fixture(scope="session")
def pt():
    return point()


@pytest.fixture(scope="session")
def seg():
    return edge()


@pytest.fixture(scope="session")
def triangle():
    return join(edge(), point())


@pytest.fixture(scope="session")
def square():
    return cartesian(edge(), edge())


@pytest.fixture(scope="session")
def cube():
    return power(edge(), "cartesian", 3)


@pytest.fixture(scope="session")
def tetrahedron():
    return power(point(), "join", 4)


@pytest.fixture(scope="session")
def tri_prism(triangle):
    return cartesian(triangle, edge())


@pytest.fixture(scope="session")
def square_pyramid(square):
    return join(square, point())


@pytest.fixture(scope="session")
def small_corpus(pt, seg, triangle, square, tetrahedron, tri_prism, square_pyramid):
    return {
        "pt": pt,
        "I": seg,
        "triangle": triangle,
        "square": square,
        "tetrahedron": tetrahedron,
        "tri_prism": tri_prism,
        "square_pyramid": square_pyramid,
    }


@pytest.fixture
def table_holders(monkeypatch):
    """``table_holders(name)``: the posets constructed during the test that
    hold the derived table ``name`` (``"above"``, ``"below"``, ``"_masks"``
    or ``"_search"``), in order of construction. Each table is a cached
    property, kept in the poset's ``vars`` from its first read on, so a
    poset holds a table exactly when the table has been built for it."""
    from polyprod.poset import PolytopePoset

    posets = []
    init = PolytopePoset.__init__

    def recording(P, *args, **kwargs):
        init(P, *args, **kwargs)
        posets.append(P)

    monkeypatch.setattr(PolytopePoset, "__init__", recording)
    return lambda name: [P for P in posets if name in vars(P)]


@pytest.fixture
def exact_tests(monkeypatch):
    """How many times the verifier falls back to its exact connectivity
    test ``verify._connected``: one count per section it decides."""
    from polyprod import verify

    calls = []
    connected = verify._connected

    def counting(*args):
        calls.append(args)
        return connected(*args)

    monkeypatch.setattr(verify, "_connected", counting)
    return calls
