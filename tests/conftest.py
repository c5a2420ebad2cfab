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
def mask_builds(monkeypatch):
    """The posets whose cover masks get built, in order: a call of the mask
    builder ``_cover_masks``, from the verifier or a search, is a build
    unless it returns the masks the poset already held."""
    from polyprod import poset, verify

    builds = []
    cover_masks = poset._cover_masks

    def counting(P):
        held = getattr(P, "_masks", None)
        masks = cover_masks(P)
        if held is None or masks is not held:
            builds.append(P)
        return masks

    for module in (poset, verify):
        monkeypatch.setattr(module, "_cover_masks", counting)
    return builds


@pytest.fixture
def closure_builds(monkeypatch):
    """The posets whose reachability tables (``above``/``below``) get built,
    in order: the tables are built on their first read, by one call of
    ``poset._closures``."""
    from polyprod import poset

    builds = []
    closures = poset._closures

    def counting(P):
        builds.append(P)
        return closures(P)

    monkeypatch.setattr(poset, "_closures", counting)
    return builds


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
