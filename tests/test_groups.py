from hypothesis import given, settings, strategies as st

from polyprod import groups
from polyprod.groups import DirectProduct, Hyp, Sym


def test_order_sym():
    assert groups.order(Sym(4)) == 24


def test_order_hyp():
    assert groups.order(Hyp(3)) == 48
    assert groups.order(Hyp(1)) == 2


def test_order_product():
    d = DirectProduct((Sym(3), Hyp(3), Sym(2)))
    assert groups.order(d) == 6 * 48 * 2 == 576


def test_order_trivial():
    assert groups.order(DirectProduct(())) == 1


def test_normalize_drops_trivial_factor():
    assert groups.normalize(DirectProduct((Sym(1), Sym(2)))) == Sym(2)


def test_normalize_flattens_and_sorts():
    nested = DirectProduct((DirectProduct((Hyp(3),)), Sym(2)))
    assert groups.normalize(nested) == DirectProduct((Sym(2), Hyp(3)))


def test_equal_up_to_ordering():
    assert groups.normalize(DirectProduct((Sym(2), Hyp(3)))) == groups.normalize(
        DirectProduct((Hyp(3), Sym(2)))
    )


def test_trivial_factor_absorbed():
    assert groups.normalize(DirectProduct((DirectProduct(()), Hyp(2)))) == Hyp(2)


def test_render():
    assert groups.render(Hyp(2)) == "(Z/2Z)^2 ⋊ Sym(2)"
    assert groups.render(Hyp(1)) == "Z/2Z"
    assert groups.render(Sym(3)) == "Sym(3)"
    assert groups.render(DirectProduct(())) == "1"
    d = groups.normalize(DirectProduct((Sym(3), Hyp(3), Sym(2))))
    assert groups.render(d) == "Sym(2) × Sym(3) × ((Z/2Z)^3 ⋊ Sym(3))"


def test_to_json():
    d = groups.normalize(DirectProduct((Sym(3), Hyp(3), Sym(2))))
    assert groups.to_json(d) == {
        "kind": "prod",
        "factors": [
            {"kind": "sym", "k": 2},
            {"kind": "sym", "k": 3},
            {"kind": "hyp", "k": 3},
        ],
    }


_primitive = st.one_of(
    st.integers(1, 6).map(Sym),
    st.integers(1, 6).map(Hyp),
)
_descriptor = st.recursive(
    _primitive,
    lambda child: st.lists(child, max_size=4).map(
        lambda fs: DirectProduct(tuple(fs))
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_descriptor)
def test_normalize_idempotent(d):
    once = groups.normalize(d)
    assert groups.normalize(once) == once


@settings(max_examples=150, deadline=None)
@given(_descriptor)
def test_normalize_preserves_order(d):
    assert groups.order(groups.normalize(d)) == groups.order(d)


@settings(max_examples=150, deadline=None)
@given(_descriptor, _descriptor)
def test_product_order_multiplies(a, b):
    assert groups.order(DirectProduct((a, b))) == groups.order(a) * groups.order(b)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10))
def test_hyp_order_relation(k):
    assert groups.order(Hyp(k)) == (2**k) * groups.order(Sym(k))
