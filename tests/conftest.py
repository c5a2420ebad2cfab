import pytest

from polyprod import cartesian, edge, join, point, power


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
