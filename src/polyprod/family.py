"""The inductive family: starting from the edge, each polytope branches into
its Cartesian product with I and its join with pt, carrying the bookkeeping
state (A, k, prod) from which the automorphism group descriptor is read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import groups
from .groups import GroupDescriptor, Hyp, Sym
from .poset import PolytopePoset, edge, point
from .products import CARTESIAN, JOIN, cartesian, join

TIMES_STEP = "xI"
JOIN_STEP = "*pt"


@dataclass
class FamilyNode:
    """A family member plus algorithm state.

    `A` is the saved automorphism group of the last polytope built via the
    other product (trivial descriptor for "none yet"), `k` the length of the
    current run of same-product steps, `prod` the product used last, `path`
    the steps from the root edge. The polytope is built from `path` when it
    is first read, so listing nodes and reading their groups builds none.
    """

    A: GroupDescriptor
    k: int
    prod: str
    path: tuple[str, ...]

    @cached_property
    def polytope(self) -> PolytopePoset:
        P = edge()
        for step in self.path:
            P = cartesian(P, edge()) if step == TIMES_STEP else join(P, point())
        return P


def root() -> FamilyNode:
    """The edge I with its initial state: A trivial, k = 1, prod = cartesian."""
    return FamilyNode(A=groups.TRIVIAL, k=1, prod=CARTESIAN, path=())


def children(node: FamilyNode) -> tuple[FamilyNode, FamilyNode]:
    """The two successors (Cartesian-with-I child, join-with-pt child).

    The join child of the root is the single hard-coded base case: the
    triangle I * pt equals pt * pt * pt, so it restarts with A trivial and
    k = 3 rather than following the inductive rule.
    """
    times_path = node.path + (TIMES_STEP,)
    if node.prod == CARTESIAN:
        times_child = FamilyNode(A=node.A, k=node.k + 1, prod=CARTESIAN, path=times_path)
    else:
        times_child = FamilyNode(
            A=groups.normalize(groups.direct(node.A, Sym(node.k))),
            k=1,
            prod=CARTESIAN,
            path=times_path,
        )

    join_path = node.path + (JOIN_STEP,)
    if not node.path:
        join_child = FamilyNode(A=groups.TRIVIAL, k=3, prod=JOIN, path=join_path)
    elif node.prod == CARTESIAN:
        join_child = FamilyNode(
            A=groups.normalize(groups.direct(node.A, Hyp(node.k))),
            k=1,
            prod=JOIN,
            path=join_path,
        )
    else:
        join_child = FamilyNode(A=node.A, k=node.k + 1, prod=JOIN, path=join_path)
    return times_child, join_child


def aut_descriptor(node: FamilyNode) -> GroupDescriptor:
    """Aut of the node's polytope: A times Hyp(k) after a Cartesian step,
    A times Sym(k) after a join step."""
    tail = Hyp(node.k) if node.prod == CARTESIAN else Sym(node.k)
    return groups.normalize(groups.direct(node.A, tail))


def enumerate_family(steps: int) -> list[FamilyNode]:
    """All 2**steps nodes at the given depth, Cartesian branch first."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    level = [root()]
    for _ in range(steps):
        nxt = []
        for node in level:
            times_child, join_child = children(node)
            nxt.append(times_child)
            nxt.append(join_child)
        level = nxt
    return level


def node_for_path(path) -> FamilyNode:
    node = root()
    for step in path:
        times_child, join_child = children(node)
        if step == TIMES_STEP:
            node = times_child
        elif step == JOIN_STEP:
            node = join_child
        else:
            raise ValueError(f"unknown construction step {step!r}")
    return node


def node_to_json(node: FamilyNode) -> dict:
    descriptor = aut_descriptor(node)
    return {
        "path": list(node.path),
        "k": node.k,
        "prod": node.prod,
        "A": groups.to_json(node.A),
        "aut": groups.render(descriptor),
        "order": groups.order(descriptor),
    }
