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
        # posets are immutable, so each atom is built once and shared
        I, pt = edge(), point()
        P = I
        for step in self.path:
            if step == TIMES_STEP:
                P = cartesian(P, I)
            elif step == JOIN_STEP:
                P = join(P, pt)
            else:
                raise ValueError(f"unknown construction step {step!r}")
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
    state = (node.A, node.k, node.prod, not node.path)
    return tuple(
        FamilyNode(*_step(*state, step), path=node.path + (step,))
        for step in (TIMES_STEP, JOIN_STEP)
    )


def _step(
    A: GroupDescriptor, k: int, prod: str, at_root: bool, step: str
) -> tuple[GroupDescriptor, int, str]:
    """The state (A, k, prod) of the child that ``step`` reaches from a node
    in state (A, k, prod); ``at_root`` when that node is the root."""
    if step == TIMES_STEP:
        if prod == CARTESIAN:
            return A, k + 1, CARTESIAN
        return groups.normalize(groups.direct(A, Sym(k))), 1, CARTESIAN
    if step == JOIN_STEP:
        if at_root:
            return groups.TRIVIAL, 3, JOIN
        if prod == CARTESIAN:
            return groups.normalize(groups.direct(A, Hyp(k))), 1, JOIN
        return A, k + 1, JOIN
    raise ValueError(f"unknown construction step {step!r}")


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
    """The node reached from the root by ``path``, in time linear in its
    length: each step computes the state of the one child it takes, and the
    path is stored once, at the end."""
    path = tuple(path)
    start = root()
    A, k, prod = start.A, start.k, start.prod
    for i, step in enumerate(path):
        A, k, prod = _step(A, k, prod, i == 0, step)
    return FamilyNode(A=A, k=k, prod=prod, path=path)


def node_to_json(node: FamilyNode) -> dict:
    """The node's state and group as JSON data. ``order`` is the group order
    as an int below 10^4300 and, from there on, the string "at least
    10^4300" that ``expr.format_count`` gives, since ``json.dumps`` cannot
    write an int of more than 4300 digits."""
    from .expr import _EXACT_BELOW, format_count  # here: expr imports this module

    descriptor = aut_descriptor(node)
    order = groups.order(descriptor)
    return {
        "path": list(node.path),
        "k": node.k,
        "prod": node.prod,
        "A": groups.to_json(node.A),
        "aut": groups.render(descriptor),
        "order": order if order < _EXACT_BELOW else format_count(order),
    }
