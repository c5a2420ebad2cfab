"""The inductive family: starting from the edge I, each polytope branches into
its Cartesian product with I and its join with pt.

A family polytope is its factorisation into prime polytopes (Gleason and
Hubard, *Products of abstract polytopes*, JCTA 157, 2018): one prime power
per run of equal steps, I^x k for a run of Cartesian steps and pt^* k for a
run of joins. The first run also takes in the root edge, as I = pt * pt =
pt x I. Aut is the direct product of Hyp(k) for each Cartesian run and Sym(k)
for each join run, and the bookkeeping state (A, k, prod) is read off the
runs: the last run gives k and prod, the others A.

Nodes are symbolic: a node's polytope is built from any of its expressions
by ``expr.eval_expr``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from . import groups
from .groups import _EXACT_BELOW, GroupDescriptor, Hyp, Sym, format_count
from .products import CARTESIAN, JOIN

TIMES_STEP = "xI"
JOIN_STEP = "*pt"

# per step: its product, and how many copies of the step's atom the root
# edge counts for when it opens the first run (I = pt x I = pt * pt)
_STEPS = {TIMES_STEP: (CARTESIAN, 1), JOIN_STEP: (JOIN, 2)}
_GROUP = {CARTESIAN: Hyp, JOIN: Sym}


@dataclass
class FamilyNode:
    """A family member as its runs: one (step, count) pair per maximal run of
    equal steps from the root edge, with count >= 1 and neighbouring steps
    distinct."""

    runs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for i, (step, count) in enumerate(self.runs):
            if step not in _STEPS:
                raise ValueError(f"unknown construction step {step!r}")
            if count < 1 or (i and self.runs[i - 1][0] == step):
                raise ValueError("runs need counts >= 1 and distinct neighbouring steps")

    @property
    def path(self) -> tuple[str, ...]:
        """The steps from the root edge, each run spelled out."""
        return tuple(step for step, count in self.runs for _ in range(count))

    @property
    def factors(self) -> tuple[tuple[str, int], ...]:
        """One (product, k) pair per run: the prime power I^x k or pt^* k."""
        if not self.runs:
            return ((CARTESIAN, 1),)
        (first, count), *rest = self.runs
        op, root = _STEPS[first]
        return ((op, count + root), *((_STEPS[step][0], n) for step, n in rest))

    @property
    def prod(self) -> str:
        return self.factors[-1][0]

    @property
    def k(self) -> int:
        return self.factors[-1][1]

    @property
    def A(self) -> GroupDescriptor:
        """Aut of the factors before the last run."""
        return _aut(self.factors[:-1])


def _aut(factors) -> GroupDescriptor:
    return groups.normalize(groups.direct(*(_GROUP[op](k) for op, k in factors)))


def _runs(pairs) -> tuple[tuple[str, int], ...]:
    """Maximal runs of (step, count) pairs: equal neighbouring steps merged."""
    return tuple(
        (step, sum(count for _, count in group))
        for step, group in itertools.groupby(pairs, key=itemgetter(0))
    )


def root() -> FamilyNode:
    """The edge I: no steps, one Cartesian factor with k = 1."""
    return FamilyNode(())


def children(node: FamilyNode) -> tuple[FamilyNode, FamilyNode]:
    """The two successors (Cartesian-with-I child, join-with-pt child)."""
    return tuple(
        FamilyNode(_runs((*node.runs, (step, 1)))) for step in (TIMES_STEP, JOIN_STEP)
    )


def aut_descriptor(node: FamilyNode) -> GroupDescriptor:
    """Aut of the node's polytope: the direct product of Hyp(k) for each
    Cartesian factor and Sym(k) for each join factor."""
    return _aut(node.factors)


def enumerate_family(steps: int) -> list[FamilyNode]:
    """All 2**steps nodes at the given depth, Cartesian branch first."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return [
        FamilyNode(_runs((step, 1) for step in path))
        for path in itertools.product((TIMES_STEP, JOIN_STEP), repeat=steps)
    ]


def node_for_path(path) -> FamilyNode:
    """The node reached from the root by ``path``."""
    return FamilyNode(_runs((step, 1) for step in path))


def node_to_json(node: FamilyNode) -> dict:
    """The node's state and group as JSON data. ``order`` is the group order
    as an int below 10^4300 and, from there on, the string "at least
    10^4300" that ``groups.format_count`` gives, since ``json.dumps`` cannot
    write an int of more than 4300 digits."""
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
