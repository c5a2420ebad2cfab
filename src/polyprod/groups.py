"""Symbolic group descriptors: Sym(k), the hyperoctahedral Hyp(k) and
direct products, with normalization and exact orders."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Sym:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Sym(k) requires k >= 1")


@dataclass(frozen=True)
class Hyp:
    """(Z/2Z)^k semidirect Sym(k), the symmetry group of the k-cube."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Hyp(k) requires k >= 1")


@dataclass(frozen=True)
class DirectProduct:
    factors: tuple["GroupDescriptor", ...]


# a | union, not typing.Union: typing caches Union objects for the whole
# process, which would keep this module alive after a re-import
GroupDescriptor = Sym | Hyp | DirectProduct

TRIVIAL = DirectProduct(())


def direct(*factors: GroupDescriptor) -> DirectProduct:
    return DirectProduct(tuple(factors))


def order(d: GroupDescriptor) -> int:
    if isinstance(d, Sym):
        return math.factorial(d.k)
    if isinstance(d, Hyp):
        return (1 << d.k) * math.factorial(d.k)
    return math.prod(order(f) for f in d.factors)


def _leaves(d: GroupDescriptor) -> list[GroupDescriptor]:
    if isinstance(d, DirectProduct):
        out = []
        for f in d.factors:
            out.extend(_leaves(f))
        return out
    return [d]


def normalize(d: GroupDescriptor) -> GroupDescriptor:
    """Flatten products, drop trivial factors, sort factors by (kind, k)."""
    leaves = [f for f in _leaves(d) if not (isinstance(f, Sym) and f.k == 1)]
    leaves.sort(key=lambda f: (0 if isinstance(f, Sym) else 1, f.k))
    if len(leaves) == 1:
        return leaves[0]
    return DirectProduct(tuple(leaves))


def equal(d1: GroupDescriptor, d2: GroupDescriptor) -> bool:
    return normalize(d1) == normalize(d2)


def render(d: GroupDescriptor) -> str:
    """Print in the conventional notation, e.g. "(Z/2Z)^3 ⋊ Sym(3)"."""
    if isinstance(d, Sym):
        return f"Sym({d.k})"
    if isinstance(d, Hyp):
        if d.k == 1:
            return "Z/2Z"
        return f"(Z/2Z)^{d.k} ⋊ Sym({d.k})"
    if not d.factors:
        return "1"
    parts = []
    for f in d.factors:
        if isinstance(f, Hyp) and f.k > 1:
            parts.append(f"({render(f)})")
        elif isinstance(f, DirectProduct):
            parts.append(f"({render(f)})")
        else:
            parts.append(render(f))
    return " × ".join(parts)


def to_json(d: GroupDescriptor) -> dict:
    if isinstance(d, Sym):
        return {"kind": "sym", "k": d.k}
    if isinstance(d, Hyp):
        return {"kind": "hyp", "k": d.k}
    return {"kind": "prod", "factors": [to_json(f) for f in d.factors]}
