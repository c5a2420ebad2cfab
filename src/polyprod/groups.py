"""Symbolic group descriptors: Sym(k), the hyperoctahedral Hyp(k) and
direct products, with normalization and orders, exact below 10^4300."""

from __future__ import annotations

import math
from dataclasses import dataclass

# counts below 10^_EXACT_DIGITS (group orders, expression sizes) are exact and
# printed in full, larger ones are printed as "at least" (``format_count``);
# Python formats ints of at most 4300 digits by default
_EXACT_DIGITS = 4300
_EXACT_BELOW = 10**_EXACT_DIGITS
# 2000! has 5736 digits, so Sym(k) and Hyp(k) with k above this are clamped
# without computing k!
_EXACT_K = 2000


def format_count(count: int) -> str:
    """The count in decimal, or "at least 10^4300" from 10^4300 on, where
    Python stops converting ints to text by default."""
    return str(count) if count < _EXACT_BELOW else f"at least 10^{_EXACT_DIGITS}"


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


def direct(*factors: GroupDescriptor) -> DirectProduct:
    return DirectProduct(tuple(factors))


def order(d: GroupDescriptor) -> int:
    """The order of d below 10^4300, and 10^4300 from there on. A product is
    clamped as each factor is multiplied in, so no value computed has more
    than twice the bound's digits."""
    if isinstance(d, DirectProduct):
        total = 1
        for f in d.factors:
            total = min(total * order(f), _EXACT_BELOW)
        return total
    if d.k > _EXACT_K:
        return _EXACT_BELOW
    n = math.factorial(d.k) << (d.k if isinstance(d, Hyp) else 0)
    return min(n, _EXACT_BELOW)


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


def render(d: GroupDescriptor) -> str:
    """Print in the conventional notation, e.g. "(Z/2Z)^3 ⋊ Sym(3)", with
    each k written by ``format_count``."""
    if isinstance(d, Sym):
        return f"Sym({format_count(d.k)})"
    if isinstance(d, Hyp):
        if d.k == 1:
            return "Z/2Z"
        k = format_count(d.k)
        return f"(Z/2Z)^{k} ⋊ Sym({k})"
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
