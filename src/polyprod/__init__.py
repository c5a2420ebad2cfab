"""Abstract polytopes as ranked face posets: joins, Cartesian products,
axiom verification, pyramid/prism structure and automorphism groups."""

from .autom import (
    FacePermutation,
    aut_order,
    automorphisms,
    closure,
    described_generators,
)
from .expr import eval_expr, expr_to_family, parse_expr
from .family import FamilyNode, aut_descriptor, children, enumerate_family, root
from .groups import DirectProduct, Hyp, Sym
from .poset import (
    PolytopePoset,
    edge,
    flags,
    from_components,
    is_isomorphic,
    less_eq,
    point,
    section,
)
from .products import cartesian, join, power, product
from .structure import prism_decompose, pyramid_apex_candidates, pyramid_decompose
from .verify import ValidityReport, verify_polytope

__all__ = [
    "FacePermutation",
    "FamilyNode",
    "PolytopePoset",
    "ValidityReport",
    "DirectProduct",
    "Hyp",
    "Sym",
    "aut_descriptor",
    "aut_order",
    "automorphisms",
    "cartesian",
    "children",
    "closure",
    "described_generators",
    "edge",
    "enumerate_family",
    "eval_expr",
    "expr_to_family",
    "flags",
    "from_components",
    "is_isomorphic",
    "join",
    "less_eq",
    "parse_expr",
    "point",
    "power",
    "prism_decompose",
    "product",
    "pyramid_apex_candidates",
    "pyramid_decompose",
    "root",
    "section",
    "verify_polytope",
]
