"""Exact-arithmetic toolkit for a family of surfaces with torus symmetry.

Given a triple (d, e, m) with gcd(e, d) = 1, the package builds the
hypersurface x^m y = z^d - 1 with its diagonal cyclic symmetry, derives the
divisor pair presenting the quotient's graded coordinate ring, and certifies
at desk scale that the invariant ring of the quotient matches the divisor-pair
presentation: weight-piece generators, product structure, freeness of the
action, fiber structure, and locally nilpotent derivations are all checked in
exact rational arithmetic.
"""

from .qdivisor import (
    DpdPair,
    QDivisor,
    RegimeError,
    canonical_pair,
    divisor_roots,
    floor_div,
    format_divisor,
    fract_div,
    ml1_test,
    negative_locus,
    parse_divisor,
)
from .hypersurface_ring import (
    HypersurfaceRing,
    fiber_analysis,
    smooth_check,
)
from .cyclic_quotient import (
    CyclicAction,
    SurfaceTriple,
    component_permutation,
    find_valid_lnd_degrees,
    freeness_check,
    product_window,
    standard_action,
    weight_piece_generator,
)
from .report import classify_pair, sweep, verify_exit_code, verify_triple

__all__ = [
    "CyclicAction",
    "DpdPair",
    "HypersurfaceRing",
    "QDivisor",
    "RegimeError",
    "SurfaceTriple",
    "canonical_pair",
    "classify_pair",
    "component_permutation",
    "divisor_roots",
    "fiber_analysis",
    "find_valid_lnd_degrees",
    "floor_div",
    "format_divisor",
    "fract_div",
    "freeness_check",
    "ml1_test",
    "negative_locus",
    "parse_divisor",
    "product_window",
    "smooth_check",
    "standard_action",
    "sweep",
    "verify_exit_code",
    "verify_triple",
    "weight_piece_generator",
]
