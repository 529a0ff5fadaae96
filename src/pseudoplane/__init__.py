"""Exact-arithmetic toolkit for a family of surfaces with torus symmetry.

Given a triple (d, e, m) with gcd(e, d) = 1, the package builds the
hypersurface x^m y = z^d - 1 with its diagonal cyclic symmetry, derives the
divisor pair presenting the quotient's graded coordinate ring, and certifies
at desk scale that the invariant ring of the quotient matches the divisor-pair
presentation: weight-piece generators, product structure, freeness of the
action, fiber structure, and locally nilpotent derivations are all checked in
exact rational arithmetic.
"""

from .exact_algebra import (
    MultiPoly,
    format_poly,
    parse_poly,
    poly_divmod,
    poly_gcd,
    squarefree_decomposition,
    substitute_power,
)
from .qdivisor import (
    DpdPair,
    QDivisor,
    RegimeError,
    canonical_pair,
    divisor_to_poly,
    floor_div,
    format_divisor,
    fract_div,
    ml1_test,
    negative_locus,
    parse_divisor,
)
from .dpd_presentation import (
    classify_presentation,
    graded_piece,
    product_defect,
    pseudoplane_dpd_pair,
    smoothness_condition,
)
from .hypersurface_ring import (
    HypersurfaceRing,
    NonPolynomial,
    RingElement,
    build_covering_ring,
    derivation_leaves_ring,
    fiber_analysis,
    nilpotency_index,
    normal_form,
    normalize_power_relation,
    s_weight,
    smooth_check,
)
from .cyclic_quotient import (
    CyclicAction,
    StructuralError,
    SurfaceTriple,
    component_permutation,
    find_valid_lnd_degrees,
    freeness_check,
    hilbert_basis,
    induced_action,
    mod_inverse,
    monomial_element,
    normalized_ring,
    product_structure_check,
    same_subgroup,
    standard_action,
    weight_piece_generator,
)
from .report import classify_pair, sweep, verify_exit_code, verify_triple

__all__ = [
    "CyclicAction",
    "DpdPair",
    "HypersurfaceRing",
    "MultiPoly",
    "NonPolynomial",
    "QDivisor",
    "RegimeError",
    "RingElement",
    "StructuralError",
    "SurfaceTriple",
    "build_covering_ring",
    "canonical_pair",
    "classify_pair",
    "classify_presentation",
    "component_permutation",
    "derivation_leaves_ring",
    "divisor_to_poly",
    "fiber_analysis",
    "find_valid_lnd_degrees",
    "floor_div",
    "format_divisor",
    "format_poly",
    "fract_div",
    "freeness_check",
    "graded_piece",
    "hilbert_basis",
    "induced_action",
    "ml1_test",
    "mod_inverse",
    "monomial_element",
    "negative_locus",
    "nilpotency_index",
    "normal_form",
    "normalize_power_relation",
    "normalized_ring",
    "parse_divisor",
    "parse_poly",
    "poly_divmod",
    "poly_gcd",
    "product_defect",
    "product_structure_check",
    "pseudoplane_dpd_pair",
    "s_weight",
    "same_subgroup",
    "smooth_check",
    "smoothness_condition",
    "squarefree_decomposition",
    "standard_action",
    "substitute_power",
    "sweep",
    "verify_exit_code",
    "verify_triple",
    "weight_piece_generator",
]
