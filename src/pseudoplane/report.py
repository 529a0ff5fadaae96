"""Verification pipeline and structured reports.

Reports are plain JSON-native dicts built in a fixed field order, so
``json.loads(json.dumps(report)) == report`` and identical inputs produce
byte-identical output.  Schema (``format_version`` 1) for ``verify_triple``:

    format_version, input {d, e, m},
    derived {e_prime, k, m_prime, d_prime, l, orientation},
    exponent_check, dpd {d_plus, d_minus}, ml1,
    picard {l, bound, torsion_compatible},
    pre_normalization {ring, smooth, singular_witness},
    normalized {ring, witnesses {power_identity, normalized_smooth},
                degenerate_fiber},
    freeness, component_cycles, transitive, action_subgroup_match,
    product_structure {max_weight, all_match},
    lnd {degrees_found, nilpotency_certified},
    verdict, failed_checks, excluded_reason

verdict is "consistent", "excluded" (with excluded_reason set) or
"inconsistent" (with failed_checks non-empty).  Exit codes: 0 for consistent
or excluded-as-predicted, 1 for inconsistent, 2 for invalid input.
``product_structure.all_match`` is false when a measured and a predicted
defect differ or when an exact division in the product check fails; a
violated nilpotency bound in the derivation search leaves
``lnd.degrees_found`` empty and fails ``lnd_degrees``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterator

from .cyclic_quotient import (
    StructuralError,
    SurfaceTriple,
    component_permutation,
    find_valid_lnd_degrees,
    freeness_check,
    induced_action,
    normalized_ring,
    product_structure_check,
    same_subgroup,
    standard_action,
)
from .dpd_presentation import classify_presentation, pseudoplane_dpd_pair, smoothness_condition
from .exact_algebra import MultiPoly, format_poly
from .hypersurface_ring import (
    NormalizationWitness,
    _pure_power_base,
    _rhs_power,
    build_covering_ring,
    fiber_analysis,
    normalize_power_relation,
    smooth_check,
)
from .qdivisor import (
    DpdPair,
    RegimeError,
    canonical_pair,
    divisor_to_poly,
    format_divisor,
    fract_div,
    ml1_test,
    negative_locus,
    parse_divisor,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INVALID = 2

Report = dict[str, Any]

_REASON_M1 = (
    "not ML1: m=1 admits a second independent ruling of the covering surface "
    "(the fractional part of D- has fewer than two support points)"
)
_REASON_D1 = (
    "not ML1: d=1 leaves the fractional part of D- supported on a single point, "
    "although the constructed surface itself is smooth"
)


def _require_int(**bounds: Any) -> None:
    """Reject bool and non-int bounds the way ``SurfaceTriple`` rejects them."""
    for name, value in bounds.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def verify_triple(
    d: int, e: int, m: int, max_weight: int = 8, max_exponent: int = 10
) -> Report:
    """Run the full verification pipeline for one (d, e, m) triple."""
    triple = SurfaceTriple(d, e, m)
    _require_int(max_weight=max_weight, max_exponent=max_exponent)
    if max_weight < 0 or max_exponent < 1:
        raise ValueError("max_weight must be >= 0 and max_exponent >= 1")
    failed: list[str] = []

    def check(name: str, ok: bool) -> bool:
        if not ok:
            failed.append(name)
        return ok

    exponent_check = triple.k * triple.e_prime + triple.d * triple.l == 0
    check("exponent_identity", exponent_check)

    pair = triple.pair
    ml1 = ml1_test(pair)
    check("ml1_prediction", ml1 == (d >= 2 and m >= 2))

    locus = negative_locus(pair)
    check("picard_torsion", locus.torsion_compatible and locus.l <= 1)

    l_from_divisor, q = divisor_to_poly(pair.d_minus, triple.k)
    t = MultiPoly.variable(("t",), "t")
    expected_q = (t - MultiPoly.constant(("t",), 1)) ** triple.m_prime
    check("divisor_polynomial", l_from_divisor == triple.l and q == expected_q)

    covering = build_covering_ring(triple.k, d, triple.e_prime, triple.l, q)
    expected_p = _rhs_power(_pure_power_base(d), triple.m_prime)
    covering_ok = check("covering_relation", covering.P == expected_p)

    covering_smooth = smooth_check(covering)
    check("pre_normalization_smoothness", covering_smooth.smooth == (triple.m_prime == 1))

    if covering_ok:
        normalized, witness = normalize_power_relation(covering, m, d)
    else:
        # normalize_power_relation refuses any other P; the failed check
        # above already names the fault, so carry on with the normalized model
        normalized = normalized_ring(triple)
        witness = NormalizationWitness(False, smooth_check(normalized).smooth)
    check("normalization_witnesses", witness.power_identity and witness.normalized_smooth)

    action = standard_action(triple)
    freeness = freeness_check(action, normalized)
    check("freeness", freeness.free)

    fiber = fiber_analysis(normalized, 0)
    check("degenerate_fiber", fiber == [(d, 1)])

    cycles, transitive = component_permutation(d, e)
    check("component_transitivity", transitive)

    subgroup_match = same_subgroup(induced_action(triple), action)
    check("action_subgroup", subgroup_match)

    if max_weight > 0:
        try:
            all_match: bool | None = all(
                product_structure_check(triple, n, n_prime).match
                for n in range(-max_weight, max_weight + 1)
                for n_prime in range(-max_weight, max_weight + 1)
            )
        except StructuralError:
            # a failed exact division means a wrong piece convention: the
            # product structure does not match, and the sweep carries on
            all_match = False
        check("product_structure", bool(all_match))
    else:
        all_match = None

    try:
        degrees = find_valid_lnd_degrees(triple, bound=max(max_exponent, m + triple.d))
    except StructuralError:
        # a violated nilpotency bound breaks the filtration certificate: no
        # degree is certified, and the sweep carries on
        degrees = []
    check("lnd_degrees", bool(degrees))

    reasons = []
    if m == 1:
        reasons.append(_REASON_M1)
    if d == 1:
        reasons.append(_REASON_D1)
    if failed:
        verdict = "inconsistent"
        excluded_reason = None
    elif not ml1:
        verdict = "excluded"
        excluded_reason = "; ".join(reasons)
    else:
        verdict = "consistent"
        excluded_reason = None

    return {
        "format_version": FORMAT_VERSION,
        "input": {"d": d, "e": e, "m": m},
        "derived": {
            "e_prime": triple.e_prime,
            "k": triple.k,
            "m_prime": triple.m_prime,
            "d_prime": triple.d_prime,
            "l": triple.l,
            "orientation": "positive-lnd-degree",
        },
        "exponent_check": exponent_check,
        "dpd": {
            "d_plus": format_divisor(pair.d_plus),
            "d_minus": format_divisor(pair.d_minus),
        },
        "ml1": ml1,
        "picard": {
            "l": locus.l,
            "bound": locus.picard_rank_lower_bound,
            "torsion_compatible": locus.torsion_compatible,
        },
        "pre_normalization": {
            "ring": covering.serialize(),
            "smooth": covering_smooth.smooth,
            "singular_witness": [
                [format_poly(f), mult] for f, mult in covering_smooth.witness
            ],
        },
        "normalized": {
            "ring": normalized.serialize(),
            "witnesses": {
                "power_identity": witness.power_identity,
                "normalized_smooth": witness.normalized_smooth,
            },
            "degenerate_fiber": [[count, mult] for count, mult in fiber],
        },
        "freeness": freeness.free,
        "component_cycles": [list(c) for c in cycles],
        "transitive": transitive,
        "action_subgroup_match": subgroup_match,
        "product_structure": {"max_weight": max_weight, "all_match": all_match},
        "lnd": {"degrees_found": degrees, "nilpotency_certified": bool(degrees)},
        "verdict": verdict,
        "failed_checks": failed,
        "excluded_reason": excluded_reason,
    }


def _recover_family_parameters(pair: DpdPair) -> Report | None:
    """Recognize pairs of the family shape (-(e'/d)[0], (e'/d)[0] - (1/m)[1])
    up to the integral shift equivalence; ``up_to_equivalence`` is False when
    the pair is the family pair itself."""
    fractional = fract_div(pair.d_plus)
    if any(p != 0 for p in fractional.support):
        return None
    total = pair.total
    if total.support != (Fraction(1),):
        return None
    # the coefficient at the point 1 must be a/m with a = -1 for a smooth surface
    boundary = total.coefficient(1)
    if not smoothness_condition(boundary.denominator, boundary.numerator):
        return None
    ratio = 1 - fractional.coefficient(0)
    d, e_prime, m = ratio.denominator, ratio.numerator, boundary.denominator
    exact = pair == pseudoplane_dpd_pair(d, e_prime, m)
    return {"d": d, "e_prime": e_prime, "m": m, "up_to_equivalence": not exact}


def classify_pair(
    d_plus_text: str, d_minus_text: str, lnd_degree: int | None = None
) -> Report:
    """Classify a raw divisor pair: action class, uniqueness of the ruling,
    Picard compatibility, canonical form, and recovered family parameters."""
    d_plus = parse_divisor(d_plus_text)
    d_minus = parse_divisor(d_minus_text)
    pair = DpdPair(d_plus, d_minus)  # raises ValueError with pointwise witness

    action = classify_presentation(pair, lnd_degree)
    locus = negative_locus(pair)
    ml1: bool | None
    ml1_note: str | None
    try:
        ml1 = ml1_test(pair)
        ml1_note = None
    except RegimeError as exc:
        ml1 = None
        ml1_note = str(exc)
    canonical = canonical_pair(pair)
    recovered = _recover_family_parameters(pair)

    if not action.admissible:
        verdict = "excluded"
        excluded_reason = action.reason
    elif ml1 is None:
        verdict = "outside-regime"
        excluded_reason = None
    elif not ml1:
        verdict = "excluded"
        excluded_reason = (
            "not ML1: the fractional part of D- is supported on fewer than two points"
        )
    else:
        verdict = "admissible"
        excluded_reason = None

    return {
        "format_version": FORMAT_VERSION,
        "input": {
            "d_plus": d_plus_text,
            "d_minus": d_minus_text,
            "lnd_degree": lnd_degree,
        },
        "action_class": {
            "kind": "hyperbolic",
            "admissible": action.admissible,
            "reason": action.reason,
        },
        "ml1": ml1,
        "ml1_note": ml1_note,
        "picard": {
            "l": locus.l,
            "bound": locus.picard_rank_lower_bound,
            "torsion_compatible": locus.torsion_compatible,
        },
        "canonical": {
            "d_plus": format_divisor(canonical.d_plus),
            "d_minus": format_divisor(canonical.d_minus),
        },
        "recovered": recovered,
        "verdict": verdict,
        "excluded_reason": excluded_reason,
    }


def grid_triples(d_max: int, m_max: int) -> Iterator[tuple[int, int, int]]:
    """The triples of a sweep in its row order (d, e, m): d <= d_max, e in
    [1, d] coprime to d, m <= m_max."""
    for d in range(1, d_max + 1):
        for e in range(1, d + 1):
            if math.gcd(e, d) == 1:
                for m in range(1, m_max + 1):
                    yield d, e, m


def sweep(
    d_max: int,
    m_max: int,
    max_weight: int = 8,
    max_exponent: int = 10,
    include_reports: bool = False,
) -> Report:
    """Verify every admissible triple with d <= d_max, e in [1, d] coprime to
    d, m <= m_max; rows are ordered by (d, e, m)."""
    _require_int(d_max=d_max, m_max=m_max)
    if d_max < 1 or m_max < 1:
        raise ValueError("d_max and m_max must be positive integers")
    rows: list[Report] = []
    counts = {"consistent": 0, "excluded": 0, "inconsistent": 0}
    for d, e, m in grid_triples(d_max, m_max):
        report = verify_triple(d, e, m, max_weight=max_weight, max_exponent=max_exponent)
        counts[report["verdict"]] += 1
        row: Report = {
            "d": d,
            "e": e,
            "m": m,
            "verdict": report["verdict"],
            "failed_checks": report["failed_checks"],
            "excluded_reason": report["excluded_reason"],
        }
        if include_reports:
            row["report"] = report
        rows.append(row)
    counts["total"] = len(rows)
    return {
        "format_version": FORMAT_VERSION,
        "params": {
            "d_max": d_max,
            "m_max": m_max,
            "max_weight": max_weight,
            "max_exponent": max_exponent,
        },
        "rows": rows,
        "aggregate": counts,
    }


def verify_exit_code(report: Report) -> int:
    return EXIT_OK if report["verdict"] in ("consistent", "excluded") else EXIT_INCONSISTENT


def sweep_exit_code(result: Report) -> int:
    return EXIT_OK if result["aggregate"]["inconsistent"] == 0 else EXIT_INCONSISTENT
