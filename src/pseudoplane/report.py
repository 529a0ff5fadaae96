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
``normalized.witnesses.power_identity`` (w^m' = v for w = (s^d - 1)/u^m)
equals the result of ``covering_relation``, so ``normalization_witnesses``
fails on ``normalized.witnesses.normalized_smooth`` alone.
``product_structure.all_match`` is false when ``product_window`` finds a
weight n in -2*max_weight..2*max_weight whose generator or graded piece
breaks one of its identities.  The check certifies each piece's generator,
which implies the product structure: if every weight passes, every pair of
generators of weights |n|, |n'| <= max_weight multiplies as the divisor pair
predicts, with an (s^d)^kappa (s^d - 1)^lam cofactor.
``lnd.degrees_found`` lists the degrees that pass ``find_valid_lnd_degrees``'
integer membership rule on the generator (0, 1, m*e' mod d), which binds it
on the whole invariant monoid, each an LND of the whole invariant ring by
the lemmas in its docstring; if none passes, the list is empty and the
report fails ``lnd_degrees``.  A ``d``, ``m``, ``max_weight`` or
``max_exponent`` above its ``MAX_*_CAP`` (for ``sweep``, ``d_max`` and
``m_max``), and a sweep grid of more than ``MAX_GRID_TRIPLES`` triples, are
refused with ``ValueError`` before any work starts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .cyclic_quotient import (
    MAX_EXPONENT_CAP,
    MAX_WEIGHT_CAP,
    SurfaceTriple,
    _same_subgroup_as_induced,
    component_permutation,
    find_valid_lnd_degrees,
    freeness_check,
    product_window,
    standard_action,
)
from .dpd_presentation import _family_pair
from .exact_algebra import _check_int, _is_int
from .hypersurface_ring import HypersurfaceRing, _format_relation, fiber_analysis, smooth_check
from .qdivisor import (
    DpdPair,
    RegimeError,
    canonical_pair,
    divisor_roots,
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

# Caps on the inputs whose work has no other bound; README ("Notes on
# conventions") gives the timing behind each.  The caps on max_weight and
# max_exponent are cyclic_quotient's, which product_window and
# find_valid_lnd_degrees enforce.
MAX_D_CAP = 800
MAX_M_CAP = 750_000
MAX_GRID_TRIPLES = 10_000

_REASON_M1 = (
    "not ML1: m=1 admits a second independent ruling of the covering surface "
    "(the fractional part of D- has fewer than two support points)"
)
_REASON_D1 = (
    "not ML1: d=1 leaves the fractional part of D- supported on a single point, "
    "although the constructed surface itself is smooth"
)


def verify_triple(
    d: int, e: int, m: int, max_weight: int = 8, max_exponent: int = 10
) -> dict:
    """Run the full verification pipeline for one (d, e, m) triple.

    The product structure is checked on |n|, |n'| <= max_weight (skipped at
    0) and derivation degrees are searched up to max_exponent (at least
    m + d); d, m and these bounds out of range raise ``ValueError``."""
    triple = SurfaceTriple(d, e, m)
    _check_int("d", d, 1, MAX_D_CAP)
    _check_int("m", m, 1, MAX_M_CAP)
    _check_int("max_weight", max_weight, 0, MAX_WEIGHT_CAP)
    _check_int("max_exponent", max_exponent, 1, MAX_EXPONENT_CAP)
    failed: list[str] = []

    exponent_check = triple.k * triple.e_prime + triple.d * triple.l == 0
    if not exponent_check:
        failed.append("exponent_identity")

    pair = triple.pair
    ml1 = ml1_test(pair)
    if ml1 != (d >= 2 and m >= 2):
        failed.append("ml1_prediction")

    locus = negative_locus(pair)
    if not locus.torsion_compatible:
        failed.append("picard_torsion")

    # -k*D- is the divisor of t^l (t - 1)^m', so Q = (t - 1)^m'; with
    # k*e' + d*l = 0 (exponent_identity) the covering relation is
    # u^k v = Q(s^d) = (s^d - 1)^m'
    pure_power = ((1, triple.m_prime),)
    l_from_divisor, roots = divisor_roots(pair.d_minus, triple.k)
    if l_from_divisor != triple.l or roots != pure_power:
        failed.append("divisor_polynomial")

    # both rings are built unchecked from checked values: k, m and d are
    # ints >= 1, divisor_roots returns clean roots, and neither v nor w
    # shadows u or s
    covering = HypersurfaceRing._trusted(triple.k, d, roots, "v")
    covering_ok = covering.roots == pure_power
    if not covering_ok:
        failed.append("covering_relation")

    covering_smooth = smooth_check(covering)
    if covering_smooth.smooth != (triple.m_prime == 1):
        failed.append("pre_normalization_smoothness")

    # the normalized model adjoins w = (s^d - 1)/u^m; with k = m*m',
    # w^m' = (s^d - 1)^m'/u^k = P/u^k = v exactly when P = (s^d - 1)^m',
    # which is what covering_relation checks, so power_identity is its
    # result and the witness check reads normalized_smooth alone
    normalized = HypersurfaceRing._trusted(m, d, ((1, 1),), "w")
    normalized_smooth = smooth_check(normalized).smooth
    if not normalized_smooth:
        failed.append("normalization_witnesses")

    action = standard_action(triple)
    freeness = freeness_check(action, normalized)
    if not freeness.free:
        failed.append("freeness")

    fiber = fiber_analysis(normalized)
    if fiber != [(d, 1)]:
        failed.append("degenerate_fiber")

    cycles, transitive = component_permutation(d, e)
    if not transitive:
        failed.append("component_transitivity")

    subgroup_match = _same_subgroup_as_induced(triple, action)
    if not subgroup_match:
        failed.append("action_subgroup")

    all_match: bool | None = None
    if max_weight > 0:
        all_match = product_window(triple, max_weight) is None
        if not all_match:
            failed.append("product_structure")

    degrees = find_valid_lnd_degrees(triple, bound=max(max_exponent, m + triple.d))
    if not degrees:
        failed.append("lnd_degrees")

    singular_witness = []  # each factor printed as prod (s^d - p) over its points
    for points, mult in covering_smooth.witness:
        singular_witness.append([_format_relation(d, tuple(zip(points, [1] * len(points)))), mult])

    excluded_reason = None
    if failed:
        verdict = "inconsistent"
    elif not ml1:
        verdict = "excluded"
        reasons = []
        if m == 1:
            reasons.append(_REASON_M1)
        if d == 1:
            reasons.append(_REASON_D1)
        excluded_reason = "; ".join(reasons)
    else:
        verdict = "consistent"

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
            "singular_witness": singular_witness,
        },
        "normalized": {
            "ring": normalized.serialize(),
            "witnesses": {
                "power_identity": covering_ok,
                "normalized_smooth": normalized_smooth,
            },
            "degenerate_fiber": list(map(list, fiber)),
        },
        "freeness": freeness.free,
        "component_cycles": list(map(list, cycles)),
        "transitive": transitive,
        "action_subgroup_match": subgroup_match,
        "product_structure": {"max_weight": max_weight, "all_match": all_match},
        "lnd": {"degrees_found": degrees, "nilpotency_certified": bool(degrees)},
        "verdict": verdict,
        "failed_checks": failed,
        "excluded_reason": excluded_reason,
    }


def _recover_family_parameters(pair: DpdPair) -> dict | None:
    """Recognize pairs of the family shape (-(e'/d)[0], (e'/d)[0] - (1/m)[1])
    up to the integral shift equivalence; ``up_to_equivalence`` is False when
    the pair is the family pair itself."""
    fractional = fract_div(pair.d_plus)
    if any(p != 0 for p in fractional.support):
        return None
    total = pair.total
    if total.support != (Fraction(1),):
        return None
    # the coefficient at the point 1 is a/m, and only a = -1 gives a smooth surface
    boundary = total.coefficient(1)
    if boundary.numerator != -1:
        return None
    # 1 - {D+}(0) lies in (0, 1], so e' is in [1, d] and coprime to d
    ratio = 1 - fractional.coefficient(0)
    d, e_prime, m = ratio.denominator, ratio.numerator, boundary.denominator
    exact = pair == _family_pair(d, e_prime, m)
    return {"d": d, "e_prime": e_prime, "m": m, "up_to_equivalence": not exact}


def classify_pair(
    d_plus_text: str, d_minus_text: str, lnd_degree: int | None = None
) -> dict:
    """Classify a raw divisor pair: action class, uniqueness of the ruling,
    Picard compatibility, canonical form, and recovered family parameters.

    The action class is a decision table ruling a hyperbolic presentation in
    or out as a candidate for a surface with an essentially unique ruling
    over the affine line; no ring computation runs, as each exclusion is a
    recorded fact.  lnd_degree, when known, is the degree of a homogeneous
    locally nilpotent derivation: an int (not a bool) or None, and anything
    else raises ValueError."""
    d_plus = parse_divisor(d_plus_text)
    d_minus = parse_divisor(d_minus_text)
    pair = DpdPair(d_plus, d_minus)  # raises ValueError with pointwise witness
    if lnd_degree is not None and not _is_int(lnd_degree):
        raise ValueError(f"lnd_degree must be an integer or None, got {lnd_degree!r}")

    locus = negative_locus(pair)
    admissible = False
    if lnd_degree == 0:
        reason = "degree-0 derivation presents a line times a torus (ruling over the torus)"
    elif not locus.torsion_compatible:
        reason = (
            f"negative locus has {locus.l} points, so Picard rank >= "
            f"{locus.picard_rank_lower_bound} is not a torsion group"
        )
    else:
        admissible, reason = True, "admissible"
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

    if not admissible:
        verdict = "excluded"
        excluded_reason = reason
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
            "admissible": admissible,
            "reason": reason,
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


def _grid_size(d_max: int, m_max: int) -> int:
    """The number of triples of ``grid_triples``: m_max times the sum of
    Euler's phi(d) over d <= d_max, by a totient sieve."""
    phi = list(range(d_max + 1))
    for p in range(2, d_max + 1):
        if phi[p] == p:  # p is prime
            for n in range(p, d_max + 1, p):
                phi[n] -= phi[n] // p
    return m_max * sum(phi[1:])


def sweep(
    d_max: int,
    m_max: int,
    max_weight: int = 8,
    max_exponent: int = 10,
    include_reports: bool = False,
) -> dict:
    """Verify every admissible triple with d <= d_max, e in [1, d] coprime to
    d, m <= m_max; rows are ordered by (d, e, m)."""
    _check_int("d_max", d_max, 1, MAX_D_CAP)
    _check_int("m_max", m_max, 1, MAX_M_CAP)
    _check_int("grid triples", _grid_size(d_max, m_max), 1, MAX_GRID_TRIPLES)
    _check_int("max_weight", max_weight, 0, MAX_WEIGHT_CAP)
    _check_int("max_exponent", max_exponent, 1, MAX_EXPONENT_CAP)
    rows: list[dict] = []
    counts = {"consistent": 0, "excluded": 0, "inconsistent": 0}
    for d, e, m in grid_triples(d_max, m_max):
        report = verify_triple(d, e, m, max_weight=max_weight, max_exponent=max_exponent)
        counts[report["verdict"]] += 1
        row: dict = {
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


def verify_exit_code(report: dict) -> int:
    return EXIT_OK if report["verdict"] in ("consistent", "excluded") else EXIT_INCONSISTENT


def sweep_exit_code(result: dict) -> int:
    return EXIT_OK if result["aggregate"]["inconsistent"] == 0 else EXIT_INCONSISTENT
