"""Acceptance suite: one test per acceptance criterion, exact arithmetic only.

Each test prints a single ``[criterion N] name: PASS`` line once its
assertions hold (run with ``pytest -s`` to see the lines live; any assertion
failure fails the corresponding criterion).
"""

import math
import time

import pytest

from helpers import (
    F,
    graded_piece,
    grid_triples,
    hilbert_basis,
    leading_coefficient,
    monoid_points,
    monomial,
    nilpotency_index,
    normal_form,
    normalized_ring,
    parse_poly,
    poly_mul,
    poly_pow,
    poly_scale,
    reachable_sums,
    s_weight,
    squarefree_decomposition,
    upoly,
)

from pseudoplane import (
    CyclicAction,
    DpdPair,
    HypersurfaceRing,
    QDivisor,
    SurfaceTriple,
    canonical_pair,
    classify_pair,
    component_permutation,
    divisor_roots,
    fiber_analysis,
    find_valid_lnd_degrees,
    floor_div,
    freeness_check,
    standard_action,
    sweep,
    weight_piece_generator,
)

D_MAX, M_MAX = 6, 5
GRID = grid_triples(D_MAX, M_MAX)
TRIPLES = [SurfaceTriple(d, e, m) for d, e, m in GRID]


def _passed(n: int, name: str) -> None:
    print(f"[criterion {n}] {name}: PASS")


@pytest.fixture(scope="module")
def swept():
    start = time.monotonic()
    result = sweep(D_MAX, M_MAX, max_weight=8, include_reports=True)
    result["_elapsed"] = time.monotonic() - start
    return result


def test_criterion_1_grid_consistency(swept):
    assert swept["aggregate"]["inconsistent"] == 0
    assert swept["aggregate"]["total"] == len(GRID)
    for row in swept["rows"]:
        if row["d"] >= 2 and row["m"] >= 2:
            assert row["verdict"] == "consistent", row
        else:
            assert row["verdict"] == "excluded", row
            assert "ML1" in row["excluded_reason"]
    assert swept["_elapsed"] < 60.0, f"sweep took {swept['_elapsed']:.1f}s"
    _passed(1, "grid consistency (sweep d<=6, m<=5, max weight 8, exit 0)")


def test_criterion_2_exponent_identity(swept):
    for row in swept["rows"]:
        report = row["report"]
        der = report["derived"]
        assert der["k"] * der["e_prime"] + row["d"] * der["l"] == 0
        assert report["exponent_check"] is True
        expected = poly_pow(upoly("s", {row["d"]: 1, 0: -1}), der["m_prime"])
        assert parse_poly(report["pre_normalization"]["ring"]["P"], ("s",)) == expected
    _passed(2, "exponent identity k*e' + d*l = 0 and P = (s^d - 1)^m' on the grid")


def test_criterion_3_isomorphism_certification(swept):
    mismatches = 0
    for row in swept["rows"]:
        ps = row["report"]["product_structure"]
        assert ps["max_weight"] == 8
        if ps["all_match"] is not True:
            mismatches += 1
    assert mismatches == 0
    _passed(3, "product structure matches divisor predictions, |n|,|n'| <= 8, 0 mismatches")


def test_criterion_4_freeness_law():
    for d in range(1, D_MAX + 1):
        for e in range(1, 7):
            for m in range(1, M_MAX + 1):
                ring = HypersurfaceRing(m, d, 1, "w")
                action = CyclicAction(d, {"u": 1, "w": -m, "s": e})
                result = freeness_check(action, ring)
                assert result.free == (math.gcd(e, d) == 1), (d, e, m)
                if not result.free:
                    patterns = {
                        (locus["pattern"]["u"], locus["pattern"]["w"], locus["pattern"]["s"])
                        for locus in result.fixed_loci
                    }
                    assert ("zero", "zero", "nonzero") in patterns, (d, e, m)
    _passed(4, "freeness iff gcd(e, d) = 1, with the (0, 0, z) witness locus")


def test_criterion_5_smoothness():
    for t in TRIPLES:
        # -k*D- reads Q = (t - 1)^j, and the covering ring holds (s^d - 1)^j
        _, ((point, j),) = divisor_roots(t.pair.d_minus, t.k)
        assert point == 1, t
        covering = HypersurfaceRing(t.k, t.d, j, "v")
        from pseudoplane import smooth_check

        assert smooth_check(covering).smooth == (t.m_prime == 1), t
        assert smooth_check(normalized_ring(t)).smooth, t
    _passed(5, "covering relation singular iff m' >= 2; normalized relation always smooth")


def test_criterion_6_degenerate_fiber(swept):
    for t in TRIPLES:
        assert fiber_analysis(normalized_ring(t)) == [(t.d, 1)], t
        assert component_permutation(t.d, t.e).transitive, t
    for row in swept["rows"]:
        fiber = row["report"]["normalized"]["degenerate_fiber"]
        assert fiber == [[row["d"], 1]]
        assert row["report"]["transitive"] is True
    _passed(6, "degenerate fiber has d components of multiplicity 1, permuted transitively")


def test_criterion_7_lnd_certification():
    for t in TRIPLES:
        degrees = find_valid_lnd_degrees(t, t.m + 2 * t.d)
        assert degrees, t
        ring = normalized_ring(t)
        for degree in degrees:
            for n in range(-8, 9):
                x = normal_form(ring, monomial(ring, *weight_piece_generator(t, n)))
                index = nilpotency_index(ring, degree, x)
                assert index is not None, (t, degree, n)
                assert index <= 1 + s_weight(x), (t, degree, n)
    _passed(7, "valid derivation degrees exist within m + 2d and certify nilpotency")


def test_criterion_8_oracle_suites():
    # invariant monoid generators vs exhaustive decomposition up to exponent 10
    failures = 0
    seen = set()
    for t in TRIPLES:
        action = standard_action(t)
        key = (action.modulus, tuple(sorted(action.weights.items())))
        if key in seen:
            continue
        seen.add(key)
        weights = (action.weights["u"], action.weights["w"], action.weights["s"])
        basis = hilbert_basis(action)
        if reachable_sums(basis, 10) != monoid_points(action.modulus, weights, 10):
            failures += 1
        for g in basis:
            others = [h for h in basis if h != g]
            if g in reachable_sums(others, max(g)):
                failures += 1

    # squarefree decomposition vs reconstruction on a deterministic corpus
    corpus = []
    for a in range(3):
        for b in range(3):
            for c in range(2):
                p = poly_mul(
                    poly_mul(poly_pow(upoly("s", {1: 1, 0: -1}), a), poly_pow(upoly("s", {1: 1, 0: 1}), b)),
                    poly_pow(upoly("s", {2: 1, 0: -2}), c),
                )
                corpus.append(poly_scale(p, F(3, 2)))
    corpus.append(upoly("s", {7: 2, 5: -3, 2: 1, 0: 5}))
    for p in corpus:
        rebuilt = upoly("s", {0: leading_coefficient(p)})
        for factor, mult in squarefree_decomposition(p):
            rebuilt = poly_mul(rebuilt, poly_pow(factor, mult))
        if rebuilt != p:
            failures += 1

    # canonical_pair vs the graded-piece shift identity for |n| <= 12
    pairs = [t.pair for t in TRIPLES]
    pairs.append(DpdPair(QDivisor({0: F(-7, 3), 2: F(5, 2)}), QDivisor({0: F(1, 3), 2: F(-5, 2), 1: F(-1, 4)})))
    pairs.append(DpdPair(QDivisor({0: F(9, 4)}), QDivisor({0: F(-9, 4), 1: -2})))
    for pair in pairs:
        canonical = canonical_pair(pair)
        fl = floor_div(pair.d_plus)
        for n in range(-12, 13):
            before = graded_piece(pair, n)
            after = graded_piece(canonical, n)
            points = set(before) | set(after) | set(fl.support)
            for p in points:
                if after.get(p, 0) != before.get(p, 0) + n * int(fl.coefficient(p)):
                    failures += 1

    assert failures == 0
    _passed(8, "oracle suites (monoid generators, squarefree reconstruction, shift identity)")


def test_criterion_9_picard_exclusion():
    report = classify_pair("", "1:-1/2,2:-1/2")
    assert report["picard"]["torsion_compatible"] is False
    assert report["picard"]["l"] == 2
    assert report["verdict"] == "excluded"
    for t in TRIPLES:
        from pseudoplane import format_divisor

        row = classify_pair(format_divisor(t.pair.d_plus), format_divisor(t.pair.d_minus))
        assert row["picard"]["l"] <= 1, t
    _passed(9, "constructed l = 2 pair is torsion-incompatible; family pairs have l <= 1")
