import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    F,
    graded_piece,
    grid_triples,
    nonpositive_divisors,
    product_defect,
    small_divisors,
)

from pseudoplane import (
    DpdPair,
    QDivisor,
    classify_presentation,
    floor_div,
    ml1_test,
    pseudoplane_dpd_pair,
    smoothness_condition,
)


def test_family_pair_values():
    pair = pseudoplane_dpd_pair(3, 2, 2)
    assert pair.d_plus == QDivisor({0: F(-2, 3)})
    assert pair.d_minus == QDivisor({0: F(2, 3), 1: F(-1, 2)})
    pair = pseudoplane_dpd_pair(2, 1, 2)
    assert pair.d_plus == QDivisor({0: F(-1, 2)})
    assert pair.d_minus == QDivisor({0: F(1, 2), 1: F(-1, 2)})
    pair = pseudoplane_dpd_pair(1, 1, 1)
    assert pair.d_plus == QDivisor({0: -1})
    assert pair.d_minus == QDivisor({0: 1, 1: -1})


def test_family_pair_normalizes_e_prime():
    assert pseudoplane_dpd_pair(3, 5, 2) == pseudoplane_dpd_pair(3, 2, 2)
    assert pseudoplane_dpd_pair(3, -1, 2) == pseudoplane_dpd_pair(3, 2, 2)


def test_family_pair_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        pseudoplane_dpd_pair(4, 2, 2)


def test_graded_piece_examples():
    pair = pseudoplane_dpd_pair(3, 2, 2)
    assert graded_piece(pair, 1) == {F(0): 1}
    assert graded_piece(pair, -1) == {F(1): 1}
    assert graded_piece(pair, 0) == {}
    # floor(2*D-) = 1[0] - 1[1]: a pole at 0
    assert graded_piece(pair, -2) == {F(0): -1, F(1): 1}
    assert all(type(p) is F for n in range(-6, 7) for p in graded_piece(pair, n))


def test_product_defect_examples():
    pair = pseudoplane_dpd_pair(3, 2, 2)
    assert product_defect(pair, 1, -1) == {F(0): 1, F(1): 1}
    assert product_defect(pair, 1, 1) == {}
    assert product_defect(pair, 0, -5) == {}


def test_classify_hyperbolic_admissible():
    pair = pseudoplane_dpd_pair(3, 2, 2)
    out = classify_presentation(pair, lnd_degree=2)
    assert out.admissible


def test_classify_degree_zero_excluded():
    pair = pseudoplane_dpd_pair(3, 2, 2)
    out = classify_presentation(pair, lnd_degree=0)
    assert not out.admissible
    assert "torus" in out.reason


def test_classify_picard_excluded():
    pair = DpdPair(QDivisor.zero(), QDivisor({1: F(-1, 2), 2: F(-1, 2)}))
    out = classify_presentation(pair)
    assert not out.admissible and "Picard" in out.reason


def test_smoothness_condition():
    assert smoothness_condition(2, -1) is True
    assert smoothness_condition(3, 2) is False
    assert smoothness_condition(5, -1) is True
    with pytest.raises(ValueError, match="coprime"):
        smoothness_condition(4, 2)


def _shift_identity_holds(pair, n_range=12):
    from pseudoplane import canonical_pair

    canonical = canonical_pair(pair)
    fl = floor_div(pair.d_plus)
    for n in range(-n_range, n_range + 1):
        before = graded_piece(pair, n)
        after = graded_piece(canonical, n)
        points = set(before) | set(after) | set(fl.support)
        for p in points:
            if after.get(p, 0) != before.get(p, 0) + n * int(fl.coefficient(p)):
                return False
    return True


def test_graded_piece_shift_identity_on_family():
    for d, e, m in grid_triples(5, 4):
        e_prime = pow(e, -1, d) if d > 1 else 1
        assert _shift_identity_holds(pseudoplane_dpd_pair(d, e_prime, m))


@given(small_divisors(), nonpositive_divisors())
def test_graded_piece_shift_identity_random(d_plus, slack):
    pair = DpdPair(d_plus, slack - d_plus)
    assert _shift_identity_holds(pair)


@given(small_divisors(), nonpositive_divisors(), st.integers(-12, 12), st.integers(-12, 12))
def test_product_defect_nonnegative(d_plus, slack, n, n_prime):
    pair = DpdPair(d_plus, slack - d_plus)
    assert all(v >= 0 for v in product_defect(pair, n, n_prime).values())


def test_ml1_iff_d_and_m_at_least_two():
    for d in range(1, 7):
        for m in range(1, 6):
            for e_prime in range(1, d + 1):
                if math.gcd(e_prime, d) != 1:
                    continue
                pair = pseudoplane_dpd_pair(d, e_prime, m)
                assert ml1_test(pair) == (d >= 2 and m >= 2)
