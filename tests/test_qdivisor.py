import pytest
from hypothesis import given

from helpers import (
    F,
    nonpositive_divisors,
    small_divisors,
)

from pseudoplane import (
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


def qd(entries):
    return QDivisor(entries)


def test_floor_fract_single_point():
    d = qd({0: F(-2, 3)})
    assert floor_div(d) == qd({0: -1})
    assert fract_div(d) == qd({0: F(1, 3)})


def test_floor_fract_zero():
    z = QDivisor()
    assert floor_div(z) == z
    assert fract_div(z) == z


def test_fract_two_points():
    d = qd({0: F(2, 3), 1: F(-1, 2)})
    assert fract_div(d) == qd({0: F(2, 3), 1: F(1, 2)})


def test_pair_invariant_violation_names_point():
    with pytest.raises(ValueError, match=r"positive at .*1/2"):
        DpdPair(qd({0: F(1, 2)}), QDivisor())


def test_canonical_pair_shifts_floor():
    pair = DpdPair(qd({0: F(-5, 3)}), qd({0: F(5, 3), 1: F(-1, 2)}))
    out = canonical_pair(pair)
    assert out.d_plus == qd({0: F(1, 3)})
    assert out.d_minus == qd({0: F(-1, 3), 1: F(-1, 2)})


def test_canonical_pair_zero_fixed_point():
    pair = DpdPair(QDivisor(), QDivisor())
    out = canonical_pair(pair)
    assert out.d_plus == out.d_minus == QDivisor()


def test_canonical_pair_family_shape():
    # D+ = -2/3[0] has floor -1[0], so the shift moves one integral unit of
    # the point 0 from D- to D+; the sum is untouched.
    pair = DpdPair(qd({0: F(-2, 3)}), qd({0: F(2, 3), 1: F(-1, 2)}))
    out = canonical_pair(pair)
    assert out.d_plus == qd({0: F(1, 3)})
    assert out.d_minus == qd({0: F(-1, 3), 1: F(-1, 2)})
    assert out.total == pair.total


def test_ml1_examples():
    pair = DpdPair(qd({0: F(-2, 3)}), qd({0: F(2, 3), 1: F(-1, 2)}))
    assert ml1_test(pair) is True
    single = DpdPair(qd({0: F(-1, 2)}), qd({0: F(1, 2), 1: -1}))
    assert ml1_test(single) is False
    assert ml1_test(DpdPair(QDivisor(), QDivisor())) is False


def test_ml1_outside_regime():
    pair = DpdPair(qd({0: F(-1, 2), 1: F(-1, 2)}), QDivisor())
    with pytest.raises(RegimeError, match="outside classified regime"):
        ml1_test(pair)


def test_negative_locus():
    pair = DpdPair(qd({0: F(-2, 3)}), qd({0: F(2, 3), 1: F(-1, 2)}))
    assert negative_locus(pair) == (1, 0, True)
    two = DpdPair(QDivisor(), qd({1: F(-1, 2), 2: F(-1, 2)}))
    assert negative_locus(two) == (2, 1, False)
    assert negative_locus(DpdPair(QDivisor(), QDivisor())) == (0, -1, True)


def test_divisor_to_poly_examples():
    # Q = (t - 1)^j is read as its one root 1 of order j
    l, roots = divisor_roots(qd({0: F(2, 3), 1: F(-1, 2)}), 6)
    assert l == -4 and roots == ((1, 3),)
    l, roots = divisor_roots(qd({1: -1}), 1)
    assert l == 0 and roots == ((1, 1),)
    l, roots = divisor_roots(qd({0: F(1, 2), 1: F(-1, 2)}), 2)
    assert l == -1 and roots == ((1, 1),)


def test_divisor_to_poly_errors():
    with pytest.raises(ValueError, match="not a multiple of denom"):
        divisor_roots(qd({0: F(2, 3)}), 2)
    with pytest.raises(ValueError, match="non-polynomial"):
        divisor_roots(qd({1: F(1, 2)}), 2)


def test_divisor_text_roundtrip_and_order():
    d = parse_divisor("1:-1/2,0:-2/3")
    assert format_divisor(d) == "0:-2/3,1:-1/2"
    assert parse_divisor("") == QDivisor()
    assert format_divisor(QDivisor()) == ""
    with pytest.raises(ValueError, match="duplicate"):
        parse_divisor("0:1,0:2")
    with pytest.raises(ValueError):
        parse_divisor("0:")
    with pytest.raises(ValueError):
        parse_divisor("nonsense")


@pytest.mark.parametrize("text", ["0:0.5", "0:1_000", "0:1e3", "1e3:1"])
def test_parse_divisor_refuses_other_number_forms(text):
    # Fraction reads these; the divisor grammar is [+-]p or [+-]p/q
    with pytest.raises(ValueError, match="^bad rational in divisor entry"):
        parse_divisor(text)
    assert parse_divisor(" +1 : -2/4 ") == qd({1: F(-1, 2)})


@given(small_divisors())
def test_printed_divisors_parse_back(d):
    assert parse_divisor(format_divisor(d)) == d


@given(small_divisors())
def test_floor_plus_fract(d):
    fl, fr = floor_div(d), fract_div(d)
    assert fl + fr == d
    assert all(0 <= c < 1 for _, c in fr.items())
    assert all(c.denominator == 1 for _, c in fl.items())
    # the fractional part keeps each point's denominator
    assert all(fr.coefficient(p).denominator == c.denominator for p, c in d.items())


@given(small_divisors(), nonpositive_divisors())
def test_canonical_pair_properties(d_plus, slack):
    pair = DpdPair(d_plus, slack - d_plus)
    out = canonical_pair(pair)
    assert out.total == pair.total
    assert all(0 <= c < 1 for _, c in out.d_plus.items())
    # idempotent and ml1-invariant (within the classified regime)
    assert canonical_pair(out).d_plus == out.d_plus
    try:
        before = ml1_test(pair)
    except RegimeError:
        return
    assert ml1_test(out) == before


