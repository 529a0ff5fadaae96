"""MultiPoly and its text format, and the gcd / Yun layer that
helpers.py keeps as the oracle of the rings' factored reading."""

import pytest
from hypothesis import given

from helpers import (
    F,
    degree,
    leading_coefficient,
    partial,
    poly_divmod,
    poly_gcd,
    small_multipolys,
    small_upolys,
    squarefree_decomposition,
    substitute_power,
    upoly,
)

from pseudoplane import MultiPoly, format_poly, parse_poly

S = ("s",)
UVS = ("u", "v", "s")


def s_poly(coeffs):
    return upoly("s", coeffs)


def test_difference_of_squares():
    s_minus = s_poly({1: 1, 0: -1})
    s_plus = s_poly({1: 1, 0: 1})
    assert s_minus * s_plus == s_poly({2: 1, 0: -1})


def test_power_rule_partial():
    assert partial(s_poly({3: 1, 0: -1}), "s") == s_poly({2: 3})


def test_cancellation_to_zero():
    a = MultiPoly(UVS, {(2, 1, 1): 1})
    b = MultiPoly(UVS, {(2, 1, 0): 1}) * MultiPoly.variable(UVS, "s")
    assert (a - b).is_zero()
    assert dict((a - b).terms) == {}
    # a key repeated in the input cancels at construction
    assert dict(MultiPoly(S, [((1,), 1), ((0,), 2), ((1,), -1)]).terms) == {(0,): 2}


def test_mismatched_variable_lists_rejected():
    p = MultiPoly(("u", "s"), {(1, 0): 1})
    q = s_poly({1: 1})
    with pytest.raises(ValueError, match="mismatched"):
        p + q
    with pytest.raises(ValueError, match="mismatched"):
        p * q


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(S, {(-1,): 1})


def test_gcd_examples():
    cubic = s_poly({3: 1, 0: -1})
    assert poly_gcd(cubic, s_poly({2: 3})) == s_poly({0: 1})
    # gcd with zero returns the monic normalization
    assert poly_gcd(s_poly({2: 2, 0: -2}), MultiPoly(S)) == s_poly({2: 1, 0: -1})
    sq = s_poly({1: 1, 0: -1}) ** 2
    mixed = s_poly({1: 1, 0: -1}) * s_poly({1: 1, 0: 1})
    assert poly_gcd(sq, mixed) == s_poly({1: 1, 0: -1})


def test_squarefree_examples():
    cubic = s_poly({3: 1, 0: -1})
    assert squarefree_decomposition(cubic) == [(cubic, 1)]
    assert squarefree_decomposition(s_poly({2: 1, 1: -2, 0: 1})) == [
        (s_poly({1: 1, 0: -1}), 2)
    ]
    assert squarefree_decomposition(cubic ** 3) == [(cubic, 3)]


def test_squarefree_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_decomposition(MultiPoly(S))


def test_squarefree_constant_is_empty():
    assert squarefree_decomposition(s_poly({0: 5})) == []


def test_substitute_power():
    q = upoly("t", {1: 1, 0: -1}) ** 3
    assert substitute_power(q, 3, "s") == s_poly({9: 1, 6: -3, 3: 3, 0: -1})


def test_format_examples():
    assert format_poly(s_poly({3: 1, 0: -1})) == "s^3 - 1"
    assert format_poly(MultiPoly(S)) == "0"
    p = MultiPoly(UVS, {(2, 1, 0): F(-2, 3), (0, 0, 1): 1})
    assert format_poly(p) == "-2/3*u^2*v + s"


def test_parse_accepts_explicit_units():
    assert parse_poly("1*s^1 + 1", S) == s_poly({1: 1, 0: 1})
    assert parse_poly("0", S).is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("s^", S)
    with pytest.raises(ValueError):
        parse_poly("x + 1", S)
    with pytest.raises(ValueError):
        parse_poly("", S)


@given(small_multipolys(UVS), small_multipolys(UVS), small_multipolys(UVS))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_multipolys(UVS))
def test_format_parse_roundtrip(p):
    assert parse_poly(format_poly(p), UVS) == p


@given(small_upolys(), small_upolys())
def test_divmod_identity(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod(p, q)
        return
    quo, rem = poly_divmod(p, q)
    assert q * quo + rem == p
    assert degree(rem) < degree(q)


@given(small_upolys())
def test_squarefree_reconstruction(p):
    if p.is_zero():
        return
    product = MultiPoly.constant(S, leading_coefficient(p))
    for factor, mult in squarefree_decomposition(p):
        product = product * factor ** mult
    assert product == p


@given(small_upolys())
def test_gcd_degree_matches_multiplicity_excess(p):
    if p.is_zero():
        return
    g = poly_gcd(p, partial(p, "s"))
    expected = sum((mult - 1) * degree(f) for f, mult in squarefree_decomposition(p))
    assert degree(g) == max(expected, 0)


@given(small_upolys(), small_upolys(max_deg=3, max_terms=3))
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    assert poly_divmod(p, g)[1].is_zero()
    assert poly_divmod(q, g)[1].is_zero()
