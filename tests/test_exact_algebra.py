"""The tests' polynomial type, as far as the oracles built on it need it:
MultiPoly and its printer and parser, which read the package's printed
relations back; the arithmetic of every oracle that adds or multiplies
polynomials; and the division, gcd and Yun decomposition that read a
ring's smoothness and fibers."""

import pytest
from hypothesis import given

from helpers import (
    F,
    MultiPoly,
    degree,
    format_poly,
    leading_coefficient,
    parse_poly,
    partial,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow,
    poly_sub,
    small_multipolys,
    small_upolys,
    squarefree_decomposition,
    upoly,
)

S = ("s",)
UVS = ("u", "v", "s")


def s_poly(coeffs):
    return upoly("s", coeffs)


def test_difference_of_squares():
    s_minus = s_poly({1: 1, 0: -1})
    s_plus = s_poly({1: 1, 0: 1})
    assert poly_mul(s_minus, s_plus) == s_poly({2: 1, 0: -1})


def test_power_rule_partial():
    assert partial(s_poly({3: 1, 0: -1}), "s") == s_poly({2: 3})


def test_cancellation_to_zero():
    a = MultiPoly(UVS, {(2, 1, 1): 1})
    b = poly_mul(MultiPoly(UVS, {(2, 1, 0): 1}), MultiPoly(UVS, {(0, 0, 1): 1}))
    assert not poly_sub(a, b)
    assert dict(poly_sub(a, b).terms) == {}
    # a key repeated in the input cancels at construction
    assert dict(MultiPoly(S, [((1,), 1), ((0,), 2), ((1,), -1)]).terms) == {(0,): 2}


def test_mismatched_variable_lists_rejected():
    p = MultiPoly(("u", "s"), {(1, 0): 1})
    q = s_poly({1: 1})
    with pytest.raises(ValueError, match="mismatched"):
        poly_add(p, q)
    with pytest.raises(ValueError, match="mismatched"):
        poly_mul(p, q)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(S, {(-1,): 1})


def test_gcd_examples():
    cubic = s_poly({3: 1, 0: -1})
    assert poly_gcd(cubic, s_poly({2: 3})) == s_poly({0: 1})
    # gcd with zero returns the monic normalization
    assert poly_gcd(s_poly({2: 2, 0: -2}), MultiPoly(S)) == s_poly({2: 1, 0: -1})
    sq = poly_pow(s_poly({1: 1, 0: -1}), 2)
    mixed = poly_mul(s_poly({1: 1, 0: -1}), s_poly({1: 1, 0: 1}))
    assert poly_gcd(sq, mixed) == s_poly({1: 1, 0: -1})


def test_squarefree_examples():
    cubic = s_poly({3: 1, 0: -1})
    assert squarefree_decomposition(cubic) == [(cubic, 1)]
    assert squarefree_decomposition(s_poly({2: 1, 1: -2, 0: 1})) == [
        (s_poly({1: 1, 0: -1}), 2)
    ]
    assert squarefree_decomposition(poly_pow(cubic, 3)) == [(cubic, 3)]


def test_squarefree_zero_rejected():
    with pytest.raises(ValueError):
        squarefree_decomposition(MultiPoly(S))


def test_squarefree_constant_is_empty():
    assert squarefree_decomposition(s_poly({0: 5})) == []


def test_format_examples():
    assert format_poly(s_poly({3: 1, 0: -1})) == "s^3 - 1"
    assert format_poly(MultiPoly(S)) == "0"
    p = MultiPoly(UVS, {(2, 1, 0): F(-2, 3), (0, 0, 1): 1})
    assert format_poly(p) == "-2/3*u^2*v + s"


def test_parse_accepts_explicit_units():
    assert parse_poly("1*s^1 + 1", S) == s_poly({1: 1, 0: 1})
    assert not parse_poly("0", S)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("s^", S)
    with pytest.raises(ValueError):
        parse_poly("x + 1", S)
    with pytest.raises(ValueError):
        parse_poly("", S)


@given(small_multipolys(UVS), small_multipolys(UVS), small_multipolys(UVS))
def test_ring_axioms(p, q, r):
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))


@given(small_multipolys(UVS))
def test_format_parse_roundtrip(p):
    assert parse_poly(format_poly(p), UVS) == p


@given(small_upolys(), small_upolys())
def test_divmod_identity(p, q):
    if not q:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(p, q)
        return
    quo, rem = poly_divmod(p, q)
    assert poly_add(poly_mul(q, quo), rem) == p
    assert degree(rem) < degree(q)


@given(small_upolys())
def test_squarefree_reconstruction(p):
    if not p:
        return
    product = s_poly({0: leading_coefficient(p)})
    for factor, mult in squarefree_decomposition(p):
        product = poly_mul(product, poly_pow(factor, mult))
    assert product == p


@given(small_upolys())
def test_gcd_degree_matches_multiplicity_excess(p):
    if not p:
        return
    g = poly_gcd(p, partial(p, "s"))
    expected = sum((mult - 1) * degree(f) for f, mult in squarefree_decomposition(p))
    assert degree(g) == max(expected, 0)


@given(small_upolys(), small_upolys(max_deg=3, max_terms=3))
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if not g:
        assert not p and not q
        return
    assert not poly_divmod(p, g)[1]
    assert not poly_divmod(q, g)[1]
