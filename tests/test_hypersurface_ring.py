import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    F,
    derivation_apply,
    element,
    homogeneous_weight,
    oracle_leaves_ring,
    oracle_nilpotency_index,
    small_multipolys,
    upoly,
)

from pseudoplane import (
    HypersurfaceRing,
    MultiPoly,
    NonPolynomial,
    RingElement,
    SurfaceTriple,
    build_covering_ring,
    derivation_leaves_ring,
    divisor_to_poly,
    fiber_analysis,
    nilpotency_index,
    normal_form,
    normalize_power_relation,
    s_weight,
    smooth_check,
)


def s_pow_minus_1(d):
    return upoly("s", {d: 1, 0: -1})


def w_ring(m, d):
    """Normalized model u^m w - (s^d - 1)."""
    return HypersurfaceRing(m, s_pow_minus_1(d), "w")


def v_ring(k, d, m_prime):
    """Covering model u^k v - (s^d - 1)^m'."""
    return HypersurfaceRing(k, s_pow_minus_1(d) ** m_prime, "v")


T_MINUS_1 = upoly("t", {1: 1, 0: -1})


# -- construction ---------------------------------------------------------------


def test_ring_invariants():
    ring = w_ring(2, 3)
    assert ring.variables == ("u", "w", "s")
    with pytest.raises(ValueError):
        HypersurfaceRing(0, s_pow_minus_1(2))
    with pytest.raises(ValueError):
        HypersurfaceRing(2, MultiPoly(("s",)))


def test_build_covering_ring_examples():
    ring = build_covering_ring(6, 3, 2, -4, T_MINUS_1 ** 3)
    assert ring.P == s_pow_minus_1(3) ** 3
    assert ring.second_var == "v"
    ring = build_covering_ring(2, 2, 1, -1, T_MINUS_1)
    assert ring.P == s_pow_minus_1(2)
    # degenerate d=1 case: k*e' + d*l = 1 - 1 = 0, so P(s) = Q(s) = s - 1
    ring = build_covering_ring(1, 1, 1, -1, T_MINUS_1)
    assert ring.P == upoly("s", {1: 1, 0: -1})


def test_build_covering_ring_positive_exponent_accepted():
    ring = build_covering_ring(1, 1, 1, 0, T_MINUS_1)
    assert ring.P == upoly("s", {2: 1, 1: -1})


def test_build_covering_ring_errors():
    with pytest.raises(ValueError, match="negative s-exponent"):
        build_covering_ring(1, 1, 1, -2, T_MINUS_1)
    with pytest.raises(ValueError, match="monic"):
        build_covering_ring(2, 1, 1, 0, upoly("t", {1: 2}))
    with pytest.raises(ValueError, match="Q\\(0\\)"):
        build_covering_ring(2, 1, 1, 0, upoly("t", {2: 1, 1: 1}))


# -- rewriting ------------------------------------------------------------------


def test_normal_form_examples():
    ring = w_ring(2, 3)
    assert element(ring, "u^2*w*s").poly == element(ring, "s^4 - s").poly
    stays = ring.monomial(1, 1, 1)
    assert normal_form(ring, stays).poly == stays
    assert normal_form(ring, ring.monomial(4, 2, 0)).poly == (
        s_pow_minus_1(3) ** 2
    ).with_variables(ring.variables)


def test_normal_form_invariant():
    ring = w_ring(2, 3)
    nf = normal_form(ring, ring.monomial(5, 2, 1)).poly
    assert all(a < ring.k or b == 0 for (a, b, _) in nf.terms)


@given(small_multipolys(("u", "w", "s"), max_exp=4), small_multipolys(("u", "w", "s"), max_exp=4))
def test_normal_form_multiplicative(p, q):
    ring = w_ring(2, 3)
    direct = normal_form(ring, p * q)
    stepwise = normal_form(ring, normal_form(ring, p).poly * normal_form(ring, q).poly)
    assert direct == stepwise


@given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 6))
def test_normal_form_preserves_weight(a, b, c):
    ring = w_ring(2, 3)
    x = normal_form(ring, ring.monomial(a, b, c))
    if x.poly.is_zero():
        return
    assert homogeneous_weight(x) == a - ring.k * b


# -- smoothness and fibers --------------------------------------------------------


def test_smooth_check_examples():
    assert smooth_check(w_ring(2, 3)).smooth
    singular = smooth_check(HypersurfaceRing(6, s_pow_minus_1(3) ** 3, "v"))
    assert not singular.smooth
    assert singular.witness == ((s_pow_minus_1(3), 3),)
    assert smooth_check(HypersurfaceRing(1, upoly("s", {2: 1}), "v")).smooth


def test_fiber_analysis_examples():
    ring = w_ring(2, 3)
    assert fiber_analysis(ring, 1) == [(1, 1)]
    assert fiber_analysis(ring, F(-7, 2)) == [(1, 1)]
    assert fiber_analysis(ring, 0) == [(3, 1)]
    cubed = HypersurfaceRing(6, s_pow_minus_1(3) ** 3, "v")
    assert fiber_analysis(cubed, 0) == [(3, 3)]


# -- normalization ----------------------------------------------------------------


def test_normalize_examples():
    normalized, witness = normalize_power_relation(v_ring(6, 3, 3), 2, 3)
    assert normalized == w_ring(2, 3)
    assert witness.power_identity and witness.normalized_smooth

    normalized, witness = normalize_power_relation(v_ring(2, 2, 1), 2, 2)
    assert normalized == w_ring(2, 2)
    assert witness.power_identity and witness.normalized_smooth

    normalized, witness = normalize_power_relation(v_ring(6, 2, 2), 3, 2)
    assert normalized == w_ring(3, 2)
    assert witness.power_identity and witness.normalized_smooth


def test_normalize_accepts_matching_ring():
    # the covering ring the pipeline builds for (d, e, m) = (3, 2, 2)
    triple = SurfaceTriple(3, 2, 2)
    _, q = divisor_to_poly(triple.pair.d_minus, triple.k)
    ring = build_covering_ring(triple.k, 3, triple.e_prime, triple.l, q)
    normalized, witness = normalize_power_relation(ring, 2, 3)
    assert normalized == w_ring(2, 3) and witness.power_identity


def test_normalize_errors():
    ring = v_ring(6, 3, 3)
    with pytest.raises(ValueError, match="k must equal"):
        normalize_power_relation(ring, 4, 3)
    for m, d in ((0, 3), (2, 0)):
        with pytest.raises(ValueError, match="positive integers"):
            normalize_power_relation(ring, m, d)
    with pytest.raises(ValueError, match="general Q normalization unsupported"):
        normalize_power_relation(v_ring(6, 2, 3), 2, 3)
    # right polynomial, wrong m: m' = 2 would need (s^3 - 1)^2
    with pytest.raises(ValueError, match="general Q normalization unsupported"):
        normalize_power_relation(ring, 3, 3)


# -- derivation -------------------------------------------------------------------


def test_derivation_examples():
    ring = w_ring(2, 3)
    us = element(ring, "u*s")
    out = derivation_apply(ring, 2, us)
    assert isinstance(out, RingElement) and out.poly == element(ring, "u^3").poly
    assert derivation_leaves_ring(ring, 2, us) is None

    ws = element(ring, "w*s")
    out = derivation_apply(ring, 2, ws)
    assert isinstance(out, RingElement)
    assert out.poly == element(ring, "4*s^3 - 1").poly
    assert derivation_leaves_ring(ring, 2, ws) is None


def test_derivation_non_polynomial():
    ring = w_ring(3, 2)
    x = element(ring, "w*s")
    out = derivation_apply(ring, 1, x)
    assert isinstance(out, NonPolynomial)
    assert "u^-2" in out.monomial
    assert derivation_leaves_ring(ring, 1, x) == out


DERIVATION_ENTRY_POINTS = (derivation_leaves_ring, nilpotency_index)


def test_derivation_rejects_non_normalized_shape():
    ring = HypersurfaceRing(6, s_pow_minus_1(3) ** 3, "v")
    for entry in DERIVATION_ENTRY_POINTS:
        with pytest.raises(ValueError, match="normalized shape"):
            entry(ring, 2, element(ring, "s"))


@pytest.mark.parametrize("degree", [0, -1, 2.0, None])
def test_derivation_rejects_bad_degree(degree):
    ring = w_ring(2, 3)
    for entry in DERIVATION_ENTRY_POINTS:
        with pytest.raises(ValueError, match="derivation degree"):
            entry(ring, degree, element(ring, "s"))


def test_derivation_rejects_foreign_element():
    ring, other = w_ring(2, 3), w_ring(3, 3)
    for entry in DERIVATION_ENTRY_POINTS:
        with pytest.raises(ValueError, match="different ring"):
            entry(ring, 2, element(other, "s"))


def test_nilpotency_examples():
    ring = w_ring(2, 3)
    assert nilpotency_index(ring, 2, element(ring, "u*s")) == 2
    assert nilpotency_index(ring, 2, element(ring, "1")) == 1
    x = element(ring, "u*w*s^2")
    n = nilpotency_index(ring, 2, x)
    assert n is not None and n <= 1 + s_weight(x) == 1 + 5


def test_nilpotency_fail_is_none():
    ring = w_ring(3, 2)
    assert nilpotency_index(ring, 1, element(ring, "w*s")) is None


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 5),
    small_multipolys(("u", "w", "s"), max_exp=4, max_terms=4),
)
def test_laurent_certificate_matches_normal_form_oracle(m, d, e, p):
    ring = w_ring(m, d)
    x = normal_form(ring, p)
    assert derivation_leaves_ring(ring, e, x) == oracle_leaves_ring(ring, e, x)
    assert nilpotency_index(ring, e, x) == oracle_nilpotency_index(ring, e, x)


@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 4), st.integers(1, 4))
def test_derivation_raises_weight_by_degree(a, b, c, e):
    ring = w_ring(2, 3)
    x = normal_form(ring, ring.monomial(a, b, c))
    out = derivation_apply(ring, e, x)
    if isinstance(out, NonPolynomial) or out.poly.is_zero():
        return
    assert homogeneous_weight(out) == homogeneous_weight(x) + e


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 4)),
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 4)),
    st.integers(1, 4),
)
def test_derivation_leibniz(exps_x, exps_y, e):
    ring = w_ring(2, 3)
    x = normal_form(ring, ring.monomial(*exps_x))
    y = normal_form(ring, ring.monomial(*exps_y))
    dx = derivation_apply(ring, e, x)
    dy = derivation_apply(ring, e, y)
    dxy = derivation_apply(ring, e, normal_form(ring, x.poly * y.poly))
    if any(isinstance(v, NonPolynomial) for v in (dx, dy, dxy)):
        return
    assert dxy == normal_form(ring, dx.poly * y.poly + x.poly * dy.poly)


def test_s_weight_drops_under_derivation():
    ring = w_ring(2, 3)
    x = element(ring, "u*w^2*s^4")
    weight = s_weight(x)
    out = derivation_apply(ring, 2, x)
    assert isinstance(out, RingElement)
    assert s_weight(out) < weight


@given(st.integers(1, 4), st.integers(1, 4))
def test_normalized_ring_always_smooth(m, d):
    assert smooth_check(w_ring(m, d)).smooth
