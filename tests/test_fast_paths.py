"""Fast paths against the slow paths they replaced, and the bounds on the
memo caches."""

import importlib
import math
import pkgutil
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    F,
    _from_localization,
    assert_clean,
    derivation_apply,
    dpd_pairs,
    grid_triples,
    oracle_add,
    oracle_hilbert_basis,
    oracle_leaves_ring,
    oracle_mul,
    oracle_measured_defect,
    oracle_nilpotency_index,
    oracle_normal_form,
    oracle_product_defect,
    relation,
    small_fractions,
    small_multipolys,
    small_upolys,
    upoly,
)

import pseudoplane
from pseudoplane import (
    CyclicAction,
    HypersurfaceRing,
    MultiPoly,
    NonPolynomial,
    StructuralError,
    SurfaceTriple,
    derivation_leaves_ring,
    divisor_to_poly,
    find_valid_lnd_degrees,
    hilbert_basis,
    monomial_element,
    nilpotency_index,
    normal_form,
    normalized_ring,
    poly_divmod,
    poly_gcd,
    product_defect,
    product_structure_check,
    standard_action,
    sweep,
    verify_triple,
    weight_piece_generator,
)

UVS = ("u", "v", "s")
UWS = ("u", "w", "s")


@given(small_multipolys(UVS), small_multipolys(UVS))
def test_add_and_mul_match_validated_oracles(p, q):
    # (p + q) * (p - q) cancels the cross terms p*q - q*p
    cancelling = ((p + q) * (p - q), oracle_mul(oracle_add(p, q), oracle_add(p, -q)))
    for got, want in ((p + q, oracle_add(p, q)), (p * q, oracle_mul(p, q)), cancelling):
        assert got == want
        assert_clean(got)
    assert -p == oracle_mul(p, MultiPoly.constant(UVS, -1))
    for got in (-p, p - q, p.partial("u"), p.partial("s"), p ** 2):
        assert_clean(got)


@given(small_multipolys(UVS), small_fractions())
def test_scalar_mul_matches_oracle(p, c):
    got = p * c
    assert got == oracle_mul(p, MultiPoly.constant(UVS, c))
    assert_clean(got)
    assert_clean(c * p)


@given(small_upolys(), small_upolys())
def test_divmod_results_are_clean(p, q):
    if q.is_zero():
        return
    for part in poly_divmod(p, q):
        assert_clean(part)
    assert_clean(p.monic())


_rings = st.builds(
    lambda k, P: HypersurfaceRing(k, P, "v"),
    st.integers(1, 3),
    small_upolys(max_deg=3).filter(lambda P: not P.is_zero()),
)


@given(_rings, small_multipolys(UVS, max_exp=5, max_terms=6))
def test_normal_form_matches_term_by_term_oracle(ring, p):
    got = normal_form(ring, p).poly
    assert got == oracle_normal_form(ring, p)
    assert_clean(got)
    # every multiple of the relation rewrites to zero, term by term cancelling
    assert normal_form(ring, p * relation(ring)).poly.is_zero()


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    small_multipolys(UWS, max_exp=4, max_terms=4),
)
def test_derivation_images_are_clean(m, d, e, p):
    ring = HypersurfaceRing(m, MultiPoly(("s",), {(d,): 1, (0,): -1}), "w")
    image = derivation_apply(ring, e, normal_form(ring, p))
    if not isinstance(image, NonPolynomial):
        assert_clean(image.poly)


@given(st.integers(1, 3), st.integers(1, 4), small_multipolys(UWS, max_exp=4, max_terms=4))
def test_localization_round_trip_is_the_normal_form(m, d, p):
    from pseudoplane.hypersurface_ring import _normalized_ring, _to_localization

    ring = _normalized_ring(m, d)
    back = _from_localization(ring, _to_localization(ring, p))
    assert back.poly == normal_form(ring, p).poly


def _memo_caches():
    found = {}
    for info in pkgutil.iter_modules(pseudoplane.__path__):
        module = importlib.import_module(f"pseudoplane.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters"):
                found[f"{info.name}.{name}"] = obj
            assert not (isinstance(obj, dict) and "cache" in name), (
                f"{info.name}.{name} is an unbounded dict cache"
            )
    return found


def test_every_memo_cache_is_bounded():
    caches = _memo_caches()
    assert {
        "hypersurface_ring._pure_power_base",
        "hypersurface_ring._rhs_power",
        "hypersurface_ring._normalized_ring",
        "dpd_presentation._support",
        "dpd_presentation._piece_row",
    } <= set(caches)
    for name, cache in caches.items():
        maxsize = cache.cache_parameters()["maxsize"]
        assert isinstance(maxsize, int) and maxsize > 0, name


def test_hilbert_basis_returns_a_fresh_list():
    action = CyclicAction(5, {"u": 1, "w": -3, "s": 2})
    first = hilbert_basis(action)
    first.append((0, 0, 0))
    second = hilbert_basis(action)
    assert (0, 0, 0) not in second
    assert second is not hilbert_basis(action)


def test_hilbert_basis_follows_the_weight_order():
    forward = CyclicAction(5, {"u": 1, "w": -3, "s": 2})
    backward = CyclicAction(5, {"s": 2, "w": -3, "u": 1})
    reordered = sorted(tuple(reversed(v)) for v in hilbert_basis(forward))
    assert hilbert_basis(backward) == reordered


def test_hilbert_basis_matches_the_quadratic_filter():
    for d in range(1, 8):
        for wts in product(range(d), repeat=3):
            action = CyclicAction(d, dict(zip(UWS, wts)))
            assert hilbert_basis(action) == list(oracle_hilbert_basis(d, wts))


@pytest.mark.parametrize("d", [21, 33, 43])
def test_hilbert_basis_matches_the_quadratic_filter_at_large_d(d):
    # the standard actions of the benchmark's large_d triples with this d
    m = 3 + (d - 21) // 2 % 7
    for e in (d - 1, d - 2):
        action = standard_action(SurfaceTriple(d, e, m))
        wts = tuple(action.weights.values())
        assert hilbert_basis(action) == list(oracle_hilbert_basis(d, wts))


@pytest.mark.parametrize("d", [8, 9, 10, 12])
def test_hilbert_basis_matches_the_quadratic_filter_for_non_invertible_last_weight(d):
    # gcd(w2, d) > 1: the congruence for the last coordinate is solvable only
    # for some (a, b), and its solutions repeat with period d / gcd(w2, d)
    for w2 in [w for w in range(d) if math.gcd(w, d) > 1]:
        for m in range(1, 5):
            action = CyclicAction(d, {"u": 1, "w": -m, "s": w2})
            wts = tuple(action.weights.values())
            assert hilbert_basis(action) == list(oracle_hilbert_basis(d, wts))


def _assert_int_coefficients(p):
    assert p.terms and all(type(c) is int for c in p.terms.values()), p


def test_pipeline_coefficients_stay_int():
    from pseudoplane.hypersurface_ring import _pure_power_base, _rhs_power

    for d in range(1, 7):
        for j in range(7):
            _assert_int_coefficients(_rhs_power(_pure_power_base(d), j))
    triple = SurfaceTriple(3, 2, 2)
    ring = normalized_ring(triple)
    g1 = ring.monomial(*weight_piece_generator(triple, -5))
    g2 = ring.monomial(*weight_piece_generator(triple, 3))
    _assert_int_coefficients(normal_form(ring, g1 * g2).poly)
    images = [
        derivation_apply(ring, 2, monomial_element(ring, g))
        for g in hilbert_basis(standard_action(triple))
    ]
    assert not any(isinstance(x, NonPolynomial) for x in images)
    for x in images:
        if not x.poly.is_zero():
            _assert_int_coefficients(x.poly)
    _assert_int_coefficients(divisor_to_poly(triple.pair.d_minus, triple.k)[1])


def test_division_promotes_to_fraction_not_float():
    s = upoly("s", {1: 1})
    quo, rem = poly_divmod(2 * s ** 3 + 1, 3 * s)
    assert quo.terms == {(2,): Fraction(2, 3)}
    assert type(quo.terms[(2,)]) is Fraction
    assert rem == 1 and type(rem.terms[(0,)]) is int
    half = (2 * s + 1).monic()
    assert half == s + Fraction(1, 2)
    assert_clean(half)


_int_upolys = st.dictionaries(st.integers(0, 5), st.integers(-5, 5), max_size=4).map(
    lambda d: upoly("s", d)
)


@given(_int_upolys, _int_upolys)
def test_integer_inputs_never_give_floats(p, q):
    for ring_op in (p + q, p * q, p ** 3):
        assert all(type(c) is int for c in ring_op.terms.values())
    results = [p.monic(), poly_gcd(p, q)]
    if q:
        results.extend(poly_divmod(p, q))
    for got in results:
        assert_clean(got)


@pytest.mark.parametrize("d, e, m", [(True, True, 2), (3, True, 2), (3, 2, True), (3.0, 2, 2)])
def test_non_int_parameters_rejected(d, e, m):
    with pytest.raises(ValueError):
        verify_triple(d, e, m)
    with pytest.raises(ValueError):
        SurfaceTriple(d, e, m)


@pytest.mark.parametrize("bad", [True, False, 2.5, 10.0, "3", None])
def test_non_int_bounds_rejected(bad):
    for name in ("max_weight", "max_exponent"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            verify_triple(3, 2, 2, **{name: bad})
    with pytest.raises(ValueError, match="d_max must be an integer"):
        sweep(bad, 1)
    with pytest.raises(ValueError, match="m_max must be an integer"):
        sweep(1, bad)


def test_cached_constants_are_shared_not_rebuilt():
    from pseudoplane.hypersurface_ring import _normalized_ring, _pure_power_base, _rhs_power

    assert _pure_power_base(4) is _pure_power_base(4)
    assert _pure_power_base(4) == MultiPoly(("s",), {(4,): F(1), (0,): F(-1)})
    assert _rhs_power(_pure_power_base(3), 2) == _pure_power_base(3) * _pure_power_base(3)
    assert _rhs_power(_pure_power_base(3), 2) is _rhs_power(_pure_power_base(3), 2)
    assert _normalized_ring(2, 3) is _normalized_ring(2, 3)
    assert _normalized_ring(2, 3).P is _pure_power_base(3)


@given(dpd_pairs(), st.integers(-12, 12), st.integers(-12, 12))
def test_product_defect_matches_fraction_keyed_oracle(pair, n, n_prime):
    # (n, n'), a zero factor on either side, and a zero total weight
    for a, b in ((n, n_prime), (0, n), (n, 0), (n, -n)):
        got = product_defect(pair, a, b)
        want = oracle_product_defect(pair, a, b)
        assert list(got.items()) == list(want.items())
        for p in got:
            assert type(p) is (int if F(p).denominator == 1 else Fraction)


def test_product_structure_sides_match_oracles_across_grid():
    for d, e, m in grid_triples():
        triple = SurfaceTriple(d, e, m)
        for n, n_prime in product(range(-4, 5), repeat=2):
            check = product_structure_check(triple, n, n_prime)
            assert check.measured == oracle_measured_defect(triple, n, n_prime)
            assert check.predicted == oracle_product_defect(triple.pair, n, n_prime)
            assert all(type(p) is int for p in (*check.measured, *check.predicted))


def test_lnd_certificate_matches_normal_form_oracle_across_grid():
    # every degree of the least search window, in the congruence class or
    # not, so that both verdicts and the witnesses are compared
    for d, e, m in grid_triples():
        triple = SurfaceTriple(d, e, m)
        ring = normalized_ring(triple)
        basis = hilbert_basis(standard_action(triple))
        generators = [monomial_element(ring, g) for g in basis]
        pieces = [
            monomial_element(ring, weight_piece_generator(triple, n)) for n in range(-8, 9)
        ]
        valid = []
        for degree in range(1, m + d + 1):
            leaves = [oracle_leaves_ring(ring, degree, x) for x in generators]
            indices = [oracle_nilpotency_index(ring, degree, x) for x in pieces]
            assert [derivation_leaves_ring(ring, degree, x) for x in generators] == leaves
            assert [nilpotency_index(ring, degree, x) for x in pieces] == indices
            if degree % d == e % d and all(v is None for v in leaves) and None not in indices:
                valid.append(degree)
        assert find_valid_lnd_degrees(triple, m + d) == valid, (d, e, m)


def _shift_c(generator):
    def shifted(triple, n):
        a, b, c = generator(triple, n)
        return a, b, c + 1

    return shifted


def _break_ab(generator):
    def broken(triple, n):
        a, b, c = generator(triple, n)
        return a + 1, b, c

    return broken


def _doubled_power(power):
    return lambda p, j: 2 * power(p, j)


@pytest.mark.parametrize(
    "target, fault, message",
    [
        (
            "weight_piece_generator",
            _break_ab,
            "product of weight pieces 1, -1 is not a multiple of the weight-0 "
            "generator: term u^2*w^0*s^6 vs generator (1, 0, 0)",
        ),
        (
            "weight_piece_generator",
            _shift_c,
            "residual factor s^7 - s^4 is not of the form (s^d)^kappa*(s^d-1)^lam",
        ),
        (
            "_rhs_power",
            _doubled_power,
            "residual factor s^6 - s^3 does not factor as s^3*(s^3-1)^1",
        ),
    ],
)
def test_product_check_faults_raise_structural_error(monkeypatch, target, fault, message):
    from pseudoplane import cyclic_quotient

    monkeypatch.setattr(cyclic_quotient, target, fault(getattr(cyclic_quotient, target)))
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        product_structure_check(SurfaceTriple(3, 2, 2), 1, -1)


def test_hand_built_normalized_ring_is_accepted():
    from pseudoplane.hypersurface_ring import _normalized_ring, s_weight

    cached = _normalized_ring(2, 3)
    hand_built = HypersurfaceRing(2, MultiPoly(("s",), {(3,): 1, (0,): -1}), "w")
    assert hand_built.P is not cached.P and hand_built.P == cached.P
    for exps in [(1, 0, 2), (0, 1, 1), (3, 0, 0)]:
        want = normal_form(cached, cached.monomial(*exps))
        got = normal_form(hand_built, hand_built.monomial(*exps))
        for e in (1, 2):
            for entry in (derivation_leaves_ring, nilpotency_index):
                assert entry(hand_built, e, got) == entry(cached, e, want)
    assert s_weight(normal_form(hand_built, hand_built.monomial(0, 1, 1))) == 4
    other = HypersurfaceRing(2, MultiPoly(("s",), {(3,): 1, (0,): -2}), "w")
    x = normal_form(other, other.monomial(0, 0, 1))
    for entry in (derivation_leaves_ring, nilpotency_index):
        with pytest.raises(ValueError, match="not in the normalized shape"):
            entry(other, 2, x)


def test_equal_pairs_hash_equal():
    pair, twin = SurfaceTriple(5, 2, 3).pair, SurfaceTriple(5, 2, 3).pair
    assert pair == twin and pair is not twin
    assert hash(pair) == hash(twin) == hash((pair.d_plus, pair.d_minus))
