"""Fast paths against the slow paths they replaced, and the bounds on the
memo caches."""

import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, product
from operator import le, lt
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    F,
    StructuralError,
    assert_clean,
    degree,
    derivation_leaves_ring,
    dpd_pairs,
    factored_roots,
    first_failing_pair,
    graded_piece,
    grid_triples,
    hilbert_basis,
    induced_action,
    monic,
    monomial,
    nilpotency_index,
    nonpositive_divisors,
    normal_form,
    normalized_ring,
    oracle_canonical_pair,
    oracle_divisor_floor,
    oracle_divisor_fract,
    oracle_divisor_neg,
    oracle_divisor_roots,
    oracle_divisor_sum,
    oracle_first_failing_weight,
    oracle_format_divisor,
    oracle_fraction_ml1_test,
    oracle_freeness_check,
    oracle_hilbert_basis,
    oracle_lnd_degrees,
    oracle_negative_locus,
    oracle_pair_total,
    oracle_power_identity,
    oracle_qdivisor_coefficients,
    partial,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow,
    product_structure_check,
    record_rings,
    s_weight,
    small_divisors,
    small_upolys,
    surface_triples,
    upoly,
    witness_factors,
    yun_reading,
)

import pseudoplane
from pseudoplane import (
    CyclicAction,
    DpdPair,
    HypersurfaceRing,
    QDivisor,
    RegimeError,
    SurfaceTriple,
    canonical_pair,
    divisor_roots,
    find_valid_lnd_degrees,
    fiber_analysis,
    floor_div,
    format_divisor,
    fract_div,
    freeness_check,
    ml1_test,
    negative_locus,
    product_window,
    smooth_check,
    standard_action,
    sweep,
    verify_triple,
    weight_piece_generator,
)
from pseudoplane.hypersurface_ring import _RELATION_MEMO_SIZE, _relation_terms

UWS = ("u", "w", "s")


@given(small_upolys(), small_upolys())
def test_divmod_results_are_clean(p, q):
    assert_clean(partial(p, "s"))
    if not q:
        return
    for part in poly_divmod(p, q):
        assert_clean(part)
    assert_clean(monic(p))


def _memo_caches():
    """{module.name: memo} of every memo the package defines, each named
    by the module that defines it, not by the modules that import it."""
    found = {}
    for info in pkgutil.iter_modules(pseudoplane.__path__):
        module = importlib.import_module(f"pseudoplane.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
            assert not (isinstance(obj, dict) and "cache" in name), (
                f"{info.name}.{name} is an unbounded dict cache"
            )
    return found


def test_every_memo_cache_is_bounded():
    # the ring facts are read off the factored relation; the one memo is the
    # relation printer's, with a fixed finite size, and _memo_caches finds no
    # unbounded dict cache either
    caches = _memo_caches()
    assert set(caches) == {"hypersurface_ring._format_relation"}
    assert caches["hypersurface_ring._format_relation"].cache_parameters() == {
        "maxsize": _RELATION_MEMO_SIZE,
        "typed": False,
    }
    assert _RELATION_MEMO_SIZE == 64


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


@pytest.mark.parametrize("d", [101, 201, 800])
def test_hilbert_basis_is_a_minimal_invariant_cover_at_large_d(d):
    # the bases that oracle_lnd_degrees reads in
    # test_lnd_search_matches_the_full_basis_loop_at_large_d, where the
    # quadratic filter cannot run: every generator is invariant and in the
    # box [0, d]^3, no generator lies below another, the two generators that
    # the LND lemma names are in the basis, and every invariant point of the
    # box lies above some generator.  Those three properties define the
    # basis.  The last is checked on the least invariant point over each
    # (a, b), as every other invariant point lies above one of those
    inf = d + 1
    for e in (1, d - 1):
        for m in (2, d - 1):
            triple = SurfaceTriple(d, e, m)
            action = standard_action(triple)
            w0, w1, w2 = action.weights.values()
            basis = hilbert_basis(action)
            assert all((a * w0 + b * w1 + c * w2) % d == 0 for a, b, c in basis)
            assert min(map(min, basis)) >= 0 and max(map(max, basis)) <= d
            assert (0, 0, d) in basis and (0, 1, m * triple.e_prime % d) in basis
            rows = {}  # a -> {b: c} over the generators (a, b, c)
            for a, b, c in basis:
                rows.setdefault(a, {})[b] = c
            assert sum(map(len, rows.values())) == len(basis)  # distinct (a, b)
            # (a, b, c) is invariant iff c = -(a*w0 + b*w1)/w2 (mod d), as e
            # is a unit mod d; along a row, the least such c falls by
            # w1/w2 (mod d) per step of b, here read as a step in [d, 2d)
            inverse = pow(w2, -1, d)
            fall = w1 * inverse % d + d
            # least[b] is the least c of a generator (a', b', c) with a' < a
            # and b' <= b, inf for none
            least = [inf] * (d + 1)
            for a in range(d + 1):
                row, check = [inf] * (d + 1), [-1] * (d + 1)
                for b, c in rows.get(a, {}).items():
                    row[b] = check[b] = c
                through = list(map(min, least, accumulate(row, min)))
                # a generator (a, b, c) lies below no other iff c is less
                # than every c over (a' < a, b' <= b) and (a' <= a, b' < b)
                assert all(map(lt, check, map(min, least, [inf, *through[:-1]]))), (d, e, m, a)
                start = -a * w0 * inverse
                lowest = list(map(d.__rmod__, range(start, start - fall * (d + 1), -fall)))
                if a == 0:
                    lowest[0] = d  # (0, 0, 0) is not a point of the monoid
                assert all(map(le, through, lowest)), (d, e, m, a)
                least = through


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


def _assert_int_relation(ring):
    terms = _relation_terms(ring.d, ring.roots)
    assert terms and all(type(c) is int for _, c in terms), terms


def test_pipeline_coefficients_stay_int():
    for d in range(1, 7):
        for j in range(7):
            _assert_int_relation(HypersurfaceRing(1, d, ((1, j),) if j else ()))
    triple = SurfaceTriple(3, 2, 2)
    ring = normalized_ring(triple)
    g1 = monomial(ring, *weight_piece_generator(triple, -5))
    g2 = monomial(ring, *weight_piece_generator(triple, 3))
    _assert_int_coefficients(normal_form(ring, poly_mul(g1, g2)).poly)
    # the points of -k*D- are Fractions; the ring stores the integral ones as int
    roots = divisor_roots(triple.pair.d_minus, triple.k)[1]
    _assert_int_relation(HypersurfaceRing(triple.k, triple.d, roots))


def test_division_promotes_to_fraction_not_float():
    quo, rem = poly_divmod(upoly("s", {3: 2, 0: 1}), upoly("s", {1: 3}))
    assert quo.terms == {(2,): Fraction(2, 3)}
    assert type(quo.terms[(2,)]) is Fraction
    assert rem == upoly("s", {0: 1}) and type(rem.terms[(0,)]) is int
    half = monic(upoly("s", {1: 2, 0: 1}))
    assert half == upoly("s", {1: 1, 0: Fraction(1, 2)})
    assert_clean(half)


_int_upolys = st.dictionaries(st.integers(0, 5), st.integers(-5, 5), max_size=4).map(
    lambda d: upoly("s", d)
)


@given(_int_upolys, _int_upolys)
def test_integer_inputs_never_give_floats(p, q):
    for ring_op in (poly_add(p, q), poly_mul(p, q), poly_pow(p, 3)):
        assert all(type(c) is int for c in ring_op.terms.values())
    results = [monic(p), poly_gcd(p, q)]
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


# the benchmark's large_d pool: odd d in 21..43, e in {d - 1, d - 2}
LARGE_D = [
    (d, e, 3 + i % 7) for i, d in enumerate(range(21, 44, 2)) for e in (d - 1, d - 2)
]


@given(
    st.integers(1, 7),
    st.integers(1, 6),
    st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(0, 5)),
    st.integers(1, 11),
)
def test_lnd_rule_matches_laurent_membership(d, m, exps, degree):
    from pseudoplane.cyclic_quotient import _keeps_ring

    ring = HypersurfaceRing(m, d, ((1, 1),), "w")
    x = normal_form(ring, monomial(ring, *exps))
    assert _keeps_ring(exps, degree, m) == (derivation_leaves_ring(ring, degree, x) is None)


@given(surface_triples(d_max=12, m_max=60), st.data())
def test_bisected_lnd_search_matches_the_loop_over_every_degree(triple, data):
    bound = data.draw(st.integers(triple.m + triple.d, 200))
    assert find_valid_lnd_degrees(triple, bound) == oracle_lnd_degrees(triple, bound)


@pytest.mark.parametrize("d", [101, 201, 800])
def test_lnd_search_matches_the_full_basis_loop_at_large_d(d):
    # e = 1 gives the largest basis, (d + 1)(d + 2)/2 generators at m = d - 1
    for e in (1, d - 1):
        for m in (2, d - 1):
            triple = SurfaceTriple(d, e, m)
            bound = m + 2 * d
            assert find_valid_lnd_degrees(triple, bound) == oracle_lnd_degrees(
                triple, bound
            ), (d, e, m)


def test_lnd_search_runs_the_rule_on_one_generator(monkeypatch):
    from pseudoplane import cyclic_quotient

    rule = cyclic_quotient._keeps_ring
    generators = []

    def counted(generator, degree, m):
        generators.append(generator)
        return rule(generator, degree, m)

    monkeypatch.setattr(cyclic_quotient, "_keeps_ring", counted)
    for d, e, m in [(800, 1, 799), (1, 1, 750000)]:
        generators.clear()
        report = verify_triple(d, e, m, max_weight=0, max_exponent=4096)
        assert report["verdict"] != "inconsistent"
        # the candidate degrees that the search bisects
        degrees = range((e - 1) % d + 1, max(4096, m + d) + 1, d)
        assert set(generators) == {(0, 1, m * report["derived"]["e_prime"] % d)}
        assert len(generators) <= len(degrees).bit_length() + 1, (d, e, m)


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


def _shift_b(generator):
    def shifted(triple, n):
        a, b, c = generator(triple, n)
        return a, b + 1, c

    return shifted


def _shift_c_by_dn(generator):
    # every product of generators keeps its cofactor, as the shifts of n,
    # n' and n + n' cancel, but (I1) breaks at every weight n != 0
    def shifted(triple, n):
        a, b, c = generator(triple, n)
        return a, b, c + triple.d * n

    return shifted


def _raise_c_at_zero(generator):
    # only the weight-0 generator moves, so the product falls below it
    def raised(triple, n):
        a, b, c = generator(triple, n)
        return a, b, c + 2 * triple.d * (n == 0)

    return raised


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
            "residual factor s^4*(s^3-1)^1 is not of the form (s^d)^kappa*(s^d-1)^lam",
        ),
        (
            "weight_piece_generator",
            _raise_c_at_zero,
            "product of weight pieces 1, -1 is not a multiple of the weight-0 "
            "generator: term u^0*w^0*s^3 vs generator (0, 0, 6)",
        ),
    ],
)
def test_product_check_faults_raise_structural_error(monkeypatch, target, fault, message):
    from pseudoplane import cyclic_quotient

    monkeypatch.setattr(cyclic_quotient, target, fault(getattr(cyclic_quotient, target)))
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        product_structure_check(SurfaceTriple(3, 2, 2), 1, -1)


@given(
    surface_triples(),
    st.integers(0, 12),
    st.sampled_from([None, _break_ab, _shift_b, _shift_c, _raise_c_at_zero]),
)
def test_product_window_fails_where_the_per_pair_oracle_first_fails(triple, max_weight, fault):
    # under no fault, under each generator fault of the test above, and one
    # that moves only b, product_window fails iff the per-pair oracle finds a
    # pair that raises or mismatches.  The fault c + d*n, which fails only
    # the weights, is left to test_passing_weights_imply_every_pair_passes.
    from pseudoplane import cyclic_quotient

    with pytest.MonkeyPatch.context() as patch:
        if fault is not None:
            generator = cyclic_quotient.weight_piece_generator
            patch.setattr(cyclic_quotient, "weight_piece_generator", fault(generator))
        window = product_window(triple, max_weight)
        pair = first_failing_pair(triple, max_weight)
        assert (window is None) == (pair is None) == (fault is None)


def test_hand_built_normalized_ring_is_accepted(monkeypatch):
    # the normalized model the pipeline builds, and one written by hand with
    # its point as a Fraction
    rings = record_rings(monkeypatch)
    verify_triple(3, 2, 2)
    _, built = rings
    hand_built = HypersurfaceRing(2, 3, ((F(1), 1),), "w")
    assert hand_built is not built and hand_built == built
    assert hand_built.serialize() == built.serialize()
    for exps in [(1, 0, 2), (0, 1, 1), (3, 0, 0)]:
        want = normal_form(built, monomial(built, *exps))
        got = normal_form(hand_built, monomial(hand_built, *exps))
        for e in (1, 2):
            for entry in (derivation_leaves_ring, nilpotency_index):
                assert entry(hand_built, e, got) == entry(built, e, want)
    assert s_weight(normal_form(hand_built, monomial(hand_built, 0, 1, 1))) == 4
    other = HypersurfaceRing(2, 3, ((2, 1),), "w")
    x = normal_form(other, monomial(other, 0, 0, 1))
    for entry in (derivation_leaves_ring, nilpotency_index):
        with pytest.raises(ValueError, match="not in the normalized shape"):
            entry(other, 2, x)


def test_pairs_compare_by_value_and_triples_hash_by_input():
    # no memo keys on a divisor, so divisors and pairs are unhashable; a
    # triple compares and hashes by (d, e, m), from which its pair derives
    pair, twin = SurfaceTriple(5, 2, 3).pair, SurfaceTriple(5, 2, 3).pair
    assert pair == twin and pair is not twin
    for value in (pair, pair.d_plus):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    triples = {SurfaceTriple(5, 2, 3), SurfaceTriple(5, 2, 3), SurfaceTriple(5, 3, 3)}
    assert len(triples) == 2 and SurfaceTriple(5, 2, 3) in triples


@pytest.mark.parametrize(
    "plus, minus, first",
    [
        # a third point: an integral coefficient has defect 0 there, a
        # half-integral one defect 1 where n and n' are both odd
        ({2: F(1)}, {2: F(-1)}, None),
        ({2: F(1, 2)}, {2: F(-1, 2)}, (-3, -3)),
        # a wrong coefficient at 1 or at 0: lam or kappa is mispredicted
        ({}, {1: F(-1, 2)}, (-4, 1)),
        ({0: F(1, 3)}, {0: F(-1, 3)}, (-4, -4)),
    ],
)
def test_product_window_against_grafted_pairs(plus, minus, first):
    # no triple builds a pair other than its family's, so graft one on
    triple = SurfaceTriple(3, 2, 2)
    pair = DpdPair(triple.pair.d_plus + QDivisor(plus), triple.pair.d_minus + QDivisor(minus))
    object.__setattr__(triple, "pair", pair)
    assert first_failing_pair(triple, 4) == first
    # each graft breaks a weight identity already at the first weight, -2W
    assert product_window(triple, 4) == -8


def test_product_window_reads_a_point_of_d_plus_alone():
    # D+ gains -[2] and D- has no point 2, so D+ has as many points as
    # D-, and only the weights n >= 0 see the point: its exponent there is
    # n, which first breaks the support at weight 1
    triple = SurfaceTriple(3, 2, 2)
    pair = DpdPair(triple.pair.d_plus + QDivisor({2: F(-1)}), triple.pair.d_minus)
    object.__setattr__(triple, "pair", pair)
    assert product_window(triple, 4) == 1 == oracle_first_failing_weight(triple, 4)


def _follow_the_pair(generator):
    # b read off the pair's piece at 1 and a by (I3), so that (I1)-(I3) hold
    # and only the normal form can fail
    def following(triple, n):
        _, _, c = generator(triple, n)
        b = graded_piece(triple.pair, n).get(1, 0)
        return n + triple.m * b, b, c

    return following


@pytest.mark.parametrize(
    "plus, minus, weight",
    [
        # D-(1) = -1: b(-8) = 8 puts a = 8 >= m beside b > 0
        ({}, {1: F(-1, 2)}, -8),
        # D-(1) = -1/4: b(-8) = 2 gives a = -4 < 0
        ({}, {1: F(1, 4)}, -8),
        # D+(1) = 1/2: b(2) = -1 < 0 with a = 0
        ({1: F(1, 2)}, {}, 2),
    ],
)
def test_product_window_when_only_the_normal_form_fails(monkeypatch, plus, minus, weight):
    from pseudoplane import cyclic_quotient

    triple = SurfaceTriple(3, 2, 2)
    pair = DpdPair(triple.pair.d_plus + QDivisor(plus), triple.pair.d_minus + QDivisor(minus))
    object.__setattr__(triple, "pair", pair)
    generator = cyclic_quotient.weight_piece_generator
    monkeypatch.setattr(cyclic_quotient, "weight_piece_generator", _follow_the_pair(generator))
    assert product_window(triple, 4) == weight
    assert first_failing_pair(triple, 4) is not None


@given(
    surface_triples(),
    st.integers(0, 12),
    st.sampled_from([None, _break_ab, _shift_b, _shift_c, _raise_c_at_zero, _shift_c_by_dn]),
)
def test_passing_weights_imply_every_pair_passes(triple, max_weight, fault):
    # the lemma in product_window's docstring: when every weight of -2W..2W
    # passes, the per-pair oracle finds no failing pair.  Each generator
    # fault but c + d*n breaks an identity already at weight 0; c + d*n
    # breaks one at every other weight, though no pair fails under it.  The
    # weight found is the one the Fraction-floor window finds.
    from pseudoplane import cyclic_quotient

    with pytest.MonkeyPatch.context() as patch:
        if fault is not None:
            generator = cyclic_quotient.weight_piece_generator
            patch.setattr(cyclic_quotient, "weight_piece_generator", fault(generator))
        first = product_window(triple, max_weight)
        assert first == oracle_first_failing_weight(triple, max_weight)
        passes = first is None
        assert passes == (fault is None or (fault is _shift_c_by_dn and max_weight == 0))
        if passes or fault is _shift_c_by_dn:
            assert first_failing_pair(triple, max_weight) is None


_big_fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
_wide_points = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(7, 3)])


@st.composite
def wide_pairs(draw):
    """Pairs with coefficients up to 10^6 in size and denominator, of either
    sign, at one to three points."""
    points = draw(st.lists(_wide_points, unique=True, min_size=1, max_size=3))
    plus = {p: draw(_big_fractions) for p in points}
    slack = {p: draw(_big_fractions.map(abs)) for p in points}
    return DpdPair(QDivisor(plus), QDivisor({p: -plus[p] - slack[p] for p in points}))


_graft_coefficients = st.one_of(
    st.integers(-2, 2).map(F),
    # |n*c| < 1 on the window: the multiple floors to 0, or to -1 below 0
    st.integers(-9, 9).map(lambda k: F(k, 10**7)),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
    _big_fractions,
)


@st.composite
def grafted_triples(draw):
    """A triple whose family pair has coefficients added at one to three
    points, one of them at least other than 0 and 1, up to 10^6 in size and
    denominator."""
    triple = draw(surface_triples())
    points = draw(
        st.lists(_wide_points, unique=True, min_size=1, max_size=3).filter(
            lambda points: any(p not in (0, 1) for p in points)
        )
    )
    plus = {p: draw(_graft_coefficients) for p in points}
    minus = {p: -plus[p] - abs(draw(_graft_coefficients)) for p in points}
    pair = DpdPair(triple.pair.d_plus + QDivisor(plus), triple.pair.d_minus + QDivisor(minus))
    object.__setattr__(triple, "pair", pair)
    return triple


@given(
    grafted_triples(),
    st.integers(0, 12),
    st.sampled_from(
        [None, _break_ab, _shift_b, _shift_c, _raise_c_at_zero, _shift_c_by_dn, _follow_the_pair]
    ),
)
def test_product_window_matches_the_fraction_floor_window_on_grafted_pairs(
    triple, max_weight, fault
):
    # the window's inline integer reading of -D- and D+ against the window
    # that reads each weight's exponents by the Fraction floor, on pairs
    # with a point other than 0 and 1, under no fault and each generator
    # fault
    from pseudoplane import cyclic_quotient

    with pytest.MonkeyPatch.context() as patch:
        if fault is not None:
            generator = cyclic_quotient.weight_piece_generator
            patch.setattr(cyclic_quotient, "weight_piece_generator", fault(generator))
        got = product_window(triple, max_weight)
        assert got == oracle_first_failing_weight(triple, max_weight)
        if got is None:
            assert first_failing_pair(triple, max_weight) is None


@st.composite
def small_divisor_pairs(draw):
    """(x, y - x) for small divisors x and y <= 0, a valid pair."""
    plus, slack = draw(small_divisors()), draw(small_divisors())
    return DpdPair(plus, QDivisor({p: -abs(c) for p, c in slack.coefficients.items()}) - plus)


@given(st.one_of(small_divisor_pairs(), wide_pairs()))
def test_ml1_test_counts_match_the_fractional_parts(pair):
    try:
        want = oracle_fraction_ml1_test(dict(pair.d_plus.coefficients), dict(pair.d_minus.coefficients))
    except RegimeError as exc:
        with pytest.raises(RegimeError, match=f"^{re.escape(str(exc))}$"):
            ml1_test(pair)
        return
    assert ml1_test(pair) is want


_divisor_scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@given(
    st.lists(st.tuples(_divisor_scalars, _divisor_scalars), max_size=8),
    st.lists(st.tuples(_divisor_scalars, _divisor_scalars), max_size=4),
)
def test_qdivisor_construction_matches_the_rewrapping_constructor(entries, more):
    # int, Fraction and mixed points and coefficients; a point repeated,
    # also as int and Fraction, and entries that cancel to zero.  A divisor
    # keeps its entries in increasing point order.
    cancelling = entries + [(p, -c) for p, c in entries]
    for source in (entries, cancelling, dict(entries)):
        want = oracle_qdivisor_coefficients(source)
        pairs = source.items() if isinstance(source, dict) else source
        for given_as in (source, iter(pairs)):
            got = QDivisor(given_as).coefficients
            assert list(got.items()) == sorted(want.items())
            assert all(type(p) is Fraction and type(c) is Fraction for p, c in got.items())
    assert not QDivisor(cancelling)
    x, y = QDivisor(entries), QDivisor(more)
    for got, want in ((x + y, oracle_divisor_sum(dict(x.coefficients), dict(y.coefficients))), (x - x, {})):
        assert list(got.coefficients.items()) == sorted(want.items())


def _outcome(call, *args):
    """(result, None), or (None, (type, message)) of the ValueError raised."""
    try:
        return call(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _assert_fraction_map(d, want):
    """d holds want's entries, in increasing point order, and its public
    accessors give Fractions."""
    assert d.items() == sorted(want.items())
    assert dict(d.coefficients) == want and d.support == tuple(sorted(want))
    views = [*d.support, *d.coefficients.values(), *(v for item in d.items() for v in item)]
    views += [d.coefficient(p) for p in (*d.support, 0, F(7, 5))]
    assert all(type(v) is Fraction for v in views)


_entry_divisors = st.lists(st.tuples(_divisor_scalars, _divisor_scalars), max_size=6).map(QDivisor)


@given(
    st.one_of(small_divisors(), _entry_divisors),
    st.one_of(small_divisors(), nonpositive_divisors(), _entry_divisors),
    nonpositive_divisors(),
    st.integers(1, 12),
)
def test_qdivisor_operations_match_the_fraction_oracle(x, y, slack, k):
    # the integer storage against the Fraction-valued operations it
    # replaced, on int and Fraction points, integral and fractional
    # coefficients, and pairs inside and outside ml1_test's regime
    X, Y, S = (dict(d.coefficients) for d in (x, y, slack))
    for got, want in (
        (x, X),
        (x + y, oracle_divisor_sum(X, Y)),
        (x - y, oracle_divisor_sum(X, oracle_divisor_neg(Y))),
        (-x, oracle_divisor_neg(X)),
        (floor_div(x), oracle_divisor_floor(X)),
        (fract_div(x), oracle_divisor_fract(X)),
    ):
        _assert_fraction_map(got, want)
    assert (x == y) is (X == Y) and x == QDivisor(X)
    assert format_divisor(x) == oracle_format_divisor(X)
    for d, want in ((x, X), (y, Y)):
        got = _outcome(divisor_roots, d, k)
        assert got == _outcome(oracle_divisor_roots, want, k)
        # an integral root point comes as an int
        roots = got[0][1] if got[0] else ()
        assert all(type(p) is int for p, _ in roots if p.denominator == 1)
    # D+ + D- > 0 somewhere, or not
    got, error = _outcome(DpdPair, x, y)
    want, want_error = _outcome(oracle_pair_total, X, Y)
    assert error == want_error
    if got is not None:
        _assert_fraction_map(got.total, want)
    # a valid pair (x, slack - x)
    minus = oracle_divisor_sum(S, oracle_divisor_neg(X))
    pair = DpdPair(x, QDivisor(minus))
    canonical = canonical_pair(pair)
    for got, want in zip((canonical.d_plus, canonical.d_minus), oracle_canonical_pair(X, minus)):
        _assert_fraction_map(got, want)
    assert negative_locus(pair) == oracle_negative_locus(oracle_divisor_sum(X, minus))
    try:
        want = oracle_fraction_ml1_test(X, minus)
    except RegimeError as exc:
        with pytest.raises(RegimeError, match=f"^{re.escape(str(exc))}$"):
            ml1_test(pair)
    else:
        assert ml1_test(pair) is want


# -- the freeness periods ---------------------------------------------------------

@given(_int_upolys, _int_upolys)
def test_exact_integer_division_stays_int(p, q):
    assume(q)
    quo, rem = poly_divmod(poly_mul(p, q), q)
    assert quo == p and not rem
    assert all(type(c) is int for c in quo.terms.values())
    quo, rem = poly_divmod(p, q)
    assert poly_add(poly_mul(quo, q), rem) == p and degree(rem) < degree(q)


@st.composite
def freeness_inputs(draw):
    """A random action on a factored hypersurface ring: semi-invariant when
    the ring's d is a multiple of the s-weight's period and the second
    weight is solved from P's constant term, arbitrary otherwise."""
    modulus = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    wu, ws = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    roots = draw(factored_roots(max_exp=3))
    if draw(st.booleans()):
        # P's exponents are multiples of d, and P(0) != 0 is one of its terms
        d = modulus // math.gcd(modulus, ws) * draw(st.integers(1, 3))
        wv = -k * wu
    else:
        d = draw(st.integers(1, 12))
        wv = draw(st.integers(-50, 50))
    second = draw(st.sampled_from(["v", "w"]))
    action = CyclicAction(modulus, {"u": wu, second: wv, "s": ws})
    return action, HypersurfaceRing(k, d, roots, second)


@given(freeness_inputs())
def test_freeness_check_matches_the_loop_over_every_power(inputs):
    action, ring = inputs
    try:
        want = oracle_freeness_check(action, ring)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            freeness_check(action, ring)
        return
    assert tuple(freeness_check(action, ring)) == want


def test_freeness_check_matches_the_loop_over_every_power_across_grid():
    for d, e, m in grid_triples() + LARGE_D:
        triple = SurfaceTriple(d, e, m)
        ring = normalized_ring(triple)
        for action in (standard_action(triple), induced_action(triple)):
            assert tuple(freeness_check(action, ring)) == oracle_freeness_check(action, ring)


# -- the derived power identity and the once-built divisors ----------------------


def test_power_identity_matches_normal_form_oracle_on_every_covering_ring(monkeypatch):
    rings = record_rings(monkeypatch)
    result = sweep(20, 10, max_weight=0, include_reports=True)
    assert result["aggregate"]["inconsistent"] == 0
    assert len(result["rows"]) == 1280  # every triple of d <= 20, m <= 10
    assert len(rings) == 2 * 1280
    for row, ring, normalized in zip(result["rows"], rings[::2], rings[1::2]):
        m, d = row["m"], row["d"]
        assert ring.second_var == "v"
        assert normalized == HypersurfaceRing(m, d, ((1, 1),), "w")
        assert row["report"]["normalized"]["witnesses"]["power_identity"] is True
        assert oracle_power_identity(ring, m, d) is True
        assert (witness_factors(d, smooth_check(ring).witness), fiber_analysis(ring)) == yun_reading(ring)


@given(st.integers(1, 30), st.integers(1, 12), st.integers(1, 12))
def test_power_identity_matches_normal_form_oracle_on_pure_power_rings(d, m, m_prime):
    # the relation covering_relation accepts, u^(m m') v = (s^d - 1)^m',
    # satisfies the computed identity at every (d, m, m')
    ring = HypersurfaceRing(m * m_prime, d, ((1, m_prime),), "v")
    assert oracle_power_identity(ring, m, d) is True


_other_points = st.sampled_from([F(-1), F(1, 2), F(2), F(3)])


@given(
    surface_triples(d_max=30, m_max=12),
    st.sampled_from(["moved_root", "extra_root", "wrong_power"]),
    st.data(),
)
def test_refused_rings_fail_the_normal_form_oracle(triple, fault, data):
    # verify_triple's power_identity and the computed identity reject the
    # same covering relations: divisor_roots is made to read Q off -k*D-
    # with a moved root, an extra root or a wrong power
    from pseudoplane import report as report_module

    m_prime = triple.m_prime
    if fault == "moved_root":
        roots = ((data.draw(_other_points), m_prime),)
    elif fault == "extra_root":
        extra = (data.draw(_other_points), data.draw(st.integers(1, 4)))
        roots = tuple(sorted([(1, m_prime), extra]))
    else:
        j = data.draw(st.integers(0, m_prime + 3).filter(lambda j: j != m_prime))
        roots = ((1, j),) if j else ()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_module, "divisor_roots", lambda d_minus, k: (triple.l, roots))
        rings = record_rings(patch)
        got = verify_triple(triple.d, triple.e, triple.m, max_weight=0)
    covering = rings[0]
    assert covering == HypersurfaceRing(triple.k, triple.d, roots, "v")
    assert "covering_relation" in got["failed_checks"]
    assert got["normalized"]["witnesses"]["power_identity"] is False
    assert oracle_power_identity(covering, triple.m, triple.d) is False


_fract_coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@given(st.dictionaries(_divisor_scalars, _fract_coefficients, max_size=6))
def test_fract_div_in_one_construction_matches_d_minus_floor(entries):
    # integral (floor only, dropped), zero, negative and mixed coefficients
    d = QDivisor(entries)
    got = fract_div(d)
    assert list(got.coefficients.items()) == sorted(oracle_divisor_fract(dict(d.coefficients)).items())
    assert all(0 < c < 1 for c in got.coefficients.values())


@given(dpd_pairs())
def test_pair_total_is_built_once_and_equals_the_sum(pair):
    assert pair.total == pair.d_plus + pair.d_minus
    assert pair.total is pair.total
    assert pair == DpdPair(pair.d_plus, pair.d_minus)
    assert "total" not in repr(pair)


@pytest.mark.parametrize("d, e, m", [(3, 2, 2), (5, 2, 3), (1, 1, 1)])
def test_verify_triple_builds_three_divisors(monkeypatch, d, e, m):
    # the family pair's D+ and D- and their sum once in DpdPair; ml1_test
    # counts the fractional points without building the fractional parts.
    # A divisor is built by the constructor or, from clean storage, _trusted
    built = []
    new, trusted = QDivisor.__new__, QDivisor._trusted

    def counted(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    def counted_trusted(cls, rows):
        built.append(1)
        return trusted(rows)

    monkeypatch.setattr(QDivisor, "__new__", staticmethod(counted))
    monkeypatch.setattr(QDivisor, "_trusted", classmethod(counted_trusted))
    verify_triple(d, e, m)
    assert len(built) == 3


def test_verify_triple_reads_the_pair_on_integers():
    # the first triple of a fresh interpreter, as a CLI run makes it: no
    # call into fractions.py and no ABC instance check, as the pair's three
    # divisors are built, summed, checked and printed on their integer
    # storage.  -S keeps site's start-up files out of the process.
    src = Path(pseudoplane.__file__).resolve().parents[1]
    probe = """if True:
        import sys
        from pseudoplane.report import verify_triple
        counts = {"fractions": 0, "abc": 0}
        def profile(frame, event, arg):
            if event == "call":
                if frame.f_code.co_filename.endswith("fractions.py"):
                    counts["fractions"] += 1
                elif frame.f_code.co_name == "__instancecheck__":
                    counts["abc"] += 1
        sys.setprofile(profile)
        verify_triple(5, 2, 4)
        sys.setprofile(None)
        print(counts["fractions"], counts["abc"])
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["0", "0"]


def test_verify_triple_validates_its_inputs_once():
    # SurfaceTriple checks d, e, m, and _check_int the caps on d and m and
    # the two bounds; divisor_roots, component_permutation, product_window
    # and find_valid_lnd_degrees check their own arguments.  The family
    # pair, both rings and the standard action are built from these values
    # without a check (30 and 15 calls when each constructor checked again).
    # _check_int tests an exact int without calling _is_int, so its own
    # calls are counted too
    from pseudoplane.exact_algebra import _check_int, _is_int, _is_positive_int

    names = {
        _is_int.__code__: "_is_int",
        _is_positive_int.__code__: "_is_positive_int",
        _check_int.__code__: "_check_int",
    }
    counts = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        verify_triple(5, 2, 4)
    finally:
        sys.setprofile(None)
    assert counts == {"_is_int": 6, "_is_positive_int": 5, "_check_int": 6}


def test_verify_triple_runs_in_few_python_frames():
    # every Python-level call of one triple, the relation memo warm: the 33
    # generator reads of the window -16..16 and 59 calls around them.  The
    # checks append their names without a closure, and no generator
    # expression runs on the path (158 calls while they did); the standard
    # action takes its weights already reduced, so no dict comprehension
    # runs either.  A new frame fails here, and the message lists the calls
    # of each function
    verify_triple(5, 2, 4)
    counts = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = f"{Path(code.co_filename).stem}.{code.co_qualname}"
            counts[name] = counts.get(name, 0) + 1

    sys.setprofile(profile)
    try:
        verify_triple(5, 2, 4)
    finally:
        sys.setprofile(None)
    listed = "\n".join(f"{n:3} {name}" for name, n in sorted(counts.items(), key=lambda kv: -kv[1]))
    assert counts["cyclic_quotient.weight_piece_generator"] == 33, listed
    assert sum(counts.values()) == 92, listed


def test_trusted_rings_and_actions_match_the_validating_constructors(monkeypatch):
    # every ring verify_triple wraps unchecked over grid_triples(20, 10),
    # and the standard action of each triple, against the validating constructor
    # given the same values
    wrapped = []
    trusted = HypersurfaceRing._trusted

    def recorded(*args):
        ring = trusted(*args)
        wrapped.append((args, ring))
        return ring

    monkeypatch.setattr(HypersurfaceRing, "_trusted", staticmethod(recorded))
    triples = grid_triples(20, 10)
    for d, e, m in triples:
        verify_triple(d, e, m, max_weight=0)
    assert len(wrapped) == 2 * len(triples) == 2 * 1280
    for args, ring in wrapped:
        checked = HypersurfaceRing(*args)
        assert ring == checked and hash(ring) == hash(checked) and repr(ring) == repr(checked)
    for d, e, m in triples:
        action = standard_action(SurfaceTriple(d, e, m))
        checked = CyclicAction(d, {"u": 1, "w": -m, "s": e})
        assert action == checked and repr(action) == repr(checked)
