import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    NonPolynomial,
    derivation_leaves_ring,
    element,
    format_poly,
    homogeneous_weight,
    monomial,
    nilpotency_index,
    normal_form,
    oracle_format_relation,
    oracle_relation_terms,
    parse_poly,
    poly_mul,
    poly_pow,
    record_rings,
    ring_relation,
    s_weight,
    small_multipolys,
    upoly,
    with_variables,
    witness_factors,
    yun_reading,
)

from pseudoplane import (
    HypersurfaceRing,
    SurfaceTriple,
    divisor_roots,
    fiber_analysis,
    smooth_check,
    sweep,
    verify_triple,
)
from pseudoplane.hypersurface_ring import _format_relation


def s_pow_minus_1(d):
    return upoly("s", {d: 1, 0: -1})


def w_ring(m, d):
    """Normalized model u^m w - (s^d - 1)."""
    return HypersurfaceRing(m, d, 1, "w")


def v_ring(k, d, m_prime):
    """Covering model u^k v - (s^d - 1)^m'."""
    return HypersurfaceRing(k, d, m_prime, "v")


# -- construction ---------------------------------------------------------------


def test_ring_invariants():
    ring = w_ring(2, 3)
    assert ring.variables == ("u", "w", "s")
    assert ring.serialize() == {"k": 2, "P": "s^3 - 1", "second_var": "w"}
    with pytest.raises(ValueError, match="k must be"):
        HypersurfaceRing(0, 2, 1)
    # the relation is (s^d - 1)^j with d >= 1 and j >= 1
    for d, j, message in [
        (2, 0, "j must be >= 1, got 0"),
        (2, -1, "j must be >= 1, got -1"),
        (0, 1, "d must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            HypersurfaceRing(2, d, j)


def printed_relation(ring):
    return ring.serialize()["P"]


def test_ring_expands_its_factored_relation():
    # the binomial row of (t - 1)^j at t = s^d, its signs alternating
    ring = HypersurfaceRing(2, 2, 3, "v")
    assert printed_relation(ring) == format_poly(poly_pow(s_pow_minus_1(2), 3)) == "s^6 - 3*s^4 + 3*s^2 - 1"
    assert oracle_relation_terms(2, 3) == [(6, 1), (4, -3), (2, 3), (0, -1)]
    assert printed_relation(HypersurfaceRing(1, 1, 1)) == "s - 1"
    assert printed_relation(HypersurfaceRing(1, 3, 2)) == "s^6 - 2*s^3 + 1"


@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 8))
def test_printed_relation_is_the_expanded_product(k, d, j):
    # the printer writes the binomial row; the oracle multiplies the
    # powers of s^d - 1 as polynomials, and the printed text parses back to it
    ring = HypersurfaceRing(k, d, j)
    text = printed_relation(ring)
    assert text == format_poly(ring_relation(ring))
    assert parse_poly(text, ("s",)) == ring_relation(ring)


def test_one_pass_printer_matches_the_term_by_term_oracle():
    # the printer decides no sign, unit or ^1 per term; the oracle, the
    # printer it replaced, decides each, on every small key, on d = 1 (the
    # ^1 of the last inner term elided) and on keys up to the d cap
    keys = [(d, j) for d in range(1, 41) for j in range(1, 41)]
    keys += [(1, j) for j in range(41, 101)]
    keys += [(400, 2), (799, 799), (800, 1), (800, 800)]
    for d, j in keys:
        assert _format_relation.__wrapped__(d, j) == oracle_format_relation(d, j), (d, j)


def test_covering_ring_from_divisor_roots():
    # the covering ring the pipeline builds: u^k v = Q(s^d), Q read off -k*D-
    for (d, e, m), p in [
        ((3, 2, 2), poly_pow(s_pow_minus_1(3), 3)),
        ((2, 1, 2), s_pow_minus_1(2)),
        # degenerate d=1 case: k*e' + d*l = 1 - 1 = 0, so P(s) = Q(s) = s - 1
        ((1, 1, 1), upoly("s", {1: 1, 0: -1})),
    ]:
        triple = SurfaceTriple(d, e, m)
        _, roots = divisor_roots(triple.pair.d_minus, triple.k)
        assert roots == ((1, triple.m_prime),)
        ring = HypersurfaceRing(triple.k, d, triple.m_prime, "v")
        assert printed_relation(ring) == format_poly(p)
        assert ring.second_var == "v"


# -- rewriting ------------------------------------------------------------------


def test_normal_form_examples():
    ring = w_ring(2, 3)
    assert element(ring, "u^2*w*s").poly == element(ring, "s^4 - s").poly
    stays = monomial(ring, 1, 1, 1)
    assert normal_form(ring, stays).poly == stays
    assert normal_form(ring, monomial(ring, 4, 2, 0)).poly == with_variables(
        poly_pow(s_pow_minus_1(3), 2), ring.variables
    )


def test_normal_form_invariant():
    ring = w_ring(2, 3)
    nf = normal_form(ring, monomial(ring, 5, 2, 1)).poly
    assert all(a < ring.k or b == 0 for (a, b, _) in nf.terms)


@given(small_multipolys(("u", "w", "s"), max_exp=4), small_multipolys(("u", "w", "s"), max_exp=4))
def test_normal_form_multiplicative(p, q):
    ring = w_ring(2, 3)
    direct = normal_form(ring, poly_mul(p, q))
    stepwise = normal_form(ring, poly_mul(normal_form(ring, p).poly, normal_form(ring, q).poly))
    assert direct == stepwise


@given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 6))
def test_normal_form_preserves_weight(a, b, c):
    ring = w_ring(2, 3)
    x = normal_form(ring, monomial(ring, a, b, c))
    if not x.poly:
        return
    assert homogeneous_weight(x) == a - ring.k * b


# -- smoothness and fibers --------------------------------------------------------


def test_smooth_check_examples():
    assert smooth_check(w_ring(2, 3)) == (True, 1)
    singular = smooth_check(v_ring(6, 3, 3))
    assert singular == (False, 3)
    assert witness_factors(3, singular) == ((s_pow_minus_1(3), 3),)
    # k = 1 follows the same rule: u*v = s - 1 is smooth, and u*v = (s - 1)^2
    # is singular at u = v = 0, s = 1
    assert smooth_check(v_ring(1, 1, 1)).smooth
    singular = smooth_check(v_ring(1, 1, 2))
    assert singular == (False, 2)
    assert witness_factors(1, singular) == ((upoly("s", {1: 1, 0: -1}), 2),)


def test_fiber_analysis_examples():
    assert fiber_analysis(w_ring(2, 3)) == [(3, 1)]
    assert fiber_analysis(v_ring(6, 3, 3)) == [(3, 3)]
    assert fiber_analysis(v_ring(4, 2, 2)) == [(2, 2)]


@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 6))
def test_factored_reading_matches_yun(k, d, j):
    # the lemma of the module docstring against Yun's decomposition of the
    # expanded P: the same factor, of the same multiplicity
    ring = HypersurfaceRing(k, d, j, "v")
    assert (witness_factors(d, smooth_check(ring)), fiber_analysis(ring)) == yun_reading(ring)


# -- printed relations and witnesses parse back -----------------------------------

S = ("s",)
# d-heavy triples, whose relations print (s^d - 1)^m' with d up to 43
D_HEAVY = [(43, 1, 7), (25, 2, 5), (20, 3, 10)]


def test_reported_relations_and_witnesses_parse_back_to_the_oracles(monkeypatch):
    # every relation and singular witness a report prints parses back, with
    # the tests' parser, to the expanded relation of the ring the pipeline
    # built, or to the Yun factor of the same multiplicity
    rings = record_rings(monkeypatch)
    reports = [row["report"] for row in sweep(6, 5, include_reports=True)["rows"]]
    reports += [verify_triple(d, e, m) for d, e, m in D_HEAVY]
    assert len(rings) == 2 * len(reports) == 2 * (60 + len(D_HEAVY))
    singular = 0
    for report, covering, normalized in zip(reports, rings[::2], rings[1::2]):
        pre = report["pre_normalization"]
        assert parse_poly(pre["ring"]["P"], S) == ring_relation(covering)
        assert parse_poly(report["normalized"]["ring"]["P"], S) == ring_relation(normalized)
        witness = tuple((parse_poly(text, S), j) for text, j in pre["singular_witness"])
        assert witness == yun_reading(covering)[0]
        singular += bool(witness)
    assert singular > len(D_HEAVY)


@given(st.integers(1, 6), st.integers(1, 6))
def test_printed_witness_is_the_yun_factor(d, j):
    # the witness factor s^d - 1 as the report prints it, equal to the
    # oracle printer's text of Yun's factor and parsing back to it
    ring = HypersurfaceRing(1, d, j, "v")
    check = smooth_check(ring)
    printed = [] if check.smooth else [(_format_relation(d, 1), check.witness)]
    factors = yun_reading(ring)[0]
    assert [(format_poly(f), j) for f, j in factors] == printed
    assert tuple((parse_poly(text, S), j) for text, j in printed) == factors


# -- the relation memo ------------------------------------------------------------


def _printed_keys(report, covering, normalized):
    """(text, (d, j)) for each relation and witness text of a report,
    with the key the pipeline printed it from."""
    pre = report["pre_normalization"]
    keys = [
        (pre["ring"]["P"], (covering.d, covering.j)),
        (report["normalized"]["ring"]["P"], (normalized.d, normalized.j)),
    ]
    check = smooth_check(covering)
    assert [j for _, j in pre["singular_witness"]] == ([] if check.smooth else [check.witness])
    keys += [(text, (covering.d, 1)) for text, _ in pre["singular_witness"]]
    return keys


def test_memoized_texts_equal_the_printer(monkeypatch):
    # every text a report takes from the memo is what the unmemoized
    # printer writes on the same key, on the acceptance sweep, the d-heavy
    # sweep and the d-heavy triples
    rings = record_rings(monkeypatch)
    reports = [row["report"] for row in sweep(6, 5, include_reports=True)["rows"]]
    reports += [row["report"] for row in sweep(20, 10, include_reports=True)["rows"]]
    reports += [verify_triple(d, e, m) for d, e, m in D_HEAVY]
    assert len(rings) == 2 * len(reports)
    for report, covering, normalized in zip(reports, rings[::2], rings[1::2]):
        for text, (d, j) in _printed_keys(report, covering, normalized):
            assert text == _format_relation.__wrapped__(d, j)


def test_a_report_shares_no_mutable_object_with_the_next():
    want = json.dumps(verify_triple(4, 3, 2))
    first = verify_triple(4, 3, 2)
    first["normalized"]["ring"]["P"] = "s"
    first["normalized"]["ring"]["k"] = 0
    first["pre_normalization"]["ring"]["P"] = "s"
    first["pre_normalization"]["singular_witness"].clear()
    assert json.dumps(verify_triple(4, 3, 2)) == want


def test_a_row_order_sweep_prints_each_key_once(monkeypatch):
    # m' divides d, so row order keeps few keys live and the memo never
    # evicts one that a later triple prints again
    rings = record_rings(monkeypatch)
    _format_relation.cache_clear()
    reports = [row["report"] for row in sweep(20, 10, include_reports=True)["rows"]]
    keys = {
        key
        for report, covering, normalized in zip(reports, rings[::2], rings[1::2])
        for _, key in _printed_keys(report, covering, normalized)
    }
    assert _format_relation.cache_info().misses == len(keys) == 66


# -- normalization ----------------------------------------------------------------


def test_normalize_examples(monkeypatch):
    # the covering ring and the normalized model verify_triple builds, with
    # both witnesses true
    rings = record_rings(monkeypatch)
    for (d, e, m), covering in [
        ((3, 2, 2), v_ring(6, 3, 3)),
        ((2, 1, 2), v_ring(2, 2, 1)),
        ((2, 1, 3), v_ring(6, 2, 2)),
    ]:
        witnesses = verify_triple(d, e, m)["normalized"]["witnesses"]
        assert rings[-2:] == [covering, w_ring(m, d)]
        assert witnesses == {"power_identity": True, "normalized_smooth": True}


def test_normalize_accepts_matching_ring(monkeypatch):
    # the covering ring the pipeline builds for (d, e, m) = (3, 2, 2) holds
    # the Q = (t - 1)^m' that divisor_roots reads off -k*D-, and the triple
    # passes divisor_polynomial
    triple = SurfaceTriple(3, 2, 2)
    _, roots = divisor_roots(triple.pair.d_minus, triple.k)
    assert roots == ((1, triple.m_prime),)
    rings = record_rings(monkeypatch)
    report = verify_triple(3, 2, 2)
    assert rings == [HypersurfaceRing(triple.k, 3, triple.m_prime, "v"), w_ring(2, 3)]
    assert report["failed_checks"] == [] and report["normalized"]["witnesses"]["power_identity"]


# -- derivation -------------------------------------------------------------------


def test_derivation_examples():
    # u^2 d/ds maps u*s to u^3 and w*s to 4*s^3 - 1, both in the ring
    ring = w_ring(2, 3)
    assert derivation_leaves_ring(ring, 2, element(ring, "u*s")) is None
    assert derivation_leaves_ring(ring, 2, element(ring, "w*s")) is None


def test_derivation_non_polynomial():
    # u d/ds maps w*s to u^-2 (s^2 - 1 + 2*s^2), which leaves u^3*w = s^2 - 1
    ring = w_ring(3, 2)
    out = derivation_leaves_ring(ring, 1, element(ring, "w*s"))
    assert isinstance(out, NonPolynomial)
    assert "u^-2" in out.monomial


DERIVATION_ENTRY_POINTS = (derivation_leaves_ring, nilpotency_index)


def test_derivation_rejects_non_normalized_shape():
    ring = v_ring(6, 3, 3)
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


@given(st.integers(1, 4), st.integers(1, 4))
def test_normalized_ring_always_smooth(m, d):
    assert smooth_check(w_ring(m, d)).smooth
