import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    F,
    NonPolynomial,
    derivation_leaves_ring,
    element,
    factored_roots,
    format_poly,
    homogeneous_weight,
    monomial,
    nilpotency_index,
    normal_form,
    oracle_relation,
    parse_poly,
    poly_mul,
    poly_pow,
    record_rings,
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
from pseudoplane.hypersurface_ring import _format_relation, _relation_terms


def s_pow_minus_1(d):
    return upoly("s", {d: 1, 0: -1})


def w_ring(m, d):
    """Normalized model u^m w - (s^d - 1)."""
    return HypersurfaceRing(m, d, ((1, 1),), "w")


def v_ring(k, d, m_prime):
    """Covering model u^k v - (s^d - 1)^m'."""
    return HypersurfaceRing(k, d, ((1, m_prime),), "v")


# -- construction ---------------------------------------------------------------


def test_ring_invariants():
    ring = w_ring(2, 3)
    assert ring.variables == ("u", "w", "s")
    assert ring.serialize() == {"k": 2, "P": "s^3 - 1", "second_var": "w"}
    with pytest.raises(ValueError, match="k must be"):
        HypersurfaceRing(0, 2, ((1, 1),))
    # the relation stays factored over nonzero, distinct, increasing points
    # with positive exponents, at d >= 1
    for d, roots, message in [
        (2, ((0, 1),), "nonzero"),
        (2, ((-1, 1), (0, 2)), "nonzero"),
        (2, ((1, 1), (1, 2)), "distinct and increasing"),
        (2, ((2, 1), (1, 1)), "distinct and increasing"),
        (2, ((1, 0),), "exponent of root 1 must be >= 1"),
        (2, ((1, 1), (2, -1)), "exponent of root 2 must be >= 1"),
        (0, ((1, 1),), "d must be"),
    ]:
        with pytest.raises(ValueError, match=message):
            HypersurfaceRing(2, d, roots)


def printed_relation(ring):
    return ring.serialize()["P"]


def test_ring_expands_its_factored_relation():
    ring = HypersurfaceRing(2, 2, ((-1, 2), (F(1, 2), 1)), "v")
    expanded = poly_mul(poly_pow(upoly("s", {2: 1, 0: 1}), 2), upoly("s", {2: 1, 0: F(-1, 2)}))
    assert printed_relation(ring) == format_poly(expanded)
    # the empty product, and (s + 1)(s - 1), whose middle term cancels
    assert printed_relation(HypersurfaceRing(1, 3, ())) == "1"
    assert printed_relation(HypersurfaceRing(1, 1, ((-1, 1), (1, 1)))) == "s^2 - 1"
    assert printed_relation(HypersurfaceRing(1, 3, ((-1, 1), (1, 1)))) == "s^6 - 1"
    # integral points are stored as int, so the expansion keeps int coefficients
    ring = HypersurfaceRing(6, 3, ((F(1), 3),))
    assert ring.roots == ((1, 3),) and type(ring.roots[0][0]) is int
    assert all(type(c) is int for _, c in _relation_terms(ring.d, ring.roots))


@given(st.integers(1, 3), st.integers(1, 5), factored_roots())
def test_printed_relation_is_the_expanded_product(k, d, roots):
    # the printer reads the roots' integers; the oracle multiplies the
    # powers of s^d - p as polynomials, and the printed text parses back to it
    ring = HypersurfaceRing(k, d, roots)
    text = printed_relation(ring)
    assert text == format_poly(oracle_relation(ring))
    assert parse_poly(text, ("s",)) == oracle_relation(ring)


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
        ring = HypersurfaceRing(triple.k, d, roots, "v")
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
    assert smooth_check(w_ring(2, 3)).smooth
    singular = smooth_check(v_ring(6, 3, 3))
    assert not singular.smooth
    assert singular.witness == (((1,), 3),)
    assert witness_factors(3, singular.witness) == ((s_pow_minus_1(3), 3),)
    # k = 1 follows the same rule: u*v = s - 1 is smooth, and u*v = (s - 1)^2
    # is singular at u = v = 0, s = 1
    assert smooth_check(v_ring(1, 1, 1)).smooth
    witness = smooth_check(v_ring(1, 1, 2)).witness
    assert witness == (((1,), 2),)
    assert witness_factors(1, witness) == ((upoly("s", {1: 1, 0: -1}), 2),)
    # one factor per multiplicity, of the points that share it
    mixed = smooth_check(HypersurfaceRing(2, 2, ((-1, 2), (F(1, 2), 1), (3, 2)), "v"))
    assert mixed.witness == (((-1, 3), 2),)
    assert witness_factors(2, mixed.witness) == (
        (poly_mul(upoly("s", {2: 1, 0: 1}), upoly("s", {2: 1, 0: -3})), 2),
    )


def test_fiber_analysis_examples():
    assert fiber_analysis(w_ring(2, 3)) == [(3, 1)]
    assert fiber_analysis(v_ring(6, 3, 3)) == [(3, 3)]
    mixed = HypersurfaceRing(2, 2, ((-1, 2), (F(1, 2), 1), (3, 2)), "v")
    assert fiber_analysis(mixed) == [(2, 1), (4, 2)]


@given(st.integers(1, 4), st.integers(1, 12), factored_roots(min_size=1, max_size=3, max_exp=4))
def test_factored_reading_matches_yun(k, d, roots):
    # the lemma of the module docstring against Yun's decomposition of the
    # expanded P: the same factors, in the same order of multiplicity
    ring = HypersurfaceRing(k, d, roots, "v")
    check = smooth_check(ring)
    assert (witness_factors(d, check.witness), fiber_analysis(ring)) == yun_reading(ring)
    assert check.smooth == (not check.witness)


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
        assert parse_poly(pre["ring"]["P"], S) == oracle_relation(covering)
        assert parse_poly(report["normalized"]["ring"]["P"], S) == oracle_relation(normalized)
        witness = tuple((parse_poly(text, S), j) for text, j in pre["singular_witness"])
        assert witness == yun_reading(covering)[0]
        singular += bool(witness)
    assert singular > len(D_HEAVY)


@given(st.integers(1, 6), factored_roots(min_size=1, max_size=3, max_exp=4))
def test_printed_witness_is_the_yun_factor(d, roots):
    # points -1, 1/2, 1, 2, 3 at several exponents: the printer's +, - and
    # p/q paths, each text equal to the oracle printer's and parsing back
    ring = HypersurfaceRing(1, d, roots, "v")
    printed = [
        (_format_relation(d, tuple((p, 1) for p in points)), j) for points, j in smooth_check(ring).witness
    ]
    factors = yun_reading(ring)[0]
    assert [(format_poly(f), j) for f, j in factors] == printed
    assert tuple((parse_poly(text, S), j) for text, j in printed) == factors


# -- the relation memo ------------------------------------------------------------


def _printed_keys(report, covering, normalized):
    """(text, (d, roots)) for each relation and witness text of a report,
    with the key the pipeline printed it from."""
    pre = report["pre_normalization"]
    keys = [
        (pre["ring"]["P"], (covering.d, covering.roots)),
        (report["normalized"]["ring"]["P"], (normalized.d, normalized.roots)),
    ]
    witness = smooth_check(covering).witness
    assert [j for _, j in pre["singular_witness"]] == [j for _, j in witness]
    keys += [
        (text, (covering.d, tuple((p, 1) for p in points)))
        for (text, _), (points, _) in zip(pre["singular_witness"], witness)
    ]
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
        for text, (d, roots) in _printed_keys(report, covering, normalized):
            assert text == _format_relation.__wrapped__(d, roots)


def test_an_int_point_and_an_equal_fraction_share_one_text():
    for first, second in [(2, F(2)), (F(-1), -1)]:
        _format_relation.cache_clear()
        texts = [_format_relation(3, ((p, 2), (5, 1))) for p in (first, second)]
        assert _format_relation.cache_info().hits == 1
        assert texts == [_format_relation.__wrapped__(3, ((p, 2), (5, 1))) for p in (first, second)]


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
    # the covering ring the pipeline builds for (d, e, m) = (3, 2, 2) is the
    # one divisor_roots reads off -k*D-, and it passes covering_relation
    triple = SurfaceTriple(3, 2, 2)
    _, roots = divisor_roots(triple.pair.d_minus, triple.k)
    rings = record_rings(monkeypatch)
    report = verify_triple(3, 2, 2)
    assert rings == [HypersurfaceRing(triple.k, 3, roots, "v"), w_ring(2, 3)]
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
