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
    SurfaceTriple,
    classify_pair,
    floor_div,
    ml1_test,
    sweep,
)


def test_family_pair_values():
    pair = SurfaceTriple(3, 2, 2).pair
    assert pair.d_plus == QDivisor({0: F(-2, 3)})
    assert pair.d_minus == QDivisor({0: F(2, 3), 1: F(-1, 2)})
    pair = SurfaceTriple(2, 1, 2).pair
    assert pair.d_plus == QDivisor({0: F(-1, 2)})
    assert pair.d_minus == QDivisor({0: F(1, 2), 1: F(-1, 2)})
    pair = SurfaceTriple(1, 1, 1).pair
    assert pair.d_plus == QDivisor({0: -1})
    assert pair.d_minus == QDivisor({0: 1, 1: -1})


def test_graded_piece_examples():
    pair = SurfaceTriple(3, 2, 2).pair
    assert graded_piece(pair, 1) == {F(0): 1}
    assert graded_piece(pair, -1) == {F(1): 1}
    assert graded_piece(pair, 0) == {}
    # floor(2*D-) = 1[0] - 1[1]: a pole at 0
    assert graded_piece(pair, -2) == {F(0): -1, F(1): 1}
    assert all(type(p) is F for n in range(-6, 7) for p in graded_piece(pair, n))


def test_product_defect_examples():
    pair = SurfaceTriple(3, 2, 2).pair
    assert product_defect(pair, 1, -1) == {F(0): 1, F(1): 1}
    assert product_defect(pair, 1, 1) == {}
    assert product_defect(pair, 0, -5) == {}


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
        assert _shift_identity_holds(SurfaceTriple(d, e, m).pair)


@given(small_divisors(), nonpositive_divisors())
def test_graded_piece_shift_identity_random(d_plus, slack):
    pair = DpdPair(d_plus, slack - d_plus)
    assert _shift_identity_holds(pair)


@given(small_divisors(), nonpositive_divisors(), st.integers(-12, 12), st.integers(-12, 12))
def test_product_defect_nonnegative(d_plus, slack, n, n_prime):
    pair = DpdPair(d_plus, slack - d_plus)
    assert all(v >= 0 for v in product_defect(pair, n, n_prime).values())


def test_ml1_iff_d_and_m_at_least_two():
    # e runs over the units mod d, and so does e'
    for d, e, m in grid_triples(6, 5):
        assert ml1_test(SurfaceTriple(d, e, m).pair) == (d >= 2 and m >= 2)


def test_classify_reads_back_the_pair_that_verify_prints():
    # verify and classify read one divisor pair through two entry points.
    # For every triple of sweep(20, 10): the printed pair comes back as its
    # exact (d, e', m); its canonical shift comes back with the same
    # parameters, up to equivalence; and given the first degree verify
    # found, classify admits the pair iff verify finds it consistent, while
    # a degree-0 derivation excludes it
    rows = sweep(20, 10, max_weight=0, include_reports=True)["rows"]
    assert len(rows) == 1280
    for row in rows:
        report = row["report"]
        params = {"d": row["d"], "e_prime": report["derived"]["e_prime"], "m": row["m"]}
        plus, minus = report["dpd"]["d_plus"], report["dpd"]["d_minus"]
        degrees = report["lnd"]["degrees_found"]
        assert degrees, row
        read = classify_pair(plus, minus, degrees[0])
        assert read["recovered"] == {**params, "up_to_equivalence": False}, row
        assert (read["verdict"] == "admissible") == (report["verdict"] == "consistent"), row
        canonical = read["canonical"]
        shifted = classify_pair(canonical["d_plus"], canonical["d_minus"])
        assert shifted["recovered"] == {**params, "up_to_equivalence": True}, row
        degree_zero = classify_pair(plus, minus, 0)
        assert degree_zero["verdict"] == "excluded", row
        assert degree_zero["excluded_reason"].startswith("degree-0 derivation"), row
