import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    F,
    action_weight,
    graded_piece,
    grid_triples,
    hilbert_basis,
    induced_action,
    monoid_points,
    normalized_ring,
    oracle_component_permutation,
    oracle_freeness_check,
    product_structure_check,
    reachable_sums,
    same_subgroup,
    surface_triples,
    weight_piece_is_rank_one,
)

from pseudoplane import (
    CyclicAction,
    DpdPair,
    HypersurfaceRing,
    QDivisor,
    SurfaceTriple,
    component_permutation,
    find_valid_lnd_degrees,
    freeness_check,
    product_window,
    standard_action,
    weight_piece_generator,
)
from pseudoplane.cyclic_quotient import _same_subgroup_as_induced

TRIPLES = [SurfaceTriple(d, e, m) for d, e, m in grid_triples(5, 4)]


def test_mod_inverse():
    assert SurfaceTriple(3, 2, 1).e_prime == 2
    assert SurfaceTriple(7, 1, 1).e_prime == 1
    assert SurfaceTriple(1, 1, 1).e_prime == 1
    assert SurfaceTriple(5, 3, 1).e_prime == 2
    with pytest.raises(ValueError, match="coprime"):
        SurfaceTriple(4, 2, 1)


def test_mod_inverse_brute_force():
    for d in range(1, 12):
        for e in range(1, 12):
            if math.gcd(e, d) != 1:
                continue
            inv = SurfaceTriple(d, e, 1).e_prime
            assert 1 <= inv <= d
            assert (e * inv) % d == 1 % d


def test_surface_triple_derived_constants():
    t = SurfaceTriple(3, 2, 2)
    assert (t.e_prime, t.k, t.m_prime, t.d_prime, t.l) == (2, 6, 3, 2, -4)
    assert t.k * t.e_prime + t.d * t.l == 0
    assert t.pair == DpdPair(QDivisor({0: F(-2, 3)}), QDivisor({0: F(2, 3), 1: F(-1, 2)}))
    with pytest.raises(ValueError, match="coprime"):
        SurfaceTriple(4, 2, 3)
    with pytest.raises(ValueError):
        SurfaceTriple(True, 1, 1)
    with pytest.raises(ValueError):
        SurfaceTriple(3, 2.0, 2)


# -- freeness ---------------------------------------------------------------------


def xyz_ring(m, d):
    return HypersurfaceRing(m, d, 1, "w")


def test_freeness_free_case():
    action = CyclicAction(3, {"u": 1, "w": -2, "s": 2})
    result = freeness_check(action, xyz_ring(2, 3))
    assert result.free and result.fixed_loci == []


def test_freeness_non_coprime_witness():
    action = CyclicAction(4, {"u": 1, "w": -3, "s": 2})
    result = freeness_check(action, xyz_ring(3, 4))
    assert not result.free
    witness = {
        (locus["power"], locus["pattern"]["u"], locus["pattern"]["w"], locus["pattern"]["s"])
        for locus in result.fixed_loci
    }
    assert (2, "zero", "zero", "nonzero") in witness


def test_freeness_trivial_group():
    action = CyclicAction(1, {"u": 0, "w": 0, "s": 0})
    assert freeness_check(action, xyz_ring(2, 3)).free


def test_freeness_requires_semi_invariant_relation():
    action = CyclicAction(3, {"u": 1, "w": 0, "s": 1})
    with pytest.raises(ValueError, match="semi-invariant"):
        freeness_check(action, xyz_ring(2, 3))
    # u^2 w is invariant, but s^3 has residue 3 mod 6
    action = CyclicAction(6, {"u": 1, "w": -2, "s": 1})
    with pytest.raises(ValueError, match=r"^relation is not semi-invariant under the action: residues \[0, 3\]$"):
        freeness_check(action, xyz_ring(2, 3))


def _freeness_and_oracle(action, ring):
    result = freeness_check(action, ring)
    assert tuple(result) == oracle_freeness_check(action, ring)
    return result


def test_freeness_pattern_u_second_binds_though_s_weight_is_a_unit():
    # gcd(4, 2, -2) = 2 fixes u, w != 0, s = 0 under the power 2
    result = _freeness_and_oracle(CyclicAction(4, {"u": 2, "w": -2, "s": 1}), xyz_ring(1, 4))
    assert not result.free
    assert {"power": 2, "pattern": {"u": "nonzero", "w": "nonzero", "s": "zero"}} in result.fixed_loci


def test_freeness_pattern_s_needs_a_nonzero_root():
    # gcd(4, 2) = 2 at s, and P = s^2 - 1 has the nonzero roots s = +-1, so
    # the power 2 fixes the points u = w = 0, s = +-1 of u w = s^2 - 1
    action = CyclicAction(4, {"u": 1, "w": -1, "s": 2})
    result = _freeness_and_oracle(action, xyz_ring(1, 2))
    assert not result.free
    assert {"power": 2, "pattern": {"u": "zero", "w": "zero", "s": "nonzero"}} in result.fixed_loci


# -- invariant monoid -------------------------------------------------------------


def test_hilbert_basis_examples():
    full = hilbert_basis(CyclicAction(1, {"u": 0, "w": 0, "s": 0}))
    assert full == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    basis = hilbert_basis(CyclicAction(2, {"u": 1, "w": 0, "s": 1}))
    assert sorted(basis) == [(0, 0, 2), (0, 1, 0), (1, 0, 1), (2, 0, 0)]
    basis = hilbert_basis(CyclicAction(3, {"u": 1, "w": 1, "s": 1}))
    assert sorted(basis) == sorted(
        [
            (3, 0, 0), (0, 3, 0), (0, 0, 3),
            (2, 1, 0), (2, 0, 1), (1, 2, 0),
            (1, 0, 2), (0, 2, 1), (0, 1, 2),
            (1, 1, 1),
        ]
    )


@pytest.mark.parametrize("d,weights", [
    (2, (1, 0, 1)),
    (3, (1, 1, 1)),
    (4, (1, 1, 2)),
    (5, (1, 2, 3)),
    (6, (1, 3, 5)),
])
def test_hilbert_basis_against_exhaustive_decomposition(d, weights):
    action = CyclicAction(d, {"u": weights[0], "w": weights[1], "s": weights[2]})
    basis = hilbert_basis(action)
    bound = 8
    assert reachable_sums(basis, bound) == monoid_points(d, weights, bound)
    for g in basis:
        others = [h for h in basis if h != g]
        assert g not in reachable_sums(others, max(g))


# -- weight pieces ----------------------------------------------------------------


def test_weight_piece_generator_examples():
    t = SurfaceTriple(3, 2, 2)
    assert weight_piece_generator(t, 1) == (1, 0, 1)
    assert weight_piece_generator(t, -1) == (1, 1, 2)
    assert weight_piece_generator(t, 0) == (0, 0, 0)


def test_weight_piece_generator_is_invariant_normal_monomial():
    for t in TRIPLES:
        action = standard_action(t)
        ring = normalized_ring(t)
        for n in range(-8, 9):
            a, b, c = weight_piece_generator(t, n)
            assert a - t.m * b == n
            assert b == 0 or a < t.m
            assert action_weight(action, (a, b, c), ring.variables) == 0
            assert c == (-t.e_prime * n) % t.d


def test_ceiling_identity_links_generator_to_graded_piece():
    for t in TRIPLES:
        for n in range(-8, 9):
            c = (-t.e_prime * n) % t.d
            assert (n * t.e_prime + c) % t.d == 0
            ceiling = (n * t.e_prime + c) // t.d
            assert ceiling == math.ceil(F(n * t.e_prime, t.d))
            if n != 0:
                assert graded_piece(t.pair, n).get(0, 0) == ceiling


@given(surface_triples())
def test_generator_and_graded_piece_satisfy_the_weight_identities(t):
    # (I1)-(I3) and the normal form (N), on |n| <= 3*max(d, m)
    k = max(t.d, t.m)
    for n in range(-3 * k, 3 * k + 1):
        a, b, c = weight_piece_generator(t, n)
        piece = graded_piece(t.pair, n)
        assert c == t.d * piece.get(0, 0) - t.e_prime * n  # (I1)
        assert b == piece.get(1, 0)  # (I2)
        assert a == n + t.m * b  # (I3)
        assert a >= 0 and b >= 0 and (a < t.m or b == 0)  # (N)
        assert piece.keys() <= {0, 1}


def test_weight_pieces_have_rank_one():
    for t in TRIPLES[:20]:
        for n in (-5, -2, -1, 0, 1, 2, 5):
            assert weight_piece_is_rank_one(t, n, exp_bound=12)


@given(surface_triples(), st.data())
def test_weight_pieces_have_rank_one_for_any_weight(t, data):
    # the rank-one argument in weight_piece_generator's docstring, on a box
    # that holds the generator and at least two further powers of s^d
    k = max(t.d, t.m)
    n = data.draw(st.integers(-3 * k, 3 * k))
    a, b, c = weight_piece_generator(t, n)
    bound = max(a, b) + 2 * t.d + c
    assert action_weight(standard_action(t), (a, b, c), ("u", "w", "s")) == 0
    assert weight_piece_is_rank_one(t, n, exp_bound=bound)


# -- product structure -------------------------------------------------------------


def test_product_structure_examples():
    t = SurfaceTriple(3, 2, 2)
    check = product_structure_check(t, 1, -1)
    assert check.measured == {F(0): 1, F(1): 1}
    assert check.match
    check = product_structure_check(t, 1, 1)
    assert check.measured == {} and check.match
    check = product_structure_check(t, 5, 0)
    assert check.measured == {} and check.match
    assert product_window(t, 0) is None and product_window(t, 5) is None
    with pytest.raises(ValueError, match="^max_weight must be >= 0, got -1$"):
        product_window(t, -1)


def test_product_structure_across_grid():
    for t in TRIPLES:
        assert product_window(t, 6) is None
        for n in range(-6, 7):
            for n_prime in range(-6, 7):
                assert product_structure_check(t, n, n_prime).match


def test_acceptance_grid_passes_on_weights_alone(monkeypatch):
    # every weight passes on every acceptance-grid triple, and product_window
    # reads each of the 4W + 1 generators once
    from pseudoplane import cyclic_quotient

    calls = []
    generator = cyclic_quotient.weight_piece_generator

    def counted(triple, n):
        calls.append(n)
        return generator(triple, n)

    monkeypatch.setattr(cyclic_quotient, "weight_piece_generator", counted)
    for d, e, m in grid_triples():
        t = SurfaceTriple(d, e, m)
        calls.clear()
        assert product_window(t, 8) is None
        assert calls == list(range(-16, 17))


# -- symmetry bookkeeping ----------------------------------------------------------


def test_same_subgroup_examples():
    a1 = CyclicAction(3, {"u": 2, "w": 2, "s": 1})
    a2 = CyclicAction(3, {"u": 1, "w": 1, "s": 2})
    assert same_subgroup(a1, a2)
    assert same_subgroup(a1, a1)
    b1 = CyclicAction(4, {"u": 1, "w": 0, "s": 0})
    b2 = CyclicAction(4, {"u": 2, "w": 0, "s": 0})
    assert not same_subgroup(b1, b2)
    with pytest.raises(ValueError, match="modulus"):
        same_subgroup(a1, b1)


def test_induced_subgroup_witness_matches_the_search():
    # the pipeline's one-unit witness against same_subgroup's search over
    # every unit, on the standard action, on it with one weight moved, and on
    # the trivial action, where the candidate 0 is a unit only at d = 1
    for d, e, m in grid_triples(20, 10):
        triple = SurfaceTriple(d, e, m)
        induced, standard = induced_action(triple), standard_action(triple)
        assert _same_subgroup_as_induced(triple, standard)
        actions = [CyclicAction(d, dict.fromkeys(standard.weights, 0))]
        for var, weight in standard.weights.items():
            for shift in (1, -2, e):
                actions.append(CyclicAction(d, {**standard.weights, var: weight + shift}))
        for action in actions:
            assert _same_subgroup_as_induced(triple, action) == same_subgroup(induced, action)


def test_component_permutation():
    cycles, transitive = component_permutation(3, 2)
    assert cycles == ((0, 2, 1),) and transitive
    cycles, transitive = component_permutation(4, 2)
    assert cycles == ((0, 2), (1, 3)) and not transitive
    cycles, transitive = component_permutation(1, 1)
    assert cycles == ((0,),) and transitive


@given(st.integers(1, 60), st.integers(-90, 90))
def test_component_permutation_matches_the_walk(d, e):
    cycles, transitive = component_permutation(d, e)
    assert cycles == oracle_component_permutation(d, e)
    assert transitive == (len(cycles) == 1)


def test_action_weights_reduced_mod_d():
    action = CyclicAction(3, {"u": 7, "w": -2, "s": 2})
    assert action.weights == {"u": 1, "w": 1, "s": 2}
    assert all(0 <= w < 3 for w in action.weights.values())


# -- derivation degrees ------------------------------------------------------------


def test_find_valid_lnd_degrees_examples():
    t = SurfaceTriple(3, 2, 2)
    degrees = find_valid_lnd_degrees(t, 8)
    assert 2 in degrees
    assert all(deg % 3 == 2 for deg in degrees)

    t = SurfaceTriple(2, 1, 3)
    degrees = find_valid_lnd_degrees(t, 8)
    assert 1 not in degrees and 3 in degrees

    t = SurfaceTriple(1, 1, 2)
    assert find_valid_lnd_degrees(t, 8) == [2, 3, 4, 5, 6, 7, 8]


def test_least_lnd_degree_across_acceptance_grid():
    # the closed form: every x = e (mod d) with m <= x <= bound, on a grid
    # well past the acceptance one
    for d, e, m in grid_triples(20, 10):
        t = SurfaceTriple(d, e, m)
        bound = m + 2 * d
        want = [x for x in range(m, bound + 1) if (x - e) % d == 0]
        assert find_valid_lnd_degrees(t, bound) == want, (d, e, m)


def test_one_generator_binds_the_lnd_rule():
    # the lemma of find_valid_lnd_degrees: for b >= 1 the rule reads
    # a + x >= m, and (0, 1, m*e' mod d) is a generator with the least a, 0,
    # over those with b >= 1
    from pseudoplane.cyclic_quotient import _keeps_ring

    for m in range(1, 25):
        for a in range(10):
            for b in range(1, 6):
                for x in range(1, 30):
                    assert _keeps_ring((a, b, 0), x, m) == (a + x >= m), (a, b, x, m)
    for d, e, m in grid_triples(29, 24):
        t = SurfaceTriple(d, e, m)
        basis = hilbert_basis(standard_action(t))
        assert (0, 1, m * t.e_prime % d) in basis, (d, e, m)
        assert min(a for a, b, _ in basis if b >= 1) == 0, (d, e, m)


def test_find_valid_lnd_degrees_bound_precondition():
    t = SurfaceTriple(3, 2, 2)
    with pytest.raises(ValueError, match="bound"):
        find_valid_lnd_degrees(t, 4)


