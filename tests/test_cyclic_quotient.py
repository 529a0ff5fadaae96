import math

import pytest

from helpers import (
    F,
    action_weight,
    derivation_apply,
    grid_triples,
    homogeneous_weight,
    monoid_points,
    reachable_sums,
    upoly,
    weight_piece_is_rank_one,
)

from pseudoplane import (
    CyclicAction,
    HypersurfaceRing,
    RingElement,
    SurfaceTriple,
    component_permutation,
    find_valid_lnd_degrees,
    freeness_check,
    hilbert_basis,
    induced_action,
    mod_inverse,
    monomial_element,
    normalized_ring,
    product_structure_check,
    pseudoplane_dpd_pair,
    same_subgroup,
    standard_action,
    weight_piece_generator,
)

TRIPLES = [SurfaceTriple(d, e, m) for d, e, m in grid_triples(5, 4)]


def test_mod_inverse():
    assert mod_inverse(2, 3) == 2
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(1, 1) == 1
    assert mod_inverse(3, 5) == 2
    with pytest.raises(ValueError, match="coprime"):
        mod_inverse(2, 4)


def test_mod_inverse_brute_force():
    for d in range(1, 12):
        for e in range(1, 12):
            if math.gcd(e, d) != 1:
                continue
            inv = mod_inverse(e, d)
            assert 1 <= inv <= d
            assert (e * inv) % d == 1 % d


def test_surface_triple_derived_constants():
    t = SurfaceTriple(3, 2, 2)
    assert (t.e_prime, t.k, t.m_prime, t.d_prime, t.l) == (2, 6, 3, 2, -4)
    assert t.k * t.e_prime + t.d * t.l == 0
    assert t.pair == pseudoplane_dpd_pair(3, 2, 2)
    with pytest.raises(ValueError, match="coprime"):
        SurfaceTriple(4, 2, 3)
    with pytest.raises(ValueError):
        SurfaceTriple(True, 1, 1)
    with pytest.raises(ValueError):
        SurfaceTriple(3, 2.0, 2)


# -- freeness ---------------------------------------------------------------------


def xyz_ring(m, d):
    return HypersurfaceRing(m, upoly("s", {d: 1, 0: -1}), "w")


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
    from pseudoplane import graded_piece

    for t in TRIPLES:
        pair = pseudoplane_dpd_pair(t.d, t.e_prime, t.m)
        for n in range(-8, 9):
            c = (-t.e_prime * n) % t.d
            assert (n * t.e_prime + c) % t.d == 0
            ceiling = (n * t.e_prime + c) // t.d
            assert ceiling == math.ceil(F(n * t.e_prime, t.d))
            if n != 0:
                assert graded_piece(pair, n).get(0, 0) == ceiling


def test_weight_pieces_have_rank_one():
    for t in TRIPLES[:20]:
        for n in (-5, -2, -1, 0, 1, 2, 5):
            assert weight_piece_is_rank_one(t, n, exp_bound=12)


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


def test_product_structure_across_grid():
    for t in TRIPLES:
        for n in range(-6, 7):
            for n_prime in range(-6, 7):
                assert product_structure_check(t, n, n_prime).match


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


def test_actions_generate_same_group_across_grid():
    for t in TRIPLES:
        assert same_subgroup(induced_action(t), standard_action(t))


def test_component_permutation():
    cycles, transitive = component_permutation(3, 2)
    assert cycles == ((0, 2, 1),) and transitive
    cycles, transitive = component_permutation(4, 2)
    assert cycles == ((0, 2), (1, 3)) and not transitive
    cycles, transitive = component_permutation(1, 1)
    assert cycles == ((0,),) and transitive


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
    # the least valid degree is the least x >= m with x = e (mod d)
    for d, e, m in grid_triples():
        t = SurfaceTriple(d, e, m)
        least = next(x for x in range(m, m + d) if (x - e) % d == 0)
        assert min(find_valid_lnd_degrees(t, t.m + t.d)) == least, (d, e, m)


def test_find_valid_lnd_degrees_bound_precondition():
    t = SurfaceTriple(3, 2, 2)
    with pytest.raises(ValueError, match="bound"):
        find_valid_lnd_degrees(t, 4)


def test_equivariance_of_valid_derivations():
    for t in TRIPLES[:16]:
        ring = normalized_ring(t)
        action = standard_action(t)
        degrees = find_valid_lnd_degrees(t, t.m + 2 * t.d)
        assert degrees
        for degree in degrees[:2]:
            for g in hilbert_basis(action):
                x = monomial_element(ring, g)
                image = derivation_apply(ring, degree, x)
                assert isinstance(image, RingElement)
                if image.poly.is_zero():
                    continue
                # image stays invariant and moves up by the degree
                for exps in image.poly.terms:
                    assert action_weight(action, exps, ring.variables) == 0
                assert homogeneous_weight(image) == homogeneous_weight(x) + degree
