"""Shared builders, independent oracles, and hypothesis strategies."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from pseudoplane import (
    DpdPair,
    MultiPoly,
    NonPolynomial,
    QDivisor,
    RingElement,
    StructuralError,
    graded_piece,
    normal_form,
    normalized_ring,
    parse_poly,
    poly_divmod,
    s_weight,
    standard_action,
    weight_piece_generator,
)
from pseudoplane import report
from pseudoplane.hypersurface_ring import _rhs_power, _to_localization

F = Fraction


def upoly(var: str, coeffs: dict[int, object]) -> MultiPoly:
    return MultiPoly((var,), {(e,): c for e, c in coeffs.items()})


def element(ring, text: str):
    """The normal form of a polynomial written in the ring's variables."""
    return normal_form(ring, parse_poly(text, ring.variables))


def relation(ring) -> MultiPoly:
    """The defining polynomial u^k * second - P(s)."""
    return ring.monomial(ring.k, 1, 0) - ring.P.with_variables(ring.variables)


def grid_triples(d_max: int = 6, m_max: int = 5) -> list[tuple[int, int, int]]:
    """The sweep's triples, by default those of the acceptance grid."""
    return list(report.grid_triples(d_max, m_max))


# -- independent oracles ---------------------------------------------------------


def divisors_of(n: int) -> list[int]:
    n = abs(n)
    out = [k for k in range(1, n + 1) if n % k == 0]
    return out


def rational_roots(p: MultiPoly) -> dict[Fraction, int]:
    """Rational roots with multiplicities, by the rational-root theorem and
    repeated exact division (independent of any divisor arithmetic)."""
    var = p.variables[0]
    if p.is_zero():
        raise ValueError("zero polynomial")
    result: dict[Fraction, int] = {}
    v = p.valuation(var)
    if v > 0:
        result[F(0)] = v
        p = poly_divmod(p, upoly(var, {v: 1}))[0]
    if p.degree() < 1:
        return result
    scale = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = {e[0]: int(c * scale) for e, c in p.terms.items()}
    a0 = ints[0]
    an = ints[max(ints)]
    candidates = {
        F(sign * a, b)
        for a in divisors_of(a0)
        for b in divisors_of(an)
        for sign in (1, -1)
    }
    for r in sorted(candidates):
        factor = upoly(var, {1: 1, 0: -r})
        mult = 0
        while True:
            quo, rem = poly_divmod(p, factor)
            if not rem.is_zero():
                break
            p = quo
            mult += 1
        if mult:
            result[r] = mult
    return result


def oracle_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Sum through the validating constructor, as MultiPoly.__add__ once did."""
    out = dict(p.terms)
    for exps, coeff in q.terms.items():
        total = out.get(exps, Fraction(0)) + coeff
        if total:
            out[exps] = total
        else:
            out.pop(exps, None)
    return MultiPoly(p.variables, out)


def oracle_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Product through the validating constructor, as MultiPoly.__mul__ once did."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            total = out.get(key, Fraction(0)) + c1 * c2
            if total:
                out[key] = total
            else:
                del out[key]
    return MultiPoly(p.variables, out)


def oracle_normal_form(ring, p: MultiPoly) -> MultiPoly:
    """Term-by-term rewriting u^k * second -> P(s), adding one validated
    polynomial per input term (quadratic in the number of terms)."""
    out = MultiPoly(ring.variables)
    for (a, b, c), coeff in p.terms.items():
        j = min(a // ring.k, b)
        term = MultiPoly.monomial(ring.variables, (a - j * ring.k, b - j, c), coeff)
        rhs = MultiPoly.constant(ring.variables, 1)
        for _ in range(j):
            rhs = oracle_mul(rhs, ring.P.with_variables(ring.variables))
        out = oracle_add(out, oracle_mul(rhs, term))
    return out


def _from_localization(ring, loc: dict[int, dict[int, object]]):
    """Reassemble a Laurent expansion into a normal-form element, or report
    the first u-exponent whose s-part is not divisible by the required power
    of s^d - 1."""
    m = ring.k
    terms = {}
    for j in sorted(loc):
        row = loc[j]
        if not row:
            continue
        f = MultiPoly._trusted(("s",), {(e,): c for e, c in row.items()})
        if j >= 0:
            a, b, g = j, 0, f
        else:
            b = (-j + m - 1) // m
            g, rem = poly_divmod(f, _rhs_power(ring.P, b))
            if not rem.is_zero():
                top = max(rem.terms)
                coeff = rem.terms[top]
                return NonPolynomial(f"{coeff}*u^{j}*s^{top[0]}")
            a = j + m * b
        for (e,), coeff in g.terms.items():
            terms[(a, b, e)] = coeff
    # distinct u-exponents j = a - m*b give distinct (a, b), so no key repeats
    return RingElement(ring, MultiPoly._trusted(ring.variables, terms))


def derivation_apply(ring, e: int, x):
    """The degree-e derivation u^e * d/ds applied to x on the normalized ring,
    reassembled into normal form (a NonPolynomial if the image leaves the
    ring).  The oracle of derivation_leaves_ring and nilpotency_index, which
    never rebuild a normal form."""
    image: dict[int, dict[int, object]] = {}
    for j, row in _to_localization(ring, x.poly).items():
        target = image.setdefault(j + e, {})
        for c, coeff in row.items():
            if c == 0:
                continue
            target[c - 1] = coeff * c
    return _from_localization(ring, {j: row for j, row in image.items() if row})


def oracle_leaves_ring(ring, e: int, x):
    """derivation_leaves_ring through one normal-form derivation step."""
    image = derivation_apply(ring, e, x)
    return image if isinstance(image, NonPolynomial) else None


def oracle_nilpotency_index(ring, e: int, x):
    """nilpotency_index by iterating derivation_apply, each iterate
    reassembled into normal form and expanded again."""
    bound = 1 + s_weight(x)
    y = x
    for n in range(1, bound + 1):
        y = derivation_apply(ring, e, y)
        if isinstance(y, NonPolynomial):
            return None
        if y.poly.is_zero():
            return n
    raise StructuralError(f"nilpotency bound {bound} exceeded")


def assert_clean(p: MultiPoly) -> None:
    """The invariants the validating constructor enforces hold for p."""
    assert p == MultiPoly(p.variables, p.terms)
    for exps, coeff in p.terms.items():
        assert type(coeff) in (int, Fraction) and coeff != 0
        assert len(exps) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in exps)


def homogeneous_weight(x) -> int | None:
    """Torus weight of a ring element under u -> 1, second -> -k, s -> 0
    (None for 0 or an inhomogeneous element)."""
    weights = {(a - x.ring.k * b) for a, b, _ in x.poly.terms}
    return weights.pop() if len(weights) == 1 else None


def action_weight(action, exps: tuple[int, ...], variables: tuple[str, ...]) -> int:
    """Residue of a monomial under a diagonal cyclic action (0 = invariant)."""
    return sum(e * action.weights[v] for e, v in zip(exps, variables)) % action.modulus


def weight_piece_is_rank_one(triple, n: int, exp_bound: int = 24) -> bool:
    """Re-verify by enumeration that every invariant normal-form monomial of
    weight n with exponents <= exp_bound is the generator times a power of s^d."""
    action = standard_action(triple)
    variables = normalized_ring(triple).variables
    ga, gb, gc = weight_piece_generator(triple, n)
    m, d = triple.m, triple.d
    for a in range(exp_bound + 1):
        for b in range(exp_bound + 1):
            if a - m * b != n or (b and a >= m):
                continue
            for c in range(exp_bound + 1):
                if action_weight(action, (a, b, c), variables) != 0:
                    continue
                if not (a == ga and b == gb and c >= gc and (c - gc) % d == 0):
                    return False
    return True


def monoid_points(d: int, weights: tuple[int, int, int], bound: int) -> set[tuple[int, int, int]]:
    return {
        (a, b, c)
        for a in range(bound + 1)
        for b in range(bound + 1)
        for c in range(bound + 1)
        if (a, b, c) != (0, 0, 0)
        and (a * weights[0] + b * weights[1] + c * weights[2]) % d == 0
    }


def oracle_hilbert_basis(d: int, weights: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """The quadratic minimality filter: an invariant point of [0, d]^3 is a
    generator iff no other invariant point lies below it componentwise."""
    points = sorted(monoid_points(d, weights, d))
    basis = [
        x
        for x in points
        if not any(y != x and all(a <= b for a, b in zip(y, x)) for y in points)
    ]
    return tuple(sorted(basis))


def oracle_product_defect(pair, n: int, n_prime: int) -> dict[Fraction, int]:
    """Fraction-keyed defect piece(n) + piece(n') - piece(n+n') over the
    sorted union of the three pieces' supports, as product_defect once was."""
    e1 = graded_piece(pair, n)
    e2 = graded_piece(pair, n_prime)
    e12 = graded_piece(pair, n + n_prime)
    out: dict[Fraction, int] = {}
    for p in sorted(e1.keys() | e2.keys() | e12.keys()):
        v = e1.get(p, 0) + e2.get(p, 0) - e12.get(p, 0)
        if v:
            out[p] = v
    return out


def oracle_measured_defect(triple, n: int, n_prime: int) -> dict[Fraction, int]:
    """{0: kappa, 1: lam} with Fraction keys, read off the product of the
    generators through MultiPoly valuation, degree and an uncached power, as
    product_structure_check once did."""
    ring = normalized_ring(triple)
    gens = [weight_piece_generator(triple, k) for k in (n, n_prime, n + n_prime)]
    prod = normal_form(ring, ring.monomial(*gens[0]) * ring.monomial(*gens[1])).poly
    a12, b12, c12 = gens[2]
    assert all(a == a12 and b == b12 and c >= c12 for a, b, c in prod.terms)
    r = MultiPoly(("s",), {(c - c12,): v for (_, _, c), v in prod.terms.items()})
    d = triple.d
    val = r.valuation("s")
    span = r.degree() - val
    assert val % d == 0 and span % d == 0
    s = upoly("s", {1: 1})
    assert r == s ** val * (s ** d - 1) ** (span // d)
    return {p: v for p, v in ((F(0), val // d), (F(1), span // d)) if v}


def reachable_sums(generators: list[tuple[int, int, int]], bound: int) -> set[tuple[int, int, int]]:
    """All nonzero sums of generators with every coordinate <= bound (BFS)."""
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = (x[0] + g[0], x[1] + g[1], x[2] + g[2])
            if y in seen or any(c > bound for c in y):
                continue
            seen.add(y)
            frontier.append(y)
    seen.discard((0, 0, 0))
    return seen


# -- hypothesis strategies -------------------------------------------------------


def small_fractions(max_abs: int = 5, max_den: int = 4):
    return st.fractions(min_value=-max_abs, max_value=max_abs, max_denominator=max_den)


def small_upolys(var: str = "s", max_deg: int = 5, max_terms: int = 4):
    return st.dictionaries(
        st.integers(0, max_deg), small_fractions(), max_size=max_terms
    ).map(lambda d: upoly(var, d))


def small_multipolys(variables: tuple[str, ...], max_exp: int = 3, max_terms: int = 4):
    exps = st.tuples(*([st.integers(0, max_exp)] * len(variables)))
    return st.dictionaries(exps, small_fractions(), max_size=max_terms).map(
        lambda d: MultiPoly(variables, d)
    )


_POINTS = st.sampled_from([F(0), F(1), F(2), F(-1), F(1, 2), F(3), F(-1, 3)])


def small_divisors():
    return st.dictionaries(_POINTS, small_fractions(), max_size=3).map(QDivisor)


def nonpositive_divisors():
    coeffs = st.fractions(min_value=-3, max_value=0, max_denominator=4)
    return st.dictionaries(_POINTS, coeffs, max_size=3).map(QDivisor)


@st.composite
def dpd_pairs(draw):
    """Valid pairs whose points lie in D+ only, in D- only, or in both, with
    integral and non-integral points (1/2, -1/3) alike."""
    plus: dict[Fraction, Fraction] = {}
    minus: dict[Fraction, Fraction] = {}
    nonpositive = st.fractions(min_value=-3, max_value=0, max_denominator=4)
    for p in draw(st.lists(_POINTS, unique=True, max_size=4)):
        where = draw(st.sampled_from(("plus", "minus", "both")))
        if where == "plus":
            plus[p] = draw(nonpositive)
        elif where == "minus":
            minus[p] = draw(nonpositive)
        else:
            plus[p] = draw(small_fractions())
            minus[p] = draw(nonpositive) - plus[p]
    return DpdPair(QDivisor(plus), QDivisor(minus))
