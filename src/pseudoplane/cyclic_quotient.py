"""Diagonal cyclic symmetries of hypersurface rings and their invariants.

Roots of unity are represented by residue indices only: fixed-locus and
component-permutation questions are answered with modular arithmetic plus the
gcd/squarefree data of the defining polynomial, never with numeric roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import add
from typing import NamedTuple

from .dpd_presentation import product_defect, pseudoplane_dpd_pair
from .exact_algebra import MultiPoly, Scalar, format_poly
from .hypersurface_ring import (
    HypersurfaceRing,
    RingElement,
    StructuralError,
    _normalized_ring,
    _rhs_power,
    derivation_leaves_ring,
    nilpotency_index,
    normal_form,
)
from .qdivisor import DpdPair


@dataclass(frozen=True)
class CyclicAction:
    """Diagonal action of the cyclic group of order `modulus`: the chosen
    generator scales each variable by the primitive root raised to its weight."""

    modulus: int
    weights: dict[str, int]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be a positive integer: {self.modulus}")
        object.__setattr__(
            self, "weights", {v: w % self.modulus for v, w in self.weights.items()}
        )


def mod_inverse(e: int, d: int) -> int:
    """Inverse of e modulo d, represented in [1, d] (1 when d = 1)."""
    if d < 1:
        raise ValueError(f"modulus must be a positive integer: {d}")
    if d == 1:
        return 1
    g = math.gcd(e, d)
    if g != 1:
        raise ValueError(f"e and d must be coprime: gcd({e}, {d}) = {g}")
    return pow(e % d, -1, d)


@dataclass(frozen=True)
class SurfaceTriple:
    """A validated input (d, e, m) with the constants derived from it.

    e' inverts e mod d, k = lcm(d, m) = m*m' = d*d', and l = -e'*d', so that
    k*e' + d*l = 0.  ``pair`` is the divisor pair presenting the surface,
    D+ = -(e'/d)[0] and D- = (e'/d)[0] - (1/m)[1].
    """

    d: int
    e: int
    m: int
    e_prime: int = field(init=False)
    k: int = field(init=False)
    m_prime: int = field(init=False)
    d_prime: int = field(init=False)
    l: int = field(init=False)
    pair: DpdPair = field(init=False)

    def __post_init__(self):
        d, e, m = self.d, self.e, self.m
        for name, value in (("d", d), ("e", e), ("m", m)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if math.gcd(e, d) != 1:
            raise ValueError(
                f"e and d must be coprime for the quotient to act freely: gcd({e}, {d}) = {math.gcd(e, d)}"
            )
        e_prime = mod_inverse(e, d)
        k = d * m // math.gcd(d, m)
        derived = {
            "e_prime": e_prime,
            "k": k,
            "m_prime": k // m,
            "d_prime": k // d,
            "l": -e_prime * (k // d),
            "pair": pseudoplane_dpd_pair(d, e_prime, m),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def normalized_ring(triple: SurfaceTriple) -> HypersurfaceRing:
    """The normalized model u^m w - (s^d - 1) for the triple."""
    return _normalized_ring(triple.m, triple.d)


def induced_action(triple: SurfaceTriple) -> CyclicAction:
    """Weights (e', -m*e', 1) on (u, w, s): the action inherited from the
    covering construction through w = (s^d - 1)/u^m."""
    return CyclicAction(
        triple.d,
        {"u": triple.e_prime, "w": -triple.m * triple.e_prime, "s": 1},
    )


def standard_action(triple: SurfaceTriple) -> CyclicAction:
    """Weights (1, -m, e) on (u, w, s): the generator-change of the induced
    action that exhibits the classified form."""
    return CyclicAction(triple.d, {"u": 1, "w": -triple.m, "s": triple.e})


class FreenessResult(NamedTuple):
    free: bool
    fixed_loci: list[dict]


def freeness_check(action: CyclicAction, ring: HypersurfaceRing) -> FreenessResult:
    """Decide freeness of the action on the hypersurface.

    Requires the relation to be semi-invariant (all monomials of
    u^k*second - P(s) share one residue).  For each nontrivial group power b
    and each zero/nonzero coordinate pattern, the pattern is a fixed locus iff
    every coordinate allowed to be nonzero has b*weight = 0 mod d and the
    surface has a point with exactly that pattern; the latter reduces to
    whether P vanishes at 0 and whether P has a nonzero root, both decided
    from the term data.
    """
    d = action.modulus
    variables = ring.variables
    try:
        wts = [action.weights[v] for v in variables]
    except KeyError as exc:
        raise ValueError(f"action is missing a weight for variable {exc}") from None
    residues = {(ring.k * wts[0] + wts[1]) % d}
    for (exp,), _ in ring.P.terms.items():
        residues.add((exp * wts[2]) % d)
    if len(residues) > 1:
        raise ValueError(
            f"relation is not semi-invariant under the action: residues {sorted(residues)}"
        )
    vanishes_at_zero = ring.P.constant_coefficient() == 0
    # nonzero roots exist iff P is not a constant times a power of s
    has_nonzero_root = ring.P.degree() > ring.P.valuation("s")

    def admits(u_nz: bool, v_nz: bool, s_nz: bool) -> bool:
        if not u_nz:
            # second coordinate is free on u = 0; membership needs P(S) = 0
            return has_nonzero_root if s_nz else vanishes_at_zero
        if v_nz:
            return True if s_nz else not vanishes_at_zero
        return has_nonzero_root if s_nz else vanishes_at_zero

    loci: list[dict] = []
    for b in range(1, d):
        for pattern in product((False, True), repeat=3):
            if any(nz and (b * w) % d != 0 for nz, w in zip(pattern, wts)):
                continue
            if admits(*pattern):
                loci.append(
                    {
                        "power": b,
                        "pattern": {
                            v: ("nonzero" if nz else "zero")
                            for v, nz in zip(variables, pattern)
                        },
                    }
                )
    return FreenessResult(not loci, loci)


def hilbert_basis(action: CyclicAction) -> list[tuple[int, ...]]:
    """Minimal generating set of the monoid of invariant exponent vectors.

    The box [0, d]^3 holds every generator: d*e_i is invariant for each axis,
    so any vector with a coordinate exceeding d is reducible.  For each
    (a, b) in [0, d]^2 only the least c making (a, b, c) invariant (the least
    nonzero one for (0, 0)) can give a generator, because a larger solution
    c' lies above it by the nonzero invariant vector (0, 0, c' - c).  That c
    solves c*w2 = -(a*w0 + b*w1) mod d, which has a solution iff
    g = gcd(w2, d) divides the right-hand side.  An element is a generator
    iff no nonzero invariant vector sits strictly below it componentwise (the
    difference is then automatically invariant).  Exponent vectors follow the
    order of ``action.weights``.
    """
    if len(action.weights) != 3:
        raise ValueError(f"expected a three-variable action, got {tuple(action.weights)}")
    d = action.modulus
    w0, w1, w2 = action.weights.values()
    g = math.gcd(w2, d)
    step = d // g
    inv = pow(w2 // g, -1, step) if step > 1 else 0
    points = [(0, 0, step)]
    for a in range(d + 1):
        for b in range(d + 1):
            r = (a * w0 + b * w1) % d
            if (a or b) and r % g == 0:
                points.append((a, b, (-(r // g) * inv) % step))
    # a reducible point lies above a minimal invariant point, which is a basis
    # element of smaller total degree, so scanning by total degree suffices
    basis: list[tuple[int, ...]] = []
    for x in sorted(points, key=sum):
        if not any(all(a <= b for a, b in zip(y, x)) for y in basis):
            basis.append(x)
    return sorted(basis)


def weight_piece_generator(triple: SurfaceTriple, n: int) -> tuple[int, int, int]:
    """Exponents (a, b, c) of the monomial u^a w^b s^c generating the weight-n
    invariant piece of the normalized ring.

    (a, b) is pinned by a - m*b = n together with the normal-form constraint
    (a < m or b = 0); c is the least non-negative solution of the invariance
    congruence, c = (-e'*n) mod d.  The full piece is this generator times the
    polynomials in s^d (rank one).
    """
    m = triple.m
    if n >= 0:
        a, b = n, 0
    else:
        a = n % m
        b = (a - n) // m
    c = (-triple.e_prime * n) % triple.d
    return (a, b, c)


def monomial_element(ring: HypersurfaceRing, exps: tuple[int, int, int]) -> RingElement:
    return normal_form(ring, ring.monomial(*exps))


class ProductCheck(NamedTuple):
    measured: dict[Scalar, int]
    predicted: dict[Scalar, int]
    match: bool


def _format_residual(rest: dict[int, Scalar]) -> str:
    """The residual factor {s-exponent: coeff} as a polynomial in s."""
    return format_poly(MultiPoly._trusted(("s",), {(c,): v for c, v in rest.items()}))


def product_structure_check(triple: SurfaceTriple, n: int, n_prime: int) -> ProductCheck:
    """Compare the measured product structure of invariant weight pieces with
    the divisor-pair prediction.

    The product of the weight-n and weight-n' generators reduces to
    (s^d)^kappa * (s^d - 1)^lam times the weight-(n+n') generator; with s^d
    playing the role of the coordinate t at the point 0 and s^d - 1 = u^m w at
    the point 1, the exponents {0: kappa, 1: lam} must equal the exponent
    defect of the graded pieces.  A failed exact division here means the piece
    convention is wrong and raises :class:`StructuralError`.
    """
    d = triple.d
    ring = _normalized_ring(triple.m, d)
    g1 = weight_piece_generator(triple, n)
    g2 = weight_piece_generator(triple, n_prime)
    g12 = weight_piece_generator(triple, n + n_prime)
    # the product of the two generator monomials: exponents add
    g1g2 = MultiPoly._trusted(ring.variables, {tuple(map(add, g1, g2)): 1})
    prod = normal_form(ring, g1g2)
    a12, b12, c12 = g12
    rest: dict[int, Scalar] = {}
    for (a, b, c), coeff in prod.poly.terms.items():
        if a != a12 or b != b12 or c < c12:
            raise StructuralError(
                f"product of weight pieces {n}, {n_prime} is not a multiple of the "
                f"weight-{n + n_prime} generator: term u^{a}*w^{b}*s^{c} vs generator {g12}"
            )
        rest[c - c12] = coeff
    val = min(rest)
    span = max(rest) - val
    if val % d or span % d:
        raise StructuralError(
            f"residual factor {_format_residual(rest)} is not of the form (s^d)^kappa*(s^d-1)^lam"
        )
    kappa, lam = val // d, span // d
    # s^val * (s^d - 1)^lam: the cached power shifted by val
    rebuilt = {e + val: v for (e,), v in _rhs_power(ring.P, lam).terms.items()}
    if rest != rebuilt:
        raise StructuralError(
            f"residual factor {_format_residual(rest)} does not factor as s^{val}*(s^{d}-1)^{lam}"
        )
    measured = {p: v for p, v in ((0, kappa), (1, lam)) if v}
    predicted = product_defect(triple.pair, n, n_prime)
    return ProductCheck(measured, predicted, measured == predicted)


def same_subgroup(a1: CyclicAction, a2: CyclicAction) -> bool:
    """Whether the two diagonal actions generate the same symmetry group:
    some unit c mod d carries the weights of a1 to the weights of a2."""
    if a1.modulus != a2.modulus:
        raise ValueError(f"modulus mismatch: {a1.modulus} vs {a2.modulus}")
    if set(a1.weights) != set(a2.weights):
        raise ValueError("actions are defined on different variable sets")
    d = a1.modulus
    for c in range(1, d + 1):
        if math.gcd(c, d) != 1:
            continue
        if all((c * w) % d == a2.weights[v] for v, w in a1.weights.items()):
            return True
    return False


class ComponentPermutation(NamedTuple):
    cycles: tuple[tuple[int, ...], ...]
    transitive: bool


def component_permutation(d: int, e: int) -> ComponentPermutation:
    """Action of the symmetry generator on the d components of the degenerate
    fiber, indexed by residues j mod d (component j maps to j + e)."""
    if d < 1:
        raise ValueError(f"d must be a positive integer: {d}")
    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for start in range(d):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = (start + e) % d
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = (j + e) % d
        cycles.append(tuple(cycle))
    return ComponentPermutation(tuple(cycles), len(cycles) == 1)


_CERTIFY_WEIGHT = 8


def find_valid_lnd_degrees(triple: SurfaceTriple, bound: int) -> list[int]:
    """Degrees e in [1, bound], congruent to the s-weight of the standard
    action mod d, whose derivation maps every invariant monoid generator into
    the ring (hence, by the product rule, preserves the whole invariant ring).

    Each returned degree is additionally certified locally nilpotent on the
    weight-piece generators |n| <= _CERTIFY_WEIGHT (8).  An empty result is a
    finding, not an error.
    """
    if bound < triple.m + triple.d:
        raise ValueError(
            f"bound must be at least m + d = {triple.m + triple.d}, got {bound}"
        )
    ring = normalized_ring(triple)
    action = standard_action(triple)
    basis = hilbert_basis(action)
    generators = [monomial_element(ring, g) for g in basis]
    pieces = [
        monomial_element(ring, weight_piece_generator(triple, n))
        for n in range(-_CERTIFY_WEIGHT, _CERTIFY_WEIGHT + 1)
    ]
    found: list[int] = []
    # the least degree >= 1 congruent to e mod d, then every d-th one
    for degree in range((triple.e - 1) % triple.d + 1, bound + 1, triple.d):
        if any(derivation_leaves_ring(ring, degree, g) is not None for g in generators):
            continue
        if all(nilpotency_index(ring, degree, x) is not None for x in pieces):
            found.append(degree)
    return found
