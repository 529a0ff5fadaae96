"""Hypersurface coordinate rings C[u, y, s]/(u^k * y - P(s)) with rewriting.

The defining relation is used as a left-to-right rewrite rule: one factor of
the second variable and k factors of u are replaced by P(s) per step.  Each
step strictly decreases the exponent of the second variable and distinct
monomials reduce independently, so rewriting terminates and the normal form is
unique.  The torus action scales u with weight 1 and the second variable with
weight -k (s fixed), making the relation homogeneous of weight 0.

For the normalized relation u^m * w = s^d - 1 the module also certifies the
degree-e derivation that raises weight by e.  On the localization
C[u^(+-1), s], which contains the ring once w = (s^d - 1)/u^m is expanded, it
is u^e * d/ds.  An element is expanded into Laurent rows {u-exponent j ->
s-polynomial} once; the derivation moves row j to j + e and differentiates
it, and an expansion lies in the ring iff each row with j < 0 is divisible by
(s^d - 1)^ceil(-j/m).  Only that membership test is run, never a conversion
back to normal form.  An image that leaves the ring is reported with a
:class:`NonPolynomial` marker rather than an error, because the derivation is
only required to preserve the invariant subring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact_algebra import (
    MultiPoly,
    Scalar,
    format_poly,
    poly_divmod,
    squarefree_decomposition,
    substitute_power,
)


class StructuralError(RuntimeError):
    """A step that the construction guarantees has failed (the nilpotency
    filtration bound); signals a wrong convention or a bug, not bad input."""


@dataclass(frozen=True)
class HypersurfaceRing:
    """Presentation of C[u, second, s] / (u^k * second - P(s))."""

    k: int
    P: MultiPoly
    second_var: str = "v"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be a positive integer: {self.k}")
        if self.P.variables != ("s",):
            raise ValueError(f"P must be univariate in 's', got variables {self.P.variables}")
        if self.P.is_zero():
            raise ValueError("P must be nonzero")
        if self.second_var in ("u", "s"):
            raise ValueError(f"second variable may not shadow u or s: {self.second_var!r}")

    @property
    def variables(self) -> tuple[str, str, str]:
        return ("u", self.second_var, "s")

    def monomial(self, a: int, b: int, c: int, coeff: Scalar = 1) -> MultiPoly:
        return MultiPoly.monomial(self.variables, (a, b, c), coeff)

    def serialize(self) -> dict:
        return {"k": self.k, "P": format_poly(self.P), "second_var": self.second_var}


@dataclass(frozen=True)
class RingElement:
    """An element of a hypersurface ring, stored in normal form: no monomial
    has u-exponent >= k together with a positive second-variable exponent."""

    ring: HypersurfaceRing
    poly: MultiPoly


@dataclass(frozen=True)
class NonPolynomial:
    """Marker for a derivation image that leaves the ring; names an offending
    localized monomial (negative u-exponent that cannot be absorbed)."""

    monomial: str


class SmoothCheck(NamedTuple):
    smooth: bool
    witness: tuple[tuple[MultiPoly, int], ...]


class NormalizationWitness(NamedTuple):
    power_identity: bool
    normalized_smooth: bool


@lru_cache(maxsize=512)
def _rhs_power(p: MultiPoly, j: int) -> MultiPoly:
    """P(s)^j as a univariate polynomial in s; the one memo of such powers."""
    return p ** j


def normal_form(ring: HypersurfaceRing, p: MultiPoly) -> RingElement:
    """Exhaustively rewrite u^k * second -> P(s).

    min(a // k, b) steps apply to a monomial u^a * second^b * s^c, after which
    either a < k or b = 0; the replacement only involves s, so one pass per
    monomial reaches the unique normal form.
    """
    if p.variables != ring.variables:
        raise ValueError(f"polynomial variables {p.variables} do not match ring {ring.variables}")
    k = ring.k
    out: dict[tuple[int, int, int], Scalar] = {}
    for (a, b, c), coeff in p.terms.items():
        j = min(a // k, b)
        if j == 0:
            out[a, b, c] = out.get((a, b, c), 0) + coeff
            continue
        a, b = a - j * k, b - j
        for (e,), pc in _rhs_power(ring.P, j).terms.items():
            key = (a, b, c + e)
            out[key] = out.get(key, 0) + coeff * pc
    clean = {key: v for key, v in out.items() if v}
    return RingElement(ring, MultiPoly._trusted(ring.variables, clean))


def build_covering_ring(k: int, d: int, e_prime: int, l: int, q: MultiPoly) -> HypersurfaceRing:
    """Ring C[u, v, s]/(u^k v - P(s)) with P(s) = Q(s^d) * s^(k*e' + d*l).

    Q must be monic with Q(0) != 0, and the exponent k*e' + d*l must be
    non-negative.  When the parameters come from a surface triple the exponent
    vanishes and P(s) = Q(s^d) exactly.
    """
    if q.variables != ("t",):
        raise ValueError(f"Q must be univariate in 't', got {q.variables}")
    if q.is_zero() or q.leading_coefficient() != 1:
        raise ValueError("Q must be monic")
    if q.constant_coefficient() == 0:
        raise ValueError("Q(0) must be nonzero")
    if d < 1:
        raise ValueError(f"d must be a positive integer: {d}")
    exponent = k * e_prime + d * l
    if exponent < 0:
        raise ValueError(f"negative s-exponent k*e' + d*l = {exponent}")
    p = substitute_power(q, d, "s")
    if exponent:
        p = p * MultiPoly.monomial(("s",), (exponent,))
    return HypersurfaceRing(k, p, "v")


# A sweep's rings have P = (s^d - 1)^m', which depends only on (d, m'): the
# acceptance grid needs 14 distinct decompositions for its 60 triples.
@lru_cache(maxsize=128)
def _squarefree(p: MultiPoly) -> tuple[tuple[MultiPoly, int], ...]:
    """squarefree_decomposition(p) as a tuple, the one memo of it."""
    return tuple(squarefree_decomposition(p))


def smooth_check(ring: HypersurfaceRing) -> SmoothCheck:
    """Smooth iff k = 1 or P is squarefree; otherwise the witness lists the
    factors of P's squarefree decomposition of multiplicity >= 2
    (s-coordinates of the singular points along u = 0)."""
    if ring.k == 1:
        return SmoothCheck(True, ())
    witness = tuple((f, mult) for f, mult in _squarefree(ring.P) if mult >= 2)
    return SmoothCheck(not witness, witness)


def fiber_analysis(ring: HypersurfaceRing, u_value: Scalar) -> list[tuple[int, int]]:
    """Components of the fiber over u = u_value of the u-projection, as
    (component count, multiplicity) pairs.

    Away from u = 0 the fiber is a single reduced line.  Over u = 0 it is
    {P(s) = 0} in the (second, s)-plane: one line per distinct root of P with
    the root's multiplicity, read off the squarefree decomposition (component
    count = degree of the squarefree factor; roots are never extracted).
    """
    if Fraction(u_value) != 0:
        return [(1, 1)]
    return [(f.degree(), mult) for f, mult in _squarefree(ring.P)]


@lru_cache(maxsize=64)
def _pure_power_base(d: int) -> MultiPoly:
    """s^d - 1, the right-hand side of the normalized relation."""
    return MultiPoly(("s",), {(d,): 1, (0,): -1})


@lru_cache(maxsize=64)
def _normalized_ring(m: int, d: int) -> HypersurfaceRing:
    """The normalized model u^m w - (s^d - 1)."""
    return HypersurfaceRing(m, _pure_power_base(d), "w")


def normalize_power_relation(
    ring: HypersurfaceRing, m: int, d: int
) -> tuple[HypersurfaceRing, NormalizationWitness]:
    """Normalize the covering ring u^k v = (s^d - 1)^m' (k = m*m') to u^m w = s^d - 1.

    The integral element w = (s^d - 1)/u^m satisfies w^m' = v, which is
    certified as the polynomial identity (s^d - 1)^m' = u^(m*m') * v modulo
    the relation; the normalized ring is additionally checked smooth.  Only
    the pure-power shape is normalized: any other P is refused.
    """
    if m < 1 or d < 1:
        raise ValueError("all parameters must be positive integers")
    if ring.k % m:
        raise ValueError(f"k must equal m*m' for an integer m': k = {ring.k}, m = {m}")
    expected = _rhs_power(_pure_power_base(d), ring.k // m)
    if ring.P != expected:
        raise ValueError("general Q normalization unsupported: P must be (s^d - 1)^m_prime")
    normalized = _normalized_ring(m, d)
    reduced = normal_form(ring, ring.monomial(ring.k, 1, 0))
    power_identity = reduced.poly == expected.with_variables(ring.variables)
    normalized_smooth = smooth_check(normalized).smooth
    return normalized, NormalizationWitness(power_identity, normalized_smooth)


# -- derivation on the normalized relation --------------------------------------


def _normalized_params(ring: HypersurfaceRing) -> tuple[int, int]:
    """(m, d) for a ring in the normalized shape u^m w - (s^d - 1)."""
    d = ring.P.degree()
    # rings built by _normalized_ring share the cached P: skip the comparison
    if d < 1 or (ring.P is not _pure_power_base(d) and ring.P != _pure_power_base(d)):
        raise ValueError(
            f"ring is not in the normalized shape u^m*{ring.second_var} - (s^d - 1): P = {format_poly(ring.P)}"
        )
    return ring.k, d


def _to_localization(ring: HypersurfaceRing, poly: MultiPoly) -> dict[int, dict[int, Scalar]]:
    """Expand w = (s^d - 1) * u^(-m): map {u-exponent j -> {s-exponent -> coeff}}."""
    m = ring.k
    loc: dict[int, dict[int, Scalar]] = {}
    for (a, b, c), coeff in poly.terms.items():
        j = a - m * b
        row = loc.setdefault(j, {})
        for (e,), c2 in _rhs_power(ring.P, b).terms.items():
            key = e + c
            total = row.get(key, 0) + coeff * c2
            if total:
                row[key] = total
            else:
                del row[key]
    return {j: row for j, row in loc.items() if row}


def _derive(loc: dict[int, dict[int, Scalar]], e: int) -> dict[int, dict[int, Scalar]]:
    """u^e * d/ds on Laurent rows: row j moves to j + e and is differentiated."""
    image: dict[int, dict[int, Scalar]] = {}
    for j, row in loc.items():
        drow = {c - 1: coeff * c for c, coeff in row.items() if c}
        if drow:
            image[j + e] = drow
    return image


def _first_non_polynomial(
    ring: HypersurfaceRing, loc: dict[int, dict[int, Scalar]]
) -> NonPolynomial | None:
    """The membership test for a Laurent expansion: the row of each u-exponent
    j < 0 must be divisible by (s^d - 1)^ceil(-j/m).  Reports the top term of
    the remainder at the least failing j, or None if the expansion lies in the
    ring."""
    m = ring.k
    for j in sorted(loc):
        if j >= 0:
            break
        f = MultiPoly._trusted(("s",), {(e,): c for e, c in loc[j].items()})
        _, rem = poly_divmod(f, _rhs_power(ring.P, (-j + m - 1) // m))
        if not rem.is_zero():
            top = max(rem.terms)
            return NonPolynomial(f"{rem.terms[top]}*u^{j}*s^{top[0]}")
    return None


def _check_derivation(ring: HypersurfaceRing, e: int, x: RingElement) -> None:
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"derivation degree must be a positive integer: {e}")
    if x.ring != ring:
        raise ValueError("element belongs to a different ring")
    _normalized_params(ring)  # the localization helpers rely on the shape


def derivation_leaves_ring(ring: HypersurfaceRing, e: int, x: RingElement) -> NonPolynomial | None:
    """Whether the degree-e derivation u^e * d/ds maps x out of the normalized
    ring: the offending localized monomial, or None if the image is in it."""
    _check_derivation(ring, e, x)
    return _first_non_polynomial(ring, _derive(_to_localization(ring, x.poly), e))


def s_weight(x: RingElement) -> int:
    """Filtration weight s -> 1, w -> d, u -> 0 (max over monomials).

    The rewrite rule preserves it and the derivation strictly decreases it, so
    1 + s_weight(x) bounds the nilpotency index of x.
    """
    _, d = _normalized_params(x.ring)
    if x.poly.is_zero():
        return 0
    return max(b * d + c for (_, b, c) in x.poly.terms)


def nilpotency_index(ring: HypersurfaceRing, e: int, x: RingElement) -> int | None:
    """Least N with the N-th derivation image of x zero, or None if some
    iterate leaves the ring.  Exceeding the bound 1 + s_weight(x) raises
    :class:`StructuralError`.  x is expanded into Laurent rows once, and each
    iterate is only tested for membership."""
    _check_derivation(ring, e, x)
    bound = 1 + s_weight(x)
    loc = _to_localization(ring, x.poly)
    for n in range(1, bound + 1):
        loc = _derive(loc, e)
        if _first_non_polynomial(ring, loc) is not None:
            return None
        if not loc:
            return n
    raise StructuralError(
        f"nilpotency bound {bound} exceeded; the filtration certificate is violated"
    )
