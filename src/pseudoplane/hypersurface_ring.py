"""Hypersurface coordinate rings C[u, y, s]/(u^k * y - P(s)) with rewriting.

The defining relation is used as a left-to-right rewrite rule: one factor of
the second variable and k factors of u are replaced by P(s) per step.  Each
step strictly decreases the exponent of the second variable and distinct
monomials reduce independently, so rewriting terminates and the normal form is
unique.  The torus action scales u with weight 1 and the second variable with
weight -k (s fixed), making the relation homogeneous of weight 0.

``_normalized_ring`` is the one shared model of the normalized relation
u^m * w = s^d - 1.  Its derivations u^e * d/ds are certified by an integer
rule on exponent vectors (``cyclic_quotient.find_valid_lnd_degrees``), so no
element is expanded into the localization C[u^(+-1), s] here; that
Laurent-row route is kept only as a test oracle.
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
    squarefree_decomposition,
    substitute_power,
)


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

