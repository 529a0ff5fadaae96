"""Hypersurface coordinate rings C[u, y, s]/(u^k * y - P(s)).

A ring is held as its presentation (k, P, the second variable's name); no
element of it is ever built.  This module answers what the presentation
decides on its own: smoothness (``smooth_check``), the fibers of the
u-projection (``fiber_analysis``) and the normalization of the pure-power
covering relation u^k v = (s^d - 1)^m' to u^m w = s^d - 1
(``normalize_power_relation``).  Each question is settled on the univariate
P(s) through its squarefree decomposition, or by the shape of P alone.

``_normalized_ring`` is the one shared model of the normalized relation
u^m * w = s^d - 1.  Its derivations u^e * d/ds are certified by an integer
rule on exponent vectors (``cyclic_quotient.find_valid_lnd_degrees``).
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

    def serialize(self) -> dict:
        return {"k": self.k, "P": format_poly(self.P), "second_var": self.second_var}


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
        p = p * MultiPoly(("s",), {(exponent,): 1})
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

    Only the pure-power shape is normalized: a k that is not a multiple of m,
    and any P other than (s^d - 1)^m', is refused.  The power identity is
    then derived from those two refusals, not computed.  With k = m*m' and
    P = (s^d - 1)^m', the element w = (s^d - 1)/u^m of the fraction field
    satisfies w^m' = (s^d - 1)^m'/u^(m*m') = P/u^k = v, the last step by the
    relation u^k v = P; equivalently, one rewrite of u^k*v by the relation
    gives P = (s^d - 1)^m'.  So w is integral over the ring and
    ``power_identity`` holds on every ring that gets past the refusals.  The
    normalized ring is additionally checked smooth.
    """
    if m < 1 or d < 1:
        raise ValueError("all parameters must be positive integers")
    if ring.k % m:
        raise ValueError(f"k must equal m*m' for an integer m': k = {ring.k}, m = {m}")
    if ring.P != _rhs_power(_pure_power_base(d), ring.k // m):
        raise ValueError("general Q normalization unsupported: P must be (s^d - 1)^m_prime")
    normalized = _normalized_ring(m, d)
    return normalized, NormalizationWitness(True, smooth_check(normalized).smooth)
