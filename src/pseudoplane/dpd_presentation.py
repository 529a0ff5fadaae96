"""Graded-algebra view of a divisor pair: A = A0[D+, D-] over A0 = C[t].

The weight-n piece of the algebra is the rank-one C[t]-module generated by
prod (t - p)^e(p), with negative e(p) meaning an allowed pole.  Pieces are
governed by floor-rounded multiples of the pair: weight n >= 0 reads
e = -floor(n*D+), weight n < 0 reads e = -floor(-n*D-).  The exponents are
integer floor divisions of the numerators and denominators read once off
the pair (``_piece_sides``), so no Fraction is built, hashed or compared
per weight.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact_algebra import _is_int, _is_positive_int
from .qdivisor import DpdPair, QDivisor, negative_locus


# the family's two points, shared by its divisors (a Fraction is immutable),
# so that summing the pair finds the point 0 by identity
_ORIGIN, _ONE = Fraction(0), Fraction(1)


def pseudoplane_dpd_pair(d: int, e_prime: int, m: int) -> DpdPair:
    """The divisor pair (-(e'/d)[0], (e'/d)[0] - (1/m)[1]) presenting the
    surface family member with parameters (d, e', m).

    e' is normalized to its representative in [1, d] (so the printed pair is
    deterministic); gcd(e', d) must be 1.
    """
    if not (_is_positive_int(d) and _is_positive_int(m)):
        raise ValueError(f"d and m must be positive: d={d}, m={m}")
    if not _is_int(e_prime):
        raise ValueError(f"e' must be an integer: {e_prime}")
    if math.gcd(e_prime, d) != 1:
        raise ValueError(f"e' and d must be coprime: gcd({e_prime}, {d}) != 1")
    r = e_prime % d
    if r == 0:
        r = d
    ratio = Fraction(r, d)
    d_plus = QDivisor({_ORIGIN: -ratio})
    d_minus = QDivisor({_ORIGIN: ratio, _ONE: Fraction(-1, m)})
    return DpdPair(d_plus, d_minus)


# (numerator, denominator) at 0, at 1, and at the other support points
_Side = tuple[tuple[int, int], tuple[int, int], tuple[tuple[int, int], ...]]


def _piece_sides(pair: DpdPair) -> tuple[_Side, _Side]:
    """The pair as integers, read once off the divisors' maps: for -D- and
    then D+, the (numerator, denominator) of the coefficient at 0 and at 1
    ((0, 1) where the divisor has no point), then at its other points.

    The weight-n piece's exponent at a point is -floor(n*c) for the
    coefficient c there of -D- when n < 0 (that is -floor(-n*D-)) and of D+
    when n >= 0: the integer floor division -(n*numerator // denominator),
    as every denominator is positive."""
    sides = []
    for coeffs, sign in ((pair.d_minus._coeffs, -1), (pair.d_plus._coeffs, 1)):
        at0, at1 = coeffs.get(0), coeffs.get(1)
        row0, row1 = ((0, 1) if c is None else (sign * c.numerator, c.denominator) for c in (at0, at1))
        others = ()
        if len(coeffs) > (at0 is not None) + (at1 is not None):
            others = tuple(
                (sign * c.numerator, c.denominator) for p, c in coeffs.items() if p != 0 and p != 1
            )
        sides.append((row0, row1, others))
    return tuple(sides)


class ActionClass(NamedTuple):
    admissible: bool
    reason: str


def classify_presentation(pair: DpdPair, lnd_degree: int | None = None) -> ActionClass:
    """Decision table ruling a hyperbolic presentation in or out as a candidate
    for a surface with an essentially unique ruling over the affine line.

    lnd_degree, when known, is the degree of a homogeneous locally nilpotent
    derivation.  This performs no ring computation: each exclusion is a
    recorded fact about the presentation.
    """
    if lnd_degree == 0:
        return ActionClass(
            False,
            "degree-0 derivation presents a line times a torus (ruling over the torus)",
        )
    locus = negative_locus(pair)
    if not locus.torsion_compatible:
        return ActionClass(
            False,
            f"negative locus has {locus.l} points, so Picard rank >= "
            f"{locus.picard_rank_lower_bound} is not a torsion group",
        )
    return ActionClass(True, "admissible")


def smoothness_condition(m: int, a: int) -> bool:
    """Whether boundary coefficient a/m (gcd(a, m) = 1) can occur for a smooth
    surface: only a = -1 does."""
    if not _is_positive_int(m):
        raise ValueError(f"m must be positive: {m}")
    if not _is_int(a):
        raise ValueError(f"a must be an integer: {a}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"a and m must be coprime: gcd({a}, {m}) != 1")
    return a == -1
