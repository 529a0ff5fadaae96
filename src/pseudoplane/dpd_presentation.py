"""Graded-algebra view of a divisor pair: A = A0[D+, D-] over A0 = C[t].

The weight-n piece of the algebra is the rank-one C[t]-module generated by
prod (t - p)^e(p), with negative e(p) meaning an allowed pole; it is recorded
as a plain {point: e(p)} map.  Pieces are governed by floor-rounded
multiples of the pair: weight n >= 0 reads floor(n*D+), weight n < 0 reads
floor(-n*D-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qdivisor import DpdPair, QDivisor, negative_locus


def pseudoplane_dpd_pair(d: int, e_prime: int, m: int) -> DpdPair:
    """The divisor pair (-(e'/d)[0], (e'/d)[0] - (1/m)[1]) presenting the
    surface family member with parameters (d, e', m).

    e' is normalized to its representative in [1, d] (so the printed pair is
    deterministic); gcd(e', d) must be 1.
    """
    if d < 1 or m < 1:
        raise ValueError(f"d and m must be positive: d={d}, m={m}")
    if math.gcd(e_prime, d) != 1:
        raise ValueError(f"e' and d must be coprime: gcd({e_prime}, {d}) != 1")
    r = e_prime % d
    if r == 0:
        r = d
    ratio = Fraction(r, d)
    d_plus = QDivisor({0: -ratio})
    d_minus = QDivisor({0: ratio, 1: Fraction(-1, m)})
    return DpdPair(d_plus, d_minus)


def graded_piece(pair: DpdPair, n: int) -> dict[Fraction, int]:
    """Exponents {point: e} of the weight-n piece, Fraction points, zeros pruned:
    -floor(n*D+) for n >= 0, -floor(-n*D-) for n < 0, {} for n = 0.  The
    floor of mult*c is the integer floor division of mult*c.numerator by
    c.denominator (which is positive), so no Fraction is built."""
    if n == 0:
        return {}
    divisor = pair.d_plus if n > 0 else pair.d_minus
    mult = abs(n)
    exponents = (
        (p, -(mult * c.numerator // c.denominator)) for p, c in divisor.coefficients.items()
    )
    return {p: e for p, e in exponents if e}


@dataclass(frozen=True)
class ActionClass:
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
    if m < 1:
        raise ValueError(f"m must be positive: {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"a and m must be coprime: gcd({a}, {m}) != 1")
    return a == -1
