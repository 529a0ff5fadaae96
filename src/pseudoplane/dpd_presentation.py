"""Graded-algebra view of a divisor pair: A = A0[D+, D-] over A0 = C[t].

The weight-n piece of the algebra is the rank-one C[t]-module generated by
prod (t - p)^e(p), with negative e(p) meaning an allowed pole.  Pieces are
governed by floor-rounded multiples of the pair: weight n >= 0 reads
e = -floor(n*D+), weight n < 0 reads e = -floor(-n*D-).  The exponents are
integer floor divisions of the numerators and denominators read once off
the pair (``qdivisor._integer_rows``, in ``cyclic_quotient.product_window``),
so no Fraction is built, hashed or compared per weight.  The family pair
itself is built from integer rows (``QDivisor._trusted``), without a
Fraction.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exact_algebra import _is_int, _is_positive_int
from .qdivisor import DpdPair, QDivisor, negative_locus


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
    return _family_pair(d, e_prime, m)


def _family_pair(d: int, e_prime: int, m: int) -> DpdPair:
    """``pseudoplane_dpd_pair`` without its checks, for inputs already
    checked, as ``SurfaceTriple``'s are: d, m ints >= 1 and e' an int coprime
    to d.  The divisors are made unchecked from their storage rows, which
    must be as ``QDivisor`` keeps them: points increasing, each an int when
    integral, to reduced nonzero (numerator, denominator) pairs over
    positive denominators."""
    r = e_prime % d
    if r == 0:
        r = d
    # r/d and -1/m are reduced and nonzero, as gcd(r, d) = gcd(e', d) = 1
    return DpdPair(QDivisor._trusted({0: (-r, d)}), QDivisor._trusted({0: (r, d), 1: (-1, m)}))


ActionClass = namedtuple("ActionClass", "admissible reason")


def classify_presentation(pair: DpdPair, lnd_degree: int | None = None) -> ActionClass:
    """Decision table ruling a hyperbolic presentation in or out as a candidate
    for a surface with an essentially unique ruling over the affine line.

    lnd_degree, when known, is the degree of a homogeneous locally nilpotent
    derivation: an int (not a bool) or None, and anything else raises
    ValueError.  No ring computation runs: each exclusion is a recorded fact.
    """
    if lnd_degree is not None and not _is_int(lnd_degree):
        raise ValueError(f"lnd_degree must be an integer or None, got {lnd_degree!r}")
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
