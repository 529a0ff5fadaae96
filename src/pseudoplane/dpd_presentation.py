"""Graded-algebra view of a divisor pair: A = A0[D+, D-] over A0 = C[t].

The weight-n piece of the algebra is a principal fractional ideal of C[t],
recorded by its exponent vector: the generator is prod (t - p)^e(p), with
negative e(p) meaning an allowed pole.  Pieces are governed by floor-rounded
multiples of the pair: weight n >= 0 reads floor(n*D+), weight n < 0 reads
floor(-n*D-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .exact_algebra import Scalar
from .qdivisor import DpdPair, QDivisor, format_divisor, negative_locus


class FractionalIdealA1:
    """Principal fractional ideal of C[t], stored as {point -> exponent}."""

    __slots__ = ("_exponents",)

    def __init__(self, exponents: Mapping[Scalar, int] = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        clean: dict[Fraction, int] = {}
        for point, e in items:
            if not isinstance(e, int):
                raise ValueError(f"exponent at {point} must be an integer: {e!r}")
            if e:
                clean[Fraction(point)] = e
        object.__setattr__(self, "_exponents", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FractionalIdealA1 is immutable")

    @property
    def exponents(self) -> Mapping[Fraction, int]:
        return MappingProxyType(self._exponents)

    def exponent(self, point: Scalar) -> int:
        return self._exponents.get(Fraction(point), 0)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self._exponents))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionalIdealA1):
            return NotImplemented
        return self._exponents == other._exponents

    def __hash__(self) -> int:
        return hash(frozenset(self._exponents.items()))

    def as_divisor_string(self) -> str:
        return format_divisor(QDivisor(self._exponents))

    def __repr__(self) -> str:
        return f"FractionalIdealA1({self.as_divisor_string()!r})"


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


def graded_piece(pair: DpdPair, n: int) -> FractionalIdealA1:
    """Exponent data of the weight-n piece: -floor(n*D+) for n >= 0,
    -floor(-n*D-) for n < 0, the unit ideal for n = 0."""
    if n == 0:
        return FractionalIdealA1()
    divisor = pair.d_plus if n > 0 else pair.d_minus
    mult = abs(n)
    return FractionalIdealA1(
        {p: -math.floor(mult * c) for p, c in divisor.coefficients.items()}
    )


@lru_cache(maxsize=64)
def _support(pair: DpdPair) -> tuple[Scalar, ...]:
    """Sorted union of the supports of D+ and D-, integral points as int.

    Every graded piece is supported inside this set.  An int point hashes and
    compares equal to its Fraction, and hashing it costs no modular inverse.
    """
    points = sorted(pair.d_plus.coefficients.keys() | pair.d_minus.coefficients.keys())
    return tuple(int(p) if p.denominator == 1 else p for p in points)


# A pair's rows are reused within one product sweep over |n|, |n'| <= W,
# which needs the 4*W + 1 weights of n + n'; 128 rows cover W <= 31.
@lru_cache(maxsize=128)
def _piece_row(pair: DpdPair, n: int) -> tuple[int, ...]:
    """Exponents of the weight-n piece as int, aligned with ``_support(pair)``."""
    exponents = graded_piece(pair, n)._exponents
    return tuple(exponents.get(p, 0) for p in _support(pair))


def product_defect(pair: DpdPair, n: int, n_prime: int) -> dict[Scalar, int]:
    """Pointwise exponent defect piece(n) + piece(n') - piece(n+n').

    These are the multiplicative structure constants of the graded algebra:
    the product of the weight-n and weight-n' generators is the weight-(n+n')
    generator times t^defect(0) * (t-1)^defect(1) * ...  Values are always
    >= 0 (floor superadditivity plus D+ + D- <= 0); zeros are pruned.

    Computed on the cached int rows of the three pieces, zipped onto the
    pair's sorted support: keys come in increasing order and are int where
    the point is integral (equal, with equal hash, to the Fraction point).
    """
    rows = zip(
        _support(pair),
        _piece_row(pair, n),
        _piece_row(pair, n_prime),
        _piece_row(pair, n + n_prime),
    )
    return {p: a + b - c for p, a, b, c in rows if a + b != c}


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
            "excluded: degree-0 derivation presents a line times a torus (ruling over the torus)",
        )
    locus = negative_locus(pair)
    if not locus.torsion_compatible:
        return ActionClass(
            False,
            f"excluded: negative locus has {locus.l} points, so Picard rank >= "
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
