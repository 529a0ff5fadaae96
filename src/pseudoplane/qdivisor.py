"""Rational divisors on the affine line and divisor-pair decision procedures.

A ``QDivisor`` is a finitely supported map {rational point -> rational
coefficient}; support is exactly the set of stored keys (no zero coefficients).
``DpdPair`` is a pair (D+, D-) with D+ + D- <= 0 pointwise, the data that
presents a hyperbolically graded surface algebra over C[t].

Text format: comma-separated ``point:coefficient`` entries, each rational
written ``[+-]p`` or ``[+-]p/q`` in decimal digits, e.g. ``0:-2/3,1:-1/2``.
The parser accepts entries in any order; the printer emits points in
increasing order.  The empty string is the zero divisor.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, NamedTuple

from .exact_algebra import _NUMBER_RE, Scalar, _Frozen, _is_positive_int


class RegimeError(ValueError):
    """Raised when a decision procedure is asked about data outside the
    configuration it classifies."""


class QDivisor(_Frozen):
    """Finitely supported Q-divisor on the affine line.  Immutable, compared
    by value, and not hashable: no computation keys a memo on a divisor."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[Scalar, Scalar] | Iterable[tuple[Scalar, Scalar]] = ()):
        # a dict, and the chain of entries that __add__ hands over, skip the
        # Mapping check, whose first use fills the ABC caches
        kind = type(coefficients)
        if kind is dict or (kind is not chain and isinstance(coefficients, Mapping)):
            items = coefficients.items()
        else:
            items = coefficients
        clean: dict[Fraction, Fraction] = {}
        for point, coeff in items:
            # a Fraction is immutable, so one is stored as it is
            if type(point) is not Fraction:
                point = Fraction(point)
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            # one hash of the point when it is new: setdefault inserts it
            size = len(clean)
            total = clean.setdefault(point, coeff)
            if len(clean) > size:
                continue
            total += coeff
            if total:
                clean[point] = total
            else:
                del clean[point]
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def zero(cls) -> "QDivisor":
        return cls()

    @property
    def coefficients(self) -> Mapping[Fraction, Fraction]:
        return MappingProxyType(self._coeffs)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self._coeffs))

    def coefficient(self, point: Scalar) -> Fraction:
        return self._coeffs.get(Fraction(point), Fraction(0))

    def items(self) -> list[tuple[Fraction, Fraction]]:
        # the points are distinct, so they alone order the entries
        return sorted(self._coeffs.items(), key=itemgetter(0))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __add__(self, other: "QDivisor") -> "QDivisor":
        if not isinstance(other, QDivisor):
            return NotImplemented
        # the constructor sums repeated points and drops the ones that cancel
        return QDivisor(chain(self._coeffs.items(), other._coeffs.items()))

    def __neg__(self) -> "QDivisor":
        return QDivisor({p: -c for p, c in self._coeffs.items()})

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        return format_divisor(self)

    def __repr__(self) -> str:
        return f"QDivisor({format_divisor(self)!r})"


def floor_div(d: QDivisor) -> QDivisor:
    """Pointwise floor."""
    return QDivisor({p: math.floor(c) for p, c in d.coefficients.items()})


def fract_div(d: QDivisor) -> QDivisor:
    """Pointwise fractional part; coefficients lie in [0, 1) and
    d == floor_div(d) + fract_div(d).  One construction: the constructor
    drops the points whose coefficient is integral."""
    return QDivisor({p: c - math.floor(c) for p, c in d.coefficients.items()})


class DpdPair(_Frozen):
    """Divisor pair (D+, D-) with D+ + D- <= 0 at every point; ``total`` is
    D+ + D-, built once when the pair is.  Compared by (D+, D-) and, like
    its divisors, not hashable."""

    __slots__ = ("d_plus", "d_minus", "total")

    def __init__(self, d_plus: QDivisor, d_minus: QDivisor):
        total = d_plus + d_minus
        # the sign of a Fraction is its numerator's, read without comparing
        # a Fraction with an int
        bad = [(p, c) for p, c in total.items() if c.numerator > 0]
        if bad:
            witness = ", ".join(f"({p}: {c})" for p, c in bad)
            raise ValueError(f"D+ + D- must be <= 0 everywhere; positive at {witness}")
        object.__setattr__(self, "d_plus", d_plus)
        object.__setattr__(self, "d_minus", d_minus)
        object.__setattr__(self, "total", total)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.d_plus, self.d_minus) == (other.d_plus, other.d_minus)

    def __repr__(self) -> str:
        return f"DpdPair(d_plus={self.d_plus!r}, d_minus={self.d_minus!r})"


def canonical_pair(pair: DpdPair) -> DpdPair:
    """Shift to the equivalent pair ({D+}, D- + floor(D+)).

    The sum D+ + D- is unchanged, so the result presents an isomorphic graded
    algebra and is again a valid pair.
    """
    fl = floor_div(pair.d_plus)
    return DpdPair(pair.d_plus - fl, pair.d_minus + fl)


def ml1_test(pair: DpdPair) -> bool:
    """Essential-uniqueness test for the ruling: true iff the fractional part
    of D- is supported on at least two points.

    Only meaningful when the fractional part of D+ is supported on at most one
    point (the configuration carrying a positive-degree derivation); outside
    that regime a :class:`RegimeError` is raised.
    """
    # fract_div keeps exactly the points with a non-integral coefficient
    if sum(c.denominator != 1 for c in pair.d_plus.coefficients.values()) > 1:
        raise RegimeError(
            "outside classified regime: fractional part of D+ is supported on more than one point"
        )
    return sum(c.denominator != 1 for c in pair.d_minus.coefficients.values()) >= 2


class NegativeLocus(NamedTuple):
    l: int
    picard_rank_lower_bound: int
    torsion_compatible: bool


def negative_locus(pair: DpdPair) -> NegativeLocus:
    """Count points where D+ + D- < 0; the Picard rank of the presented
    surface is at least l - 1, so torsion Picard forces l <= 1."""
    l = sum(1 for c in pair.total._coeffs.values() if c.numerator < 0)
    return NegativeLocus(l, l - 1, l <= 1)


def divisor_roots(d_minus: QDivisor, k: int) -> tuple[int, tuple[tuple[Fraction, int], ...]]:
    """Read -k*D- as the divisor of t^l * Q(t) with Q = prod (t - p)^j monic
    and Q(0) != 0.

    Returns (l, roots) where l = -k*D-(0) and roots lists the pairs
    (p, -k*D-(p)) over the support points p != 0, in increasing order of p;
    no polynomial is built.  Requires k*D- integral and -k*D-(p) >= 0 for
    every p != 0.
    """
    if not _is_positive_int(k):
        raise ValueError(f"k must be a positive integer: {k}")
    l = 0
    roots = []
    for p, c in d_minus.items():
        # -k*c = e exactly when the denominator divides -k*numerator
        e, rest = divmod(-k * c.numerator, c.denominator)
        if rest:
            raise ValueError(
                f"k is not a multiple of denom(D-): k={k} leaves coefficient {c} at {p} non-integral"
            )
        if p == 0:
            l = e
            continue
        if e < 0:
            raise ValueError(f"Q would be non-polynomial: exponent {e} at point {p}")
        # e != 0, as D- stores no zero coefficient
        roots.append((p, e))
    return l, tuple(roots)


# -- text format ---------------------------------------------------------------


def _parse_rational(text: str) -> Fraction:
    """``[+-]p`` or ``[+-]p/q``; decimals, exponents and underscores, which
    ``Fraction`` would accept, are refused before it reads them."""
    text = text.strip()
    if not _NUMBER_RE.match(text[1:] if text.startswith(("+", "-")) else text):
        raise ValueError(f"expected [+-]p or [+-]p/q, got {text!r}")
    return Fraction(text)


def parse_divisor(text: str) -> QDivisor:
    """Parse ``point:coefficient`` entries (any order); '' is the zero divisor."""
    s = text.strip()
    if not s:
        return QDivisor.zero()
    entries: dict[Fraction, Fraction] = {}
    for chunk in s.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty entry in divisor text {text!r}")
        if chunk.count(":") != 1:
            raise ValueError(f"expected 'point:coefficient', got {chunk!r}")
        point_text, coeff_text = chunk.split(":")
        try:
            point = _parse_rational(point_text)
            coeff = _parse_rational(coeff_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational in divisor entry {chunk!r}: {exc}") from None
        if point in entries:
            raise ValueError(f"duplicate point {point} in divisor text {text!r}")
        entries[point] = coeff
    return QDivisor(entries)


def format_divisor(d: QDivisor) -> str:
    """Points in increasing order; the zero divisor prints as ''."""
    return ",".join(f"{p}:{c}" for p, c in d.items())
