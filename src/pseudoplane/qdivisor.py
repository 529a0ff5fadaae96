"""Rational divisors on the affine line and divisor-pair decision procedures.

A ``QDivisor`` is a finitely supported map {rational point -> rational
coefficient}; support is exactly the set of stored keys (no zero coefficients).
``DpdPair`` is a pair (D+, D-) with D+ + D- <= 0 pointwise, the data that
presents a hyperbolically graded surface algebra over C[t].

Storage.  A divisor keeps its entries in increasing point order, each point
an ``int`` when it is integral and a ``Fraction`` only when it is not (the
``_exact`` convention of ``exact_algebra``), and each coefficient as its
reduced integer pair (numerator, denominator), the denominator positive.
Every operation here reads and writes those integers, so the family pair of
a triple is built, summed, checked and printed without any ``Fraction``.
The constructor takes only ``int`` (not ``bool``) and ``Fraction`` points
and coefficients and refuses anything else with ``ValueError``.  The public
accessors ``coefficients``, ``support``, ``coefficient`` and ``items`` build
``Fraction``s from the stored integers on each call.  No other module reads
the storage: ``_integer_rows`` reads a divisor as rows, and rows already in
that form, as the operations here and ``dpd_presentation._family_pair``
make them, become a divisor through ``QDivisor._trusted`` (the value
classes' unchecked constructor, ``exact_algebra._Frozen``), which takes the
dict over without a copy.

Text format: comma-separated ``point:coefficient`` entries, each rational
written ``[+-]p`` or ``[+-]p/q`` in ASCII decimal digits, e.g.
``0:-2/3,1:-1/2``.  The parser accepts entries in any order; the printer
emits points in increasing order.  The empty string is the zero divisor.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType

from .exact_algebra import Scalar, _exact, _Frozen, _is_positive_int


class RegimeError(ValueError):
    """Raised when a decision procedure is asked about data outside the
    configuration it classifies."""


# (numerator, denominator) of a coefficient: reduced, the denominator positive
_Ratio = tuple[int, int]


def _point(value) -> Scalar:
    """A point as stored: an int when it is integral, else the Fraction."""
    return _exact(value, "divisor points")


def _summed(rows: dict, entries: Iterable[tuple[Scalar, _Ratio]]) -> dict[Scalar, _Ratio]:
    """`rows` with each (point, (num, den)) of `entries` added, a point
    dropped where its sum is 0, sorted by point."""
    for point, (num, den) in entries:
        a, c = rows.get(point, (0, den))
        num, den = (a + num, c) if c == den else (a * den + num * c, c * den)
        if num:
            g = math.gcd(num, den)
            rows[point] = (num // g, den // g)
        else:
            rows.pop(point, None)
    # the points are distinct, so they alone order the entries
    return dict(sorted(rows.items(), key=itemgetter(0)))


class QDivisor(_Frozen):
    """Finitely supported Q-divisor on the affine line.  Immutable, compared
    by value, and not hashable: no computation keys a memo on a divisor."""

    __slots__ = ("_coeffs",)
    __hash__ = None

    def __new__(cls, coefficients: Mapping[Scalar, Scalar] | Iterable[tuple[Scalar, Scalar]] = ()):
        # a dict skips the Mapping check, whose first use fills the ABC caches
        if type(coefficients) is dict or isinstance(coefficients, Mapping):
            coefficients = coefficients.items()
        entries = []
        for point, coeff in coefficients:
            point, coeff = _point(point), _exact(coeff, "divisor coefficients")
            entries.append((point, (coeff.numerator, coeff.denominator)))
        return super()._trusted(_summed({}, entries))

    @property
    def coefficients(self) -> Mapping[Fraction, Fraction]:
        return MappingProxyType(dict(self.items()))

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self._coeffs))

    def coefficient(self, point: Scalar) -> Fraction:
        return Fraction(*self._coeffs.get(_point(point), (0, 1)))

    def items(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(p), Fraction(num, den)) for p, (num, den) in self._coeffs.items()]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        if not isinstance(other, QDivisor):
            return NotImplemented
        return QDivisor._trusted(_summed(dict(self._coeffs), other._coeffs.items()))

    def __neg__(self) -> "QDivisor":
        return QDivisor._trusted({p: (-num, den) for p, (num, den) in self._coeffs.items()})

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        if not isinstance(other, QDivisor):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        return format_divisor(self)

    def __repr__(self) -> str:
        return f"QDivisor({format_divisor(self)!r})"


def _integer_rows(d: QDivisor, sign: int) -> tuple[_Ratio, _Ratio, tuple[_Ratio, ...]]:
    """sign*d as integer rows: the (numerator, denominator) of its
    coefficient at 0 and at 1, (0, 1) where it has no point, and then those
    at its other points in increasing order (read only when it has some)."""
    coeffs = d._coeffs
    (n0, d0), (n1, d1) = coeffs.get(0, (0, 1)), coeffs.get(1, (0, 1))
    others = ()
    if len(coeffs) > (0 in coeffs) + (1 in coeffs):
        others = tuple((sign * num, den) for p, (num, den) in coeffs.items() if p != 0 and p != 1)
    return (sign * n0, d0), (sign * n1, d1), others


def floor_div(d: QDivisor) -> QDivisor:
    """Pointwise floor."""
    return QDivisor._trusted({p: (num // den, 1) for p, (num, den) in d._coeffs.items() if num // den})


def fract_div(d: QDivisor) -> QDivisor:
    """Pointwise fractional part; coefficients lie in [0, 1) and
    d == floor_div(d) + fract_div(d).  A reduced num/den keeps den in its
    fractional part (num % den)/den, which is 0 exactly when den is 1."""
    return QDivisor._trusted({p: (num % den, den) for p, (num, den) in d._coeffs.items() if den != 1})


class DpdPair(_Frozen):
    """Divisor pair (D+, D-) with D+ + D- <= 0 at every point; ``total`` is
    D+ + D-, built once when the pair is.  Compared by (D+, D-) and, like
    its divisors, not hashable."""

    __slots__ = ("d_plus", "d_minus", "total")
    _key = ("d_plus", "d_minus")
    __hash__ = None

    def __init__(self, d_plus: QDivisor, d_minus: QDivisor):
        total = d_plus + d_minus
        for num, _ in total._coeffs.values():
            if num > 0:
                witness = ", ".join(
                    f"({p}: {Fraction(num, den)})" for p, (num, den) in total._coeffs.items() if num > 0
                )
                raise ValueError(f"D+ + D- must be <= 0 everywhere; positive at {witness}")
        object.__setattr__(self, "d_plus", d_plus)
        object.__setattr__(self, "d_minus", d_minus)
        object.__setattr__(self, "total", total)

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
    # fract_div keeps exactly the points whose denominator is not 1
    plus = minus = 0
    for _, den in pair.d_plus._coeffs.values():
        plus += den != 1
    if plus > 1:
        raise RegimeError(
            "outside classified regime: fractional part of D+ is supported on more than one point"
        )
    for _, den in pair.d_minus._coeffs.values():
        minus += den != 1
    return minus >= 2


NegativeLocus = namedtuple("NegativeLocus", "l picard_rank_lower_bound torsion_compatible")


def negative_locus(pair: DpdPair) -> NegativeLocus:
    """Count points where D+ + D- < 0; the Picard rank of the presented
    surface is at least l - 1, so torsion Picard forces l <= 1."""
    l = len(pair.total._coeffs)  # D+ + D- is <= 0 and stores no 0, so each point is < 0
    return NegativeLocus(l, l - 1, l <= 1)


def divisor_roots(d_minus: QDivisor, k: int) -> tuple[int, tuple[tuple[Scalar, int], ...]]:
    """Read -k*D- as the divisor of t^l * Q(t) with Q = prod (t - p)^j monic
    and Q(0) != 0.

    Returns (l, roots) where l = -k*D-(0) and roots lists the pairs
    (p, -k*D-(p)) over the support points p != 0, in increasing order of p,
    each p an int when integral and each exponent an int >= 1; no
    polynomial is built.  Requires k*D- integral and -k*D-(p) >= 0 for
    every p != 0.  So roots is clean as ``HypersurfaceRing`` stores it, and
    ``report.verify_triple`` builds its covering ring from it unchecked
    (``HypersurfaceRing._trusted``).
    """
    if not _is_positive_int(k):
        raise ValueError(f"k must be a positive integer: {k}")
    l = 0
    roots = []
    for p, (num, den) in d_minus._coeffs.items():
        # -k*num/den = e exactly when den divides -k*num
        e, rest = divmod(-k * num, den)
        if rest:
            raise ValueError(
                f"k is not a multiple of denom(D-): k={k} leaves coefficient "
                f"{Fraction(num, den)} at {p} non-integral"
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

# [0-9], not \d: in a str pattern \d matches every Unicode decimal digit,
# which Fraction reads too
_NUMBER_RE = re.compile(r"[0-9]+(?:/[0-9]+)?\Z")


def _parse_rational(text: str) -> Fraction:
    """``[+-]p`` or ``[+-]p/q`` in ASCII digits; decimals, exponents,
    underscores and other scripts' digits, which ``Fraction`` would accept,
    are refused before it reads them.  Spaces around it are skipped; other
    whitespace, which ``str.strip()`` would also skip, is refused."""
    text = text.strip(" ")
    if not _NUMBER_RE.match(text[1:] if text.startswith(("+", "-")) else text):
        raise ValueError(f"expected [+-]p or [+-]p/q, got {text!r}")
    return Fraction(text)


def parse_divisor(text: str) -> QDivisor:
    """Parse ``point:coefficient`` entries (any order), skipping the spaces
    (U+0020, not other whitespace) around entries and numbers; '' is the
    zero divisor."""
    s = text.strip(" ")
    if not s:
        return QDivisor()
    entries: dict[Fraction, Fraction] = {}
    for chunk in s.split(","):
        chunk = chunk.strip(" ")
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
    entries = []
    for p, (num, den) in d._coeffs.items():
        entries.append(f"{p}:{num}" if den == 1 else f"{p}:{num}/{den}")
    return ",".join(entries)
