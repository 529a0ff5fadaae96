"""Hypersurface coordinate rings C[u, y, s]/(u^k * y - P(s)), P factored.

A ring is held as its presentation (k, d, roots, the second variable's
name), which stands for u^k * y = P(s) = prod over (p, j) in roots of
(s^d - p)^j, with the points p nonzero, distinct and increasing and every
exponent j >= 1.  No element of it is ever built, and neither is P as a
polynomial: ``_format_relation`` prints the relation (``serialize``) and
the factors of ``smooth_check``'s witness (``report``) from the
coefficients that ``_relation_terms`` expands on the points and exponents.
It prints each text once per process: a bounded memo keyed by
``(d, roots)`` keeps the last ``_RELATION_MEMO_SIZE`` texts.  A sweep in
row order keeps few of them live, as every relation of a triple is
(s^d - 1)^j with j = 1 or j = m' = lcm(d, m)/m, a divisor of d.
This module answers what the presentation decides on its own: smoothness
(``smooth_check``) and the fibers of the u-projection (``fiber_analysis``).
Each question is settled on the integers of the factored relation, by one
lemma.

Lemma.  For p != 0, s^d - p is squarefree, because its derivative d*s^(d-1)
vanishes only at s = 0, which is not a root of it.  Distinct points give
coprime factors, as a common root s would give s^d = p = p'.  So the
squarefree factor of P of multiplicity j is prod over the points with
j_p = j of (s^d - p), of degree d*#{p : j_p = j}, and

- the ring is smooth iff every j = 1: the gradient
  (k*u^(k-1)*y, u^k, -P'(s)) vanishes on the surface exactly where u = 0,
  P(s) = P'(s) = 0 (and also y = 0 when k = 1), that is at a multiple root;
- the fiber over u = 0 is {P(s) = 0} in the (y, s)-plane: d*#{p : j_p = j}
  lines of multiplicity j for each exponent j.

Listed in increasing multiplicity, these are the factors of Yun's squarefree
decomposition of P, which the tests keep as the oracle of this reading.

The normalized model of a triple is HypersurfaceRing(m, d, ((1, 1),), "w"),
the relation u^m * w = s^d - 1, built by ``report.verify_triple``.  Its
derivations u^e * d/ds are certified by an integer rule on exponent vectors
(``cyclic_quotient.find_valid_lnd_degrees``).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable

from .exact_algebra import Scalar, _check_int, _exact, _Frozen


def _relation_terms(d: int, roots: Iterable[tuple[Scalar, int]]) -> list[tuple[int, Scalar]]:
    """The nonzero (exponent, coefficient) terms of prod (s^d - p)^j over the
    (point p, exponent j) pairs of ``roots``, in decreasing exponent.

    Each factor (t - p)^j is written by C(j, i + 1) = C(j, i) (j - i)/(i + 1),
    exact in the integers, times the powers of -p.  The factors' coefficient
    lists in t are convolved, the coefficients that cancel (as in
    (t + 1)(t - 1) = t^2 - 1) are dropped, and t becomes s^d.
    """
    coeffs: list[Scalar] = [1]  # of the product in t, leading first
    for p, j in roots:
        row: list[Scalar] = []
        binom, power = 1, 1
        for i in range(j + 1):
            row.append(binom * power)
            binom = binom * (j - i) // (i + 1)
            power *= -p
        if len(coeffs) > 1:
            product = [0] * (len(coeffs) + j)
            for a, x in enumerate(coeffs):
                for b, y in enumerate(row):
                    product[a + b] += x * y
            row = product
        coeffs = row
    top = len(coeffs) - 1
    return [(d * (top - i), c) for i, c in enumerate(coeffs) if c]


# The relations of a triple are (s^d - 1)^j with j = 1 or j = m', and m'
# divides d, so a sweep in row order keeps at most tau(d) texts live, and
# tau(d) <= tau(720) = 30 for d <= MAX_D_CAP = 800.  64 entries cover that
# with room; the largest text, (s^800 - 1)^800, is about 148 KB.
_RELATION_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_RELATION_MEMO_SIZE)
def _format_relation(d: int, roots: tuple[tuple[Scalar, int], ...]) -> str:
    """The text of prod (s^d - p)^j over the (point p, exponent j) pairs of
    ``roots``, expanded in s: terms in decreasing exponent, a negative
    coefficient as a minus sign, unit coefficients and ``^1`` elided, and
    rationals written ``p/q``, e.g. ``s^6 - 3/2*s^3 + 1/2``.  Memoized on
    (d, roots), so ``roots`` is a tuple, and an int point and an equal
    Fraction share one text, which is the same either way."""
    parts: list[str] = []
    for e, c in _relation_terms(d, roots):
        if c < 0:
            parts.append(" - " if parts else "-")
            c = -c
        elif parts:
            parts.append(" + ")
        if e:
            mono = f"s^{e}" if e > 1 else "s"
            parts.append(mono if c == 1 else f"{c}*{mono}")
        else:
            parts.append(str(c))
    return "".join(parts)


class HypersurfaceRing(_Frozen):
    """Presentation of C[u, second, s] / (u^k * second - prod (s^d - p)^j),
    the product over the (point p, exponent j) pairs of ``roots``.  Compared
    and hashed by (k, d, roots, second_var)."""

    __slots__ = ("k", "d", "roots", "second_var")

    def __new__(cls, k: int, d: int, roots: Iterable[tuple[Scalar, int]], second_var: str = "v"):
        _check_int("k", k, 1)
        _check_int("d", d, 1)
        roots = tuple((_exact(p, "root points"), j) for p, j in roots)
        points = [p for p, _ in roots]
        if 0 in points:
            raise ValueError(f"root points must be nonzero: {points}")
        if any(a >= b for a, b in zip(points, points[1:])):
            raise ValueError(f"root points must be distinct and increasing: {points}")
        for p, j in roots:
            _check_int(f"exponent of root {p}", j, 1)
        if second_var in ("u", "s"):
            raise ValueError(f"second variable may not shadow u or s: {second_var!r}")
        return super()._trusted(k, d, roots, second_var)

    @property
    def variables(self) -> tuple[str, str, str]:
        return ("u", self.second_var, "s")

    def serialize(self) -> dict:
        """The ring as JSON: the right-hand side P is printed expanded in s by
        ``_format_relation``."""
        return {"k": self.k, "P": _format_relation(self.d, self.roots), "second_var": self.second_var}


# witness: ((points, j), ...), the root points of each exponent j >= 2
SmoothCheck = namedtuple("SmoothCheck", "smooth witness")


def _points_by_exponent(ring: HypersurfaceRing) -> list[tuple[int, list[Scalar]]]:
    """The ring's root points grouped by exponent, in increasing exponent."""
    groups: dict[int, list[Scalar]] = {}
    for p, j in ring.roots:
        groups.setdefault(j, []).append(p)
    return sorted(groups.items())


def smooth_check(ring: HypersurfaceRing) -> SmoothCheck:
    """Smooth iff every root exponent is 1.  Otherwise the witness lists, for
    each exponent j >= 2 in increasing order, (points, j) with the
    increasing root points of exponent j: by the module's lemma,
    prod (s^d - p) over those points is the factor of P's squarefree
    decomposition of multiplicity j (s-coordinates of the singular points
    along u = 0).  ``_format_relation`` prints it from the pairs (p, 1)."""
    witness = []
    for j, points in _points_by_exponent(ring):
        if j >= 2:
            witness.append((tuple(points), j))
    return SmoothCheck(not witness, tuple(witness))


def fiber_analysis(ring: HypersurfaceRing) -> list[tuple[int, int]]:
    """Components of the fiber over u = 0 of the u-projection, as
    (component count, multiplicity) pairs: {P(s) = 0} in the
    (second, s)-plane, which by the module's lemma is d*#{p : j_p = j}
    lines of multiplicity j for each root exponent j, in increasing j
    (component count = degree of the squarefree factor; roots are never
    extracted).  Away from u = 0 every fiber is a single reduced line,
    [(1, 1)].
    """
    return [(ring.d * len(points), j) for j, points in _points_by_exponent(ring)]
