"""Hypersurface coordinate rings C[u, y, s]/(u^k * y - (s^d - 1)^j).

A ring is held as its presentation (k, d, j, the second variable's name),
which stands for u^k * y = P(s) = (s^d - 1)^j with j >= 1: a triple's
covering relation (j = m') or its normalized model (j = 1).  No element of
it is ever built, and neither is P as a polynomial: ``_format_relation``
prints the relation (``serialize``) and the factor s^d - 1 of
``smooth_check``'s witness (``report``) in one pass over the binomial row
of (t - 1)^j at t = s^d.  It prints each text once per process: a
bounded memo keyed by ``(d, j)`` keeps the last ``_RELATION_MEMO_SIZE``
texts.  A sweep in row order keeps few of them live, as every relation of a
triple has j = 1 or j = m' = lcm(d, m)/m, a divisor of d.
This module answers what the presentation decides on its own: smoothness
(``smooth_check``) and the fibers of the u-projection (``fiber_analysis``),
each on the integers (d, j), by one lemma.

Lemma.  s^d - 1 is squarefree, because its derivative d*s^(d-1) vanishes
only at s = 0, which is not a root of it.  So the squarefree decomposition
of P = (s^d - 1)^j is the one factor s^d - 1, of degree d and multiplicity
j, and

- the ring is smooth iff j = 1: the gradient (k*u^(k-1)*y, u^k, -P'(s))
  vanishes on the surface exactly where u = 0, P(s) = P'(s) = 0 (and also
  y = 0 when k = 1), that is at a multiple root;
- the fiber over u = 0 is {P(s) = 0} in the (y, s)-plane: d lines of
  multiplicity j.

Yun's squarefree decomposition of the expanded P, which the tests keep, is
the oracle of this reading.

The normalized model of a triple is HypersurfaceRing(m, d, 1, "w"), the
relation u^m * w = s^d - 1, built by ``report.verify_triple``.  Its
derivations u^e * d/ds are certified by an integer rule on exponent vectors
(``cyclic_quotient.find_valid_lnd_degrees``).
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .exact_algebra import _check_int, _Frozen


# The relations of a triple are (s^d - 1)^j with j = 1 or j = m', and m'
# divides d, so a sweep in row order keeps at most tau(d) texts live, and
# tau(d) <= tau(720) = 30 for d <= MAX_D_CAP = 800.  64 entries cover that
# with room; the largest text, (s^800 - 1)^800, is about 148 KB.
_RELATION_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_RELATION_MEMO_SIZE)
def _format_relation(d: int, j: int) -> str:
    """The text of (s^d - 1)^j expanded in s: terms in decreasing exponent,
    a negative coefficient as a minus sign, unit coefficients and ``^1``
    elided, e.g. ``s^6 - 2*s^3 + 1``.  Memoized on (d, j).  The term at
    t^(j - i) is (-1)^i C(j, i), written by C(j, i) = C(j, i - 1) (j - i + 1)/i,
    exact in the integers; an inner C(j, i) is at least 2, and only the last
    inner term can have exponent 1, when d = 1."""
    parts = ["s" if d * j == 1 else f"s^{d * j}"]
    binom = 1
    for i in range(1, j):
        binom = binom * (j - i + 1) // i
        parts.append(f"{' - ' if i % 2 else ' + '}{binom}*s^{d * (j - i)}")
    if d == 1 and j > 1:
        parts[-1] = parts[-1][:-2]
    parts.append(" - 1" if j % 2 else " + 1")
    return "".join(parts)


class HypersurfaceRing(_Frozen):
    """Presentation of C[u, second, s] / (u^k * second - (s^d - 1)^j).
    Compared and hashed by (k, d, j, second_var)."""

    __slots__ = ("k", "d", "j", "second_var")

    def __new__(cls, k: int, d: int, j: int, second_var: str = "v"):
        _check_int("k", k, 1)
        _check_int("d", d, 1)
        _check_int("j", j, 1)
        if second_var in ("u", "s"):
            raise ValueError(f"second variable may not shadow u or s: {second_var!r}")
        return super()._trusted(k, d, j, second_var)

    @property
    def variables(self) -> tuple[str, str, str]:
        return ("u", self.second_var, "s")

    def serialize(self) -> dict:
        """The ring as JSON: the right-hand side P is printed expanded in s by
        ``_format_relation``."""
        return {"k": self.k, "P": _format_relation(self.d, self.j), "second_var": self.second_var}


# witness: j, the multiplicity of the factor s^d - 1 of P
SmoothCheck = namedtuple("SmoothCheck", "smooth witness")


def smooth_check(ring: HypersurfaceRing) -> SmoothCheck:
    """Smooth iff j = 1, by the module's lemma.  The witness is j: when
    j >= 2, s^d - 1 is the factor of P's squarefree decomposition of
    multiplicity j, whose roots are the s-coordinates of the singular
    points along u = 0."""
    return SmoothCheck(ring.j == 1, ring.j)


def fiber_analysis(ring: HypersurfaceRing) -> list[tuple[int, int]]:
    """Components of the fiber over u = 0 of the u-projection, as
    (component count, multiplicity) pairs: {P(s) = 0} in the
    (second, s)-plane, which by the module's lemma is d lines of
    multiplicity j (component count = degree of the squarefree factor;
    roots are never extracted).  Away from u = 0 every fiber is a single
    reduced line, [(1, 1)].
    """
    return [(ring.d, ring.j)]
