"""The divisor pair presenting a member of the surface family.

The weight-n piece of the presented algebra A = A0[D+, D-] over A0 = C[t]
is the rank-one C[t]-module generated by prod (t - p)^e(p), with negative
e(p) meaning an allowed pole: weight n >= 0 reads e = -floor(n*D+), weight
n < 0 reads e = -floor(-n*D-).  ``cyclic_quotient.product_window`` reads
those exponents as integer floor divisions of the pair's rows
(``qdivisor._integer_rows``), so no Fraction is built per weight, and the
family pair itself is built from its rows (``QDivisor._trusted``), without
a Fraction.  ``_recover_family_parameters`` recognizes that shape in a
pair, so this module both builds and reads it.
"""

from __future__ import annotations

from .qdivisor import DpdPair, QDivisor, fract_div


def _family_pair(d: int, e_prime: int, m: int) -> DpdPair:
    """The pair (-(e'/d)[0], (e'/d)[0] - (1/m)[1]) of the triple with
    parameters (d, e', m), for checked inputs: d and m ints >= 1, and e' an
    int in [1, d] coprime to d, as ``SurfaceTriple`` derives it and
    ``_recover_family_parameters`` reads it off a reduced fraction.
    The divisors are built unchecked from the rows {0: (-e', d)} and
    {0: (e', d), 1: (-1, m)}: points increasing and coefficients reduced
    nonzero (numerator, denominator) pairs over positive denominators, as
    ``QDivisor`` stores them."""
    return DpdPair(QDivisor._trusted({0: (-e_prime, d)}), QDivisor._trusted({0: (e_prime, d), 1: (-1, m)}))


def _recover_family_parameters(pair: DpdPair) -> dict | None:
    """Recognize pairs of the family shape (-(e'/d)[0], (e'/d)[0] - (1/m)[1])
    up to the integral shift equivalence; ``up_to_equivalence`` is False when
    the pair is the family pair itself."""
    fractional = fract_div(pair.d_plus)
    if any(p != 0 for p in fractional.support):
        return None
    total = pair.total
    if total.support != (1,):
        return None
    # the coefficient at the point 1 is a/m, and only a = -1 gives a smooth surface
    boundary = total.coefficient(1)
    if boundary.numerator != -1:
        return None
    # 1 - {D+}(0) lies in (0, 1], so e' is in [1, d] and coprime to d
    ratio = 1 - fractional.coefficient(0)
    d, e_prime, m = ratio.denominator, ratio.numerator, boundary.denominator
    exact = pair == _family_pair(d, e_prime, m)
    return {"d": d, "e_prime": e_prime, "m": m, "up_to_equivalence": not exact}
