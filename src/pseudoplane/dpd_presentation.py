"""The divisor pair presenting a member of the surface family.

The weight-n piece of the presented algebra A = A0[D+, D-] over A0 = C[t]
is the rank-one C[t]-module generated by prod (t - p)^e(p), with negative
e(p) meaning an allowed pole: weight n >= 0 reads e = -floor(n*D+), weight
n < 0 reads e = -floor(-n*D-).  ``cyclic_quotient.product_window`` reads
those exponents as integer floor divisions of the pair's rows
(``qdivisor._integer_rows``), so no Fraction is built per weight, and the
family pair itself is built from its rows (``QDivisor._trusted``), without
a Fraction.
"""

from __future__ import annotations

from .qdivisor import DpdPair, QDivisor


def _family_pair(d: int, e_prime: int, m: int) -> DpdPair:
    """The pair (-(e'/d)[0], (e'/d)[0] - (1/m)[1]) of the triple with
    parameters (d, e', m), for checked inputs: d and m ints >= 1, and e' an
    int in [1, d] coprime to d, as ``SurfaceTriple`` derives it and
    ``report._recover_family_parameters`` reads it off a reduced fraction.
    The divisors are built unchecked from the rows {0: (-e', d)} and
    {0: (e', d), 1: (-1, m)}: points increasing and coefficients reduced
    nonzero (numerator, denominator) pairs over positive denominators, as
    ``QDivisor`` stores them."""
    return DpdPair(QDivisor._trusted({0: (-e_prime, d)}), QDivisor._trusted({0: (e_prime, d), 1: (-1, m)}))
