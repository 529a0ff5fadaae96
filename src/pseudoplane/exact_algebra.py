"""Exact scalars and the base of the package's value classes.

Coefficients and points are exact: an `int` or a `fractions.Fraction`, which
compare and hash equal where their values are.  A scalar is stored as an
`int` when it is integral and as a `Fraction` only when it is not
(``_exact``).  Complex numbers never appear anywhere in this package: the
rings hold their relations factored over rational points, every question
about roots is answered from those points and their exponents, and the
relations are printed from integers (``hypersurface_ring``).  No polynomial
is built as a value: the tests keep the polynomial type, its text format and
its arithmetic, as the oracles of those readings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class _Frozen:
    """Base of the package's value classes: ``__init__`` fills the subclass's
    ``__slots__`` through ``object.__setattr__``, and then the instance
    refuses assignment and deletion.  The repr lists the slots as keyword
    arguments."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"


def _is_int(value) -> bool:
    """Whether `value` is an `int`; `bool` is refused though it is an `int`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    """Whether `value` is an `int` >= 1, not a `bool`."""
    return _is_int(value) and value >= 1


def _exact(c: Scalar) -> Scalar:
    """An `int` (not a `bool`) or `Fraction` `c` as stored: an `int` when
    integral, else the `Fraction`.  Callers check the type first."""
    if type(c) is int:
        return c
    return c.numerator if c.denominator == 1 else c
