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
from operator import attrgetter

Scalar = int | Fraction


class _Frozen:
    """Base of the package's value classes.

    A subclass names its fields in ``__slots__``.  ``_trusted(*values)``
    fills them in that order without a check, for values that are already
    clean; a subclass that checks its arguments does so in a ``__new__``
    that ends in ``super()._trusted(...)``.  An instance then refuses
    assignment and deletion, and its repr lists the slots as keyword
    arguments.  Instances of one class compare, and hash, by the slots that
    ``_key`` names, all of them unless the subclass names fewer; a subclass
    whose fields are unhashable sets ``__hash__ = None``.
    """

    __slots__ = ()
    _key: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # each slot's descriptor setter, which bypasses __setattr__ below,
        # and the getter of the compared fields, both made once per class
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._compared = attrgetter(*(cls._key or cls.__slots__))

    @classmethod
    def _trusted(cls, *values):
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"


def _is_int(value) -> bool:
    """Whether `value` is an `int`; `bool` is refused though it is an `int`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    """Whether `value` is an `int` >= 1, not a `bool`."""
    return _is_int(value) and value >= 1


def _check_int(name: str, value, low: int, cap: int) -> None:
    """Refuse `value` with ``ValueError``, naming it as `name`, unless it is
    an `int` (not a `bool`) in ``[low, cap]``; called before any work starts."""
    # an exact int skips the call, as in _exact
    if type(value) is not int and not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > cap:
        raise ValueError(f"{name} must be <= {cap}, got {value}")


def _exact(value, what: str) -> Scalar:
    """`value` as stored: an `int` when integral, else the `Fraction`.
    Anything but an `int` (not a `bool`) or a `Fraction` is refused with
    ``ValueError``, naming the values as `what`."""
    if type(value) is int:
        return value
    if not (type(value) is Fraction or _is_int(value)):
        raise ValueError(f"{what} must be ints or Fractions: {value!r}")
    return value.numerator if value.denominator == 1 else value
