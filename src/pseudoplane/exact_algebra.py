"""Exact coefficients and the sparse polynomial type the package prints.

Coefficients are exact: an `int` or a `fractions.Fraction`, which compare
and hash equal where their values are.  A polynomial is a sparse map from
exponent vectors to nonzero coefficients:

    MultiPoly(("u", "v", "s"), {(2, 1, 0): 1})   # u^2*v
    MultiPoly(("s",), {(3,): 1, (0,): -1})       # s^3 - 1

Zero coefficients are never stored, so equality of term maps is equality of
polynomials.  Complex numbers never appear anywhere in this package: the
rings hold their relations factored over rational points, every question
about roots is answered from those points and their exponents, and the
relations are printed from integers.  So ``MultiPoly`` has no arithmetic:
it is built, compared, printed and parsed.  Polynomial sums, products and
powers, division, the gcd and Yun's squarefree decomposition are kept in
the tests, as the oracles of those readings.

Text format (used by the CLI and in JSON reports): a signed sum of terms
``coeff*var^exp*...`` with ``^1`` and unit coefficients elided and rationals
written ``p/q``, e.g. ``s^3 - 1`` or ``-2/3*u^2*v + s``.  Terms are printed in
decreasing lexicographic order of the exponent vector (in the declared
variable order), and ``parse_poly(format_poly(p), p.variables) == p`` holds
bit-exactly.  The sign and coefficient rules are one term printer,
``_format_terms``, which ``HypersurfaceRing.serialize`` shares.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Union

Exponents = tuple[int, ...]
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


class MultiPoly(_Frozen):
    """Sparse polynomial with exact rational coefficients.

    Immutable, compared and hashed by its variables and terms.  It has no
    arithmetic: the package builds polynomials only to print and parse
    them.  The constructor takes `int` (not `bool`) and `Fraction`
    coefficients and `int` (not `bool`) exponents, and refuses anything
    else with ``ValueError``.
    """

    __slots__ = ("_variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables}")
        clean: dict[Exponents, Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} does not match variable list {variables}"
                )
            if any(not _is_int(e) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            if not (_is_int(coeff) or type(coeff) is Fraction):
                raise ValueError(f"coefficients must be ints or Fractions: {coeff!r}")
            coeff = _exact(coeff)
            if not coeff:
                continue
            acc = clean.get(exps)
            total = coeff if acc is None else acc + coeff
            if total:
                clean[exps] = total
            else:
                clean.pop(exps, None)
        object.__setattr__(self, "_variables", variables)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], clean_terms: dict[Exponents, Scalar]) -> "MultiPoly":
        """Wrap an already clean term map without re-validating it.

        For term maps built clean, such as `smooth_check`'s witness:
        `variables` is a tuple of distinct names, every key an exponent tuple
        of non-negative ints of the right length, and every value a nonzero
        `int` or `Fraction` (never a `bool` or a `float`).  The dict is taken
        over, not copied, so the caller must not keep mutating it.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_variables", variables)
        object.__setattr__(self, "_terms", clean_terms)
        return self

    # -- basic queries -------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- structural equality / hashing ---------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._variables == other._variables and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._variables, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self._variables!r}, {format_poly(self)!r})"


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


# -- text format ---------------------------------------------------------------

_VAR_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)(?:\^(\d+))?\Z")
_NUMBER_RE = re.compile(r"\d+(?:/\d+)?\Z")


def _parse_term(chunk: str, variables: tuple[str, ...]) -> tuple[Fraction, Exponents]:
    coeff = Fraction(1)
    exps = [0] * len(variables)
    for factor in chunk.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError(f"empty factor in term {chunk!r}")
        if _NUMBER_RE.match(factor):
            coeff *= Fraction(factor)
            continue
        m = _VAR_FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"cannot parse factor {factor!r}")
        name, power = m.group(1), int(m.group(2) or "1")
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} (expected one of {variables})")
        exps[variables.index(name)] += power
    return coeff, tuple(exps)


def parse_poly(text: str, variables: Iterable[str]) -> MultiPoly:
    """Parse the polynomial text format; inverse of :func:`format_poly`."""
    variables = tuple(variables)
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"([+-])\s*([^+\-]+)", s)
    joined = "".join(sign + chunk for sign, chunk in pieces)
    if joined.replace(" ", "") != s.replace(" ", ""):
        raise ValueError(f"cannot parse polynomial text {text!r}")
    acc: list[tuple[Exponents, Fraction]] = []
    for sign, chunk in pieces:
        coeff, exps = _parse_term(chunk.strip(), variables)
        acc.append((exps, -coeff if sign == "-" else coeff))
    return MultiPoly(variables, acc)


def _format_terms(terms: Iterable[tuple[str, Scalar]]) -> str:
    """The text of a sum of (monomial text, nonzero coefficient) terms, in the
    given order: unit coefficients are elided, a negative coefficient becomes
    a minus sign, and no terms print as ``0``."""
    parts: list[str] = []
    for mono, coeff in terms:
        if parts:
            parts.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            parts.append("-")
        mag = abs(coeff)
        if not mono:
            parts.append(str(mag))
        elif mag == 1:
            parts.append(mono)
        else:
            parts.append(f"{mag}*{mono}")
    return "".join(parts) or "0"


def format_poly(p: MultiPoly) -> str:
    """Canonical text form: terms in decreasing lexicographic exponent order."""
    terms = p.terms
    return _format_terms(
        ("*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.variables, exps) if e), terms[exps])
        for exps in sorted(terms, reverse=True)
    )
