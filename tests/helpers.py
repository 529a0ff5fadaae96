"""Shared builders, independent oracles, and hypothesis strategies."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from hypothesis import strategies as st

import pseudoplane
from pseudoplane import (
    CyclicAction,
    DpdPair,
    HypersurfaceRing,
    QDivisor,
    RegimeError,
    SurfaceTriple,
    standard_action,
    weight_piece_generator,
)
from pseudoplane import cyclic_quotient, report
from pseudoplane.exact_algebra import Scalar, _exact, _Frozen, _is_int
from pseudoplane.qdivisor import _NUMBER_RE

F = Fraction

Exponents = tuple[int, ...]


def fresh_probe(probe: str) -> str:
    """What the Python source `probe` prints in a fresh interpreter that
    imports the package from this checkout.  ``-S`` keeps site's start-up
    files out, so only the package's own imports are loaded."""
    src = Path(pseudoplane.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


# -- the polynomial type and its text format --------------------------------------
#
# The package builds no polynomial: it prints its relations and witnesses
# from the integers (d, j) of (s^d - 1)^j (hypersurface_ring._format_relation).
# MultiPoly, its printer and its parser are the oracles of that text: a
# printed relation parses back to the expanded product, and format_poly
# keeps its own term rules, so it stays independent of the printer it checks.


class MultiPoly(_Frozen):
    """Sparse polynomial with exact rational coefficients: a map from
    exponent vectors to nonzero coefficients, so equality of term maps is
    equality of polynomials.

    Immutable, compared by its variables and terms, and not hashable, as no
    oracle keys a memo on a polynomial.  The constructor takes `int` (not
    `bool`) and `Fraction` coefficients and `int` (not `bool`) exponents,
    and refuses anything else with ``ValueError``; ``_trusted`` takes a
    clean term map over, uncopied, for the arithmetic's results.
    """

    __slots__ = ("_variables", "_terms")
    __hash__ = None

    def __new__(cls, variables: Iterable[str], terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
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
            coeff = _exact(coeff, "coefficients")
            if not coeff:
                continue
            acc = clean.get(exps)
            total = coeff if acc is None else acc + coeff
            if total:
                clean[exps] = total
            else:
                clean.pop(exps, None)
        return super()._trusted(variables, clean)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self._variables!r}, {format_poly(self)!r})"


_VAR_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)(?:\^(\d+))?\Z")


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
    """Canonical text form: a signed sum of terms ``coeff*var^exp*...`` in
    decreasing lexicographic order of the exponent vector (in the declared
    variable order), with ``^1`` and unit coefficients elided and rationals
    written ``p/q``, e.g. ``-2/3*u^2*v + s``; ``parse_poly(format_poly(p),
    p.variables) == p`` holds bit-exactly."""
    terms = p.terms
    return _format_terms(
        ("*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.variables, exps) if e), terms[exps])
        for exps in sorted(terms, reverse=True)
    )


def upoly(var: str, coeffs: dict[int, object]) -> MultiPoly:
    return MultiPoly((var,), {(e,): c for e, c in coeffs.items()})


# -- polynomial arithmetic -------------------------------------------------------
#
# MultiPoly has no arithmetic: the package prints polynomials from integers
# and never adds or multiplies one.  The oracles do, through these functions.
# Each result goes through the validating constructor, which merges repeated
# exponent vectors and drops the terms that cancel.


def _shared_variables(p: MultiPoly, q: MultiPoly) -> tuple[str, ...]:
    if p.variables != q.variables:
        raise ValueError(f"mismatched variable lists: {p.variables} vs {q.variables}")
    return p.variables


def poly_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return MultiPoly(_shared_variables(p, q), [*p.terms.items(), *q.terms.items()])


def poly_scale(p: MultiPoly, c: Scalar) -> MultiPoly:
    """c * p for an exact scalar c."""
    return MultiPoly(p.variables, {exps: c * coeff for exps, coeff in p.terms.items()})


def poly_sub(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return poly_add(p, poly_scale(q, -1))


def poly_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return MultiPoly(
        _shared_variables(p, q),
        [
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in p.terms.items()
            for e2, c2 in q.terms.items()
        ],
    )


def poly_pow(p: MultiPoly, n: int) -> MultiPoly:
    """p^n for an int n >= 0, by repeated squaring."""
    result = MultiPoly(p.variables, {(0,) * len(p.variables): 1})
    while n:
        if n & 1:
            result = poly_mul(result, p)
        n >>= 1
        if n:
            p = poly_mul(p, p)
    return result


# -- the gcd and Yun layer -----------------------------------------------------
#
# exact_algebra once decomposed every ring's P(s) = Q(s^d) with Yun's
# squarefree decomposition.  The rings now hold their relation factored, and
# smoothness and fibers are read off the root exponents; Yun's loop with
# Euclid's gcd over the rationals is kept as the oracle of that reading, with
# the MultiPoly queries (degree, valuation, leading coefficient, ...) that
# only the oracles use.


def _require_univariate(p: MultiPoly, q: MultiPoly | None = None) -> str:
    if len(p.variables) != 1:
        raise ValueError(f"expected a univariate polynomial, got variables {p.variables}")
    if q is not None:
        if q.variables != p.variables:
            raise ValueError(
                f"mismatched variable lists: {p.variables} vs {q.variables}"
            )
    return p.variables[0]


def _var_index(p: MultiPoly, var: str) -> int:
    try:
        return p.variables.index(var)
    except ValueError:
        raise ValueError(f"unknown variable {var!r} for list {p.variables}") from None


def constant_coefficient(p: MultiPoly) -> Scalar:
    return p.terms.get((0,) * len(p.variables), 0)


def degree(p: MultiPoly, var: str | None = None) -> int:
    """Total degree, or the degree in one variable; -1 for the zero polynomial."""
    if not p.terms:
        return -1
    if var is None:
        return max(sum(exps) for exps in p.terms)
    idx = _var_index(p, var)
    return max(exps[idx] for exps in p.terms)


def valuation(p: MultiPoly, var: str) -> int:
    """Smallest exponent of `var` appearing in any term (error on zero)."""
    if not p.terms:
        raise ValueError("zero polynomial has no valuation")
    idx = _var_index(p, var)
    return min(exps[idx] for exps in p.terms)


def leading_coefficient(p: MultiPoly) -> Scalar:
    """Coefficient of the highest-degree term of a univariate polynomial."""
    _require_univariate(p)
    if not p.terms:
        return 0
    return p.terms[max(p.terms)]


def partial(p: MultiPoly, var: str) -> MultiPoly:
    """Formal partial derivative with respect to `var`."""
    idx = _var_index(p, var)
    out: dict[tuple[int, ...], Scalar] = {}
    for exps, coeff in p.terms.items():
        e = exps[idx]
        if e == 0:
            continue
        # lowering one exponent is injective on the terms it keeps
        out[exps[:idx] + (e - 1,) + exps[idx + 1:]] = coeff * e
    return MultiPoly._trusted(p.variables, out)


def monic(p: MultiPoly) -> MultiPoly:
    """Divide a univariate polynomial by its leading coefficient (zero stays zero)."""
    _require_univariate(p)
    if not p.terms:
        return p
    return poly_scale(p, Fraction(1, leading_coefficient(p)))


def poly_divmod(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Exact univariate division with remainder over the rationals."""
    _require_univariate(p, q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    qdeg = degree(q)
    qlead = leading_coefficient(q)
    rem = dict(p.terms)
    quo: dict[tuple[int, ...], Scalar] = {}
    while rem:
        top = max(rem)
        deg = top[0]
        if deg < qdeg:
            break
        factor = _exact(Fraction(rem[top], qlead), "coefficients")
        shift = deg - qdeg
        quo[(shift,)] = factor
        for exps, coeff in q.terms.items():
            key = (exps[0] + shift,)
            total = rem.get(key, 0) - factor * coeff
            if total:
                rem[key] = total
            else:
                del rem[key]
    return MultiPoly._trusted(p.variables, quo), MultiPoly._trusted(p.variables, rem)


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd of univariate polynomials, by Euclid's algorithm over the
    rationals."""
    _require_univariate(p, q)
    a, b = p, q
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def squarefree_decomposition(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Decompose p = lead * prod(factor_i ^ mult_i) with squarefree pairwise
    coprime monic factors and strictly increasing multiplicities, by Yun's
    loop: one gcd per multiplicity up to the largest."""
    var = _require_univariate(p)
    if not p:
        raise ValueError("squarefree decomposition of the zero polynomial")
    a = monic(p)
    if degree(a) == 0:
        return []
    da = partial(a, var)
    g = poly_gcd(a, da)
    if degree(g) == 0:
        return [(a, 1)]
    factors: list[tuple[MultiPoly, int]] = []
    c = poly_divmod(a, g)[0]
    d = poly_sub(poly_divmod(da, g)[0], partial(c, var))
    i = 1
    while degree(c) > 0:
        f = poly_gcd(c, d)
        if degree(f) > 0:
            factors.append((f, i))
        c = poly_divmod(c, f)[0]
        d = poly_sub(poly_divmod(d, f)[0], partial(c, var))
        i += 1
    return factors


# -- the relation as a polynomial -------------------------------------------------
#
# HypersurfaceRing once expanded its relation into a MultiPoly, P, which the
# ring printed and smooth_check and freeness_check read.  The ring now
# prints the relation from the integers (d, j) of (s^d - 1)^j; the expansion
# is kept as the oracle of that printer and of the readings below, and the
# term-by-term printer it replaced as a second, textual oracle.  The
# oracles read a relation factored as prod (s^d - p)^j over (point p,
# exponent j) pairs, a ring's own as ((1, ring.j),), so that they also read
# the relations that the ring class cannot hold.


def root_factor(d: int, p: Scalar) -> MultiPoly:
    """s^d - p, for an exact nonzero p."""
    return MultiPoly._trusted(("s",), {(d,): 1, (0,): -p})


def oracle_relation(d: int, roots) -> MultiPoly:
    """prod (s^d - p)^j over the (point p, exponent j) pairs of `roots`,
    expanded in s by repeated squaring."""
    product = MultiPoly._trusted(("s",), {(0,): 1})
    for p, j in roots:
        product = poly_mul(product, poly_pow(root_factor(d, p), j))
    return product


def ring_relation(ring: HypersurfaceRing) -> MultiPoly:
    """The ring's relation (s^d - 1)^j, expanded by ``oracle_relation``."""
    return oracle_relation(ring.d, ((1, ring.j),))


def oracle_relation_terms(d: int, j: int) -> list[tuple[int, int]]:
    """The (exponent, coefficient) terms of (s^d - 1)^j, in decreasing
    exponent: the binomial row of (t - 1)^j at t = s^d, written by
    C(j, i + 1) = C(j, i) (j - i)/(i + 1), exact in the integers, with the
    sign (-1)^i at t^(j - i).  No coefficient is zero."""
    terms = []
    binom = 1
    for i in range(j + 1):
        terms.append((d * (j - i), -binom if i % 2 else binom))
        binom = binom * (j - i) // (i + 1)
    return terms


def oracle_format_relation(d: int, j: int) -> str:
    """The text of (s^d - 1)^j as the package printed it term by term from
    ``oracle_relation_terms``, each term deciding its own sign, unit
    coefficient and ``^1``: the oracle of the one-pass
    ``hypersurface_ring._format_relation``."""
    parts: list[str] = []
    for e, c in oracle_relation_terms(d, j):
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


def oracle_component_permutation(d: int, e: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of j -> j + e on the residues mod d, as component_permutation
    walked them: from each residue not yet seen, in increasing order."""
    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for start in range(d):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = (start + e) % d
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = (j + e) % d
        cycles.append(tuple(cycle))
    return tuple(cycles)


def witness_factors(d: int, check) -> tuple[tuple[MultiPoly, int], ...]:
    """smooth_check's result as the singular factors it stands for: none
    when smooth, else the one factor s^d - 1 with its witness j as
    multiplicity."""
    return () if check.smooth else ((root_factor(d, 1), check.witness),)


def yun_reading(ring: HypersurfaceRing) -> tuple[tuple[tuple[MultiPoly, int], ...], list[tuple[int, int]]]:
    """smooth_check's singular factors (as ``witness_factors``) and
    fiber_analysis over u = 0 as they were read off Yun's decomposition of
    the expanded P: the factors of multiplicity >= 2, and (degree,
    multiplicity) of every factor."""
    yun = squarefree_decomposition(ring_relation(ring))
    return tuple((f, j) for f, j in yun if j >= 2), [(degree(f), j) for f, j in yun]


# -- the rewriting layer --------------------------------------------------------
#
# hypersurface_ring once rewrote elements of C[u, y, s]/(u^k * y - P(s)) to
# normal form, and the pipeline computed its power identity w^m' = v with
# it.  The identity is now derived from the relation, and the rewriting is
# kept as its oracle, as the ground truth of the Laurent LND route and of the
# weight pieces' monomials.


@dataclass(frozen=True)
class RingElement:
    """An element of a hypersurface ring, stored in normal form: no monomial
    has u-exponent >= k together with a positive second-variable exponent."""

    ring: HypersurfaceRing
    poly: MultiPoly


def monomial(ring, a: int, b: int, c: int, coeff: Scalar = 1) -> MultiPoly:
    """coeff * u^a * second^b * s^c in the ring's variables."""
    return MultiPoly(ring.variables, {(a, b, c): coeff})


def with_variables(p: MultiPoly, variables) -> MultiPoly:
    """Re-embed p into a larger (or reordered) variable list."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names: {variables}")
    positions = []
    for v in p.variables:
        if v not in variables:
            raise ValueError(f"cannot drop variable {v!r} (new list {variables})")
        positions.append(variables.index(v))
    out: dict[tuple[int, ...], Scalar] = {}
    for exps, coeff in p.terms.items():
        new = [0] * len(variables)
        for pos, e in zip(positions, exps):
            new[pos] = e
        out[tuple(new)] = coeff
    return MultiPoly(variables, out)


@lru_cache(maxsize=512)
def rhs_power(d: int, roots, j: int) -> MultiPoly:
    """P(s)^j of the relation prod (s^d - p)^j over `roots`, expanded once
    per (d, roots, j)."""
    return poly_pow(oracle_relation(d, roots), j)


def normal_form(ring: HypersurfaceRing, p: MultiPoly, roots=None) -> RingElement:
    """Exhaustively rewrite u^k * second -> P(s), with P the ring's
    (s^d - 1)^j or, when `roots` is given, prod (s^d - p)^j over them.

    min(a // k, b) steps apply to a monomial u^a * second^b * s^c, after which
    either a < k or b = 0; the replacement only involves s, so one pass per
    monomial reaches the unique normal form.
    """
    if p.variables != ring.variables:
        raise ValueError(f"polynomial variables {p.variables} do not match ring {ring.variables}")
    if roots is None:
        roots = ((1, ring.j),)
    k = ring.k
    out: dict[tuple[int, int, int], Scalar] = {}
    for (a, b, c), coeff in p.terms.items():
        j = min(a // k, b)
        if j == 0:
            out[a, b, c] = out.get((a, b, c), 0) + coeff
            continue
        a, b = a - j * k, b - j
        for (e,), pc in rhs_power(ring.d, roots, j).terms.items():
            key = (a, b, c + e)
            out[key] = out.get(key, 0) + coeff * pc
    clean = {key: v for key, v in out.items() if v}
    return RingElement(ring, MultiPoly._trusted(ring.variables, clean))


def oracle_power_identity(k: int, d: int, roots, m: int) -> bool:
    """The power identity as it was computed, on u^k v = prod (s^d - p)^j
    over the (point p, exponent j) pairs of `roots`: the normal form of
    u^k * v equals (s^d - 1)^(k // m)."""
    ring = HypersurfaceRing(k, d, 1, "v")  # its k and variables; P is read off roots
    reduced = normal_form(ring, monomial(ring, k, 1, 0), roots)
    expected = poly_pow(upoly("s", {d: 1, 0: -1}), k // m)
    return reduced.poly == with_variables(expected, ring.variables)


def record_rings(patch) -> list[HypersurfaceRing]:
    """Every ring report.verify_triple builds from now on, in order: per
    triple the covering ring (second variable v), then the normalized model
    (w).  `patch` is a pytest MonkeyPatch.  The pipeline builds its rings
    through HypersurfaceRing._trusted, unchecked; here the validating
    constructor builds each in its place, so a recording run also checks
    that every presentation the pipeline trusts passes full validation."""
    built = []

    def recorded(*args):
        ring = HypersurfaceRing(*args)
        built.append(ring)
        return ring

    patch.setattr(HypersurfaceRing, "_trusted", staticmethod(recorded))
    return built


def element(ring, text: str):
    """The normal form of a polynomial written in the ring's variables."""
    return normal_form(ring, parse_poly(text, ring.variables))


def grid_triples(d_max: int = 6, m_max: int = 5) -> list[tuple[int, int, int]]:
    """The sweep's triples, by default those of the acceptance grid."""
    return list(report.grid_triples(d_max, m_max))


# -- the Laurent-row LND certificate --------------------------------------------
#
# find_valid_lnd_degrees once ran this: membership of each derivation image on
# the localization C[u^(+-1), s], then nilpotency on the weight pieces.  The
# membership test is kept as the oracle of the integer rule that replaced it
# (_keeps_ring), and the nilpotency index for acceptance criterion 7.


class StructuralError(RuntimeError):
    """A step that the construction guarantees has failed (the nilpotency
    filtration bound); signals a wrong convention or a bug, not bad input."""


@dataclass(frozen=True)
class NonPolynomial:
    """Marker for a derivation image that leaves the ring; names an offending
    localized monomial (negative u-exponent that cannot be absorbed)."""

    monomial: str


def normalized_ring(triple: SurfaceTriple) -> HypersurfaceRing:
    """The normalized model u^m w - (s^d - 1) for the triple."""
    return HypersurfaceRing(triple.m, triple.d, 1, "w")


def _normalized_params(ring: HypersurfaceRing) -> tuple[int, int]:
    """(m, d) for a ring in the normalized shape u^m w - (s^d - 1)."""
    if ring.j != 1:
        raise ValueError(
            f"ring is not in the normalized shape u^m*{ring.second_var} - (s^d - 1): "
            f"P = {format_poly(ring_relation(ring))}"
        )
    return ring.k, ring.d


def _to_localization(ring: HypersurfaceRing, poly: MultiPoly) -> dict[int, dict[int, Scalar]]:
    """Expand w = (s^d - 1) * u^(-m): map {u-exponent j -> {s-exponent -> coeff}}."""
    m = ring.k
    loc: dict[int, dict[int, Scalar]] = {}
    for (a, b, c), coeff in poly.terms.items():
        j = a - m * b
        row = loc.setdefault(j, {})
        for (e,), c2 in rhs_power(ring.d, ((1, 1),), b).terms.items():
            key = e + c
            total = row.get(key, 0) + coeff * c2
            if total:
                row[key] = total
            else:
                del row[key]
    return {j: row for j, row in loc.items() if row}


def _derive(loc: dict[int, dict[int, Scalar]], e: int) -> dict[int, dict[int, Scalar]]:
    """u^e * d/ds on Laurent rows: row j moves to j + e and is differentiated."""
    image: dict[int, dict[int, Scalar]] = {}
    for j, row in loc.items():
        drow = {c - 1: coeff * c for c, coeff in row.items() if c}
        if drow:
            image[j + e] = drow
    return image


def _first_non_polynomial(
    ring: HypersurfaceRing, loc: dict[int, dict[int, Scalar]]
) -> NonPolynomial | None:
    """The membership test for a Laurent expansion: the row of each u-exponent
    j < 0 must be divisible by (s^d - 1)^ceil(-j/m).  Reports the top term of
    the remainder at the least failing j, or None if the expansion lies in the
    ring."""
    m = ring.k
    for j in sorted(loc):
        if j >= 0:
            break
        f = MultiPoly._trusted(("s",), {(e,): c for e, c in loc[j].items()})
        _, rem = poly_divmod(f, rhs_power(ring.d, ((1, 1),), (-j + m - 1) // m))
        if rem:
            top = max(rem.terms)
            return NonPolynomial(f"{rem.terms[top]}*u^{j}*s^{top[0]}")
    return None


def _check_derivation(ring: HypersurfaceRing, e: int, x: RingElement) -> None:
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"derivation degree must be a positive integer: {e}")
    if x.ring != ring:
        raise ValueError("element belongs to a different ring")
    _normalized_params(ring)  # the localization helpers rely on the shape


def derivation_leaves_ring(ring: HypersurfaceRing, e: int, x: RingElement) -> NonPolynomial | None:
    """Whether the degree-e derivation u^e * d/ds maps x out of the normalized
    ring: the offending localized monomial, or None if the image is in it."""
    _check_derivation(ring, e, x)
    return _first_non_polynomial(ring, _derive(_to_localization(ring, x.poly), e))


def s_weight(x: RingElement) -> int:
    """Filtration weight s -> 1, w -> d, u -> 0 (max over monomials).

    The rewrite rule preserves it and the derivation strictly decreases it, so
    1 + s_weight(x) bounds the nilpotency index of x.
    """
    _, d = _normalized_params(x.ring)
    if not x.poly:
        return 0
    return max(b * d + c for (_, b, c) in x.poly.terms)


def nilpotency_index(ring: HypersurfaceRing, e: int, x: RingElement) -> int | None:
    """Least N with the N-th derivation image of x zero, or None if some
    iterate leaves the ring.  Exceeding the bound 1 + s_weight(x) raises
    :class:`StructuralError`.  x is expanded into Laurent rows once, and each
    iterate is only tested for membership."""
    _check_derivation(ring, e, x)
    bound = 1 + s_weight(x)
    loc = _to_localization(ring, x.poly)
    for n in range(1, bound + 1):
        loc = _derive(loc, e)
        if _first_non_polynomial(ring, loc) is not None:
            return None
        if not loc:
            return n
    raise StructuralError(
        f"nilpotency bound {bound} exceeded; the filtration certificate is violated"
    )


def oracle_lnd_degrees(triple: SurfaceTriple, bound: int) -> list[int]:
    """find_valid_lnd_degrees degree by degree: the integer rule on every
    Hilbert-basis generator at each x = e (mod d) in [1, bound], as the
    search ran before it bisected.  The rule is read through the
    cyclic_quotient module, so a monkeypatched rule reaches both."""
    basis = hilbert_basis(standard_action(triple))
    return [
        degree
        for degree in range((triple.e - 1) % triple.d + 1, bound + 1, triple.d)
        if all(cyclic_quotient._keeps_ring(g, degree, triple.m) for g in basis)
    ]


# -- independent oracles ---------------------------------------------------------


def assert_clean(p: MultiPoly) -> None:
    """The invariants the validating constructor enforces hold for p."""
    assert p == MultiPoly(p.variables, p.terms)
    for exps, coeff in p.terms.items():
        assert type(coeff) in (int, Fraction) and coeff != 0
        assert len(exps) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in exps)


def homogeneous_weight(x) -> int | None:
    """Torus weight of a ring element under u -> 1, second -> -k, s -> 0
    (None for 0 or an inhomogeneous element)."""
    weights = {(a - x.ring.k * b) for a, b, _ in x.poly.terms}
    return weights.pop() if len(weights) == 1 else None


def action_weight(action, exps: tuple[int, ...], variables: tuple[str, ...]) -> int:
    """Residue of a monomial under a diagonal cyclic action (0 = invariant)."""
    return sum(e * action.weights[v] for e, v in zip(exps, variables)) % action.modulus


def weight_piece_is_rank_one(triple, n: int, exp_bound: int = 24) -> bool:
    """Re-verify by enumeration that every invariant normal-form monomial of
    weight n with exponents <= exp_bound is the generator times a power of s^d."""
    action = standard_action(triple)
    variables = normalized_ring(triple).variables
    ga, gb, gc = weight_piece_generator(triple, n)
    m, d = triple.m, triple.d
    for a in range(exp_bound + 1):
        for b in range(exp_bound + 1):
            if a - m * b != n or (b and a >= m):
                continue
            for c in range(exp_bound + 1):
                if action_weight(action, (a, b, c), variables) != 0:
                    continue
                if not (a == ga and b == gb and c >= gc and (c - gc) % d == 0):
                    return False
    return True


def monoid_points(d: int, weights: tuple[int, int, int], bound: int) -> set[tuple[int, int, int]]:
    return {
        (a, b, c)
        for a in range(bound + 1)
        for b in range(bound + 1)
        for c in range(bound + 1)
        if (a, b, c) != (0, 0, 0)
        and (a * weights[0] + b * weights[1] + c * weights[2]) % d == 0
    }


def hilbert_basis(action: CyclicAction) -> list[tuple[int, ...]]:
    """Minimal generating set of the monoid of invariant exponent vectors,
    sorted.  Exponent vectors follow the order of ``action.weights``.  The
    LND search reads one generator of this basis, (0, 1, m*e' mod d) (see
    ``find_valid_lnd_degrees``), so the whole basis is built only here, as
    the oracle of that lemma and of the search it replaced.

    The box [0, d]^3 holds every generator: d*e_i is invariant for each axis,
    so any vector with a coordinate exceeding d is reducible.  For each
    (a, b) in [0, d]^2 let c(a, b) be the least c making (a, b, c) invariant,
    or infinity when there is none.  That c solves
    c*w2 = -(a*w0 + b*w1) mod d, which has a solution iff g = gcd(w2, d)
    divides the right-hand side, and it is < step = d/g.  Only (a, b, c(a, b))
    can be a generator over (a, b) != (0, 0): a larger solution c' lies above
    it by the nonzero invariant vector (0, 0, c' - c).  Over (0, 0) the one
    candidate is (0, 0, step), always a generator, since nothing invariant and
    nonzero has a, b = 0 and c < step.

    Prefix minimum.  An invariant vector below (a, b, c(a, b)) is either
    (0, 0, c') with c' >= step > c(a, b), which is not below it, or lies above
    (a', b', c(a', b')) for some nonzero (a', b') <= (a, b); the difference of
    two invariant vectors is invariant.  So (a, b, c(a, b)) is a generator iff
    c(a, b) < min(M(a - 1, b), M(a, b - 1)), where M(a, b) is the least
    c(a', b') over nonzero (a', b') <= (a, b).  One row-by-row sweep of the
    (d + 1)^2 grid keeps M for the previous row and finds every generator in
    at most O(d^2) integer steps and O(d) memory, in sorted order; no
    candidate is compared with the basis found so far.  M only falls along
    a row or a column, so the sweep leaves out every cell to the lower right
    of a zero of M.  The standard action, weights (1, -m, e), has
    c(m mod d, 1) = 0, so it takes at most (m mod d + 1)(d + 1) steps.
    """
    if len(action.weights) != 3:
        raise ValueError(f"expected a three-variable action, got {tuple(action.weights)}")
    d = action.modulus
    w0, w1, w2 = action.weights.values()
    g = math.gcd(w2, d)
    step = d // g
    inv = pow(w2 // g, -1, step) if step > 1 else 0
    basis: list[tuple[int, ...]] = [(0, 0, step)]
    # least[b] holds M(a - 1, b) until the sweep of row a overwrites it with
    # M(a, b); step stands for infinity, as every c(a, b) is < step.  From
    # row a on, columns b >= width have M = 0 and hold no generator.
    least = [step] * (d + 1)
    width = d + 1
    for a in range(d + 1):
        left = step  # M(a, b - 1)
        r = a * w0 % d
        for b in range(width):
            below = min(least[b], left)
            if r % g == 0 and (a or b):
                c = (-(r // g) * inv) % step
                if c < below:
                    basis.append((a, b, c))
                    below = c
            if below == 0:
                width = b
                break
            least[b] = left = below
            r = (r + w1) % d
    return basis


def oracle_hilbert_basis(d: int, weights: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """The quadratic minimality filter: an invariant point of [0, d]^3 is a
    generator iff no other invariant point lies below it componentwise."""
    points = sorted(monoid_points(d, weights, d))
    basis = [
        x
        for x in points
        if not any(y != x and all(a <= b for a, b in zip(y, x)) for y in points)
    ]
    return tuple(sorted(basis))


def oracle_freeness_check(action: CyclicAction, ring: HypersurfaceRing):
    """freeness_check as it tested every power b in 1..d-1 against every
    coordinate pattern; the same semi-invariance check and point test."""
    d = action.modulus
    variables = ring.variables
    wts = [action.weights[v] for v in variables]
    relation = ring_relation(ring)
    residues = {(ring.k * wts[0] + wts[1]) % d}
    residues.update((exp * wts[2]) % d for (exp,) in relation.terms)
    if len(residues) > 1:
        raise ValueError(f"relation is not semi-invariant under the action: residues {sorted(residues)}")
    vanishes_at_zero = constant_coefficient(relation) == 0
    has_nonzero_root = degree(relation) > valuation(relation, "s")

    def admits(u_nz: bool, v_nz: bool, s_nz: bool) -> bool:
        if not u_nz:
            return has_nonzero_root if s_nz else vanishes_at_zero
        if v_nz:
            return True if s_nz else not vanishes_at_zero
        return has_nonzero_root if s_nz else vanishes_at_zero

    loci: list[dict] = []
    for b in range(1, d):
        for pattern in product((False, True), repeat=3):
            if any(nz and (b * w) % d != 0 for nz, w in zip(pattern, wts)):
                continue
            if admits(*pattern):
                loci.append(
                    {
                        "power": b,
                        "pattern": {
                            v: ("nonzero" if nz else "zero")
                            for v, nz in zip(variables, pattern)
                        },
                    }
                )
    return not loci, loci


def induced_action(triple: SurfaceTriple) -> CyclicAction:
    """Weights (e', -m*e', 1) on (u, w, s): the action inherited from the
    covering construction through w = (s^d - 1)/u^m."""
    return CyclicAction(triple.d, {"u": triple.e_prime, "w": -triple.m * triple.e_prime, "s": 1})


def same_subgroup(a1: CyclicAction, a2: CyclicAction) -> bool:
    """Whether the two diagonal actions generate the same symmetry group:
    some unit c mod d carries the weights of a1 to the weights of a2.  With
    induced_action, the oracle of cyclic_quotient._same_subgroup_as_induced,
    which tries only the one candidate unit."""
    if a1.modulus != a2.modulus:
        raise ValueError(f"modulus mismatch: {a1.modulus} vs {a2.modulus}")
    if set(a1.weights) != set(a2.weights):
        raise ValueError("actions are defined on different variable sets")
    d = a1.modulus
    for c in range(1, d + 1):
        if math.gcd(c, d) != 1:
            continue
        if all((c * w) % d == a2.weights[v] for v, w in a1.weights.items()):
            return True
    return False


def graded_piece(pair, n: int) -> dict[Fraction, int]:
    """Exponents {point: e} of the weight-n piece, Fraction points, zeros pruned:
    -floor(n*D+) for n >= 0, -floor(-n*D-) for n < 0, {} for n = 0, the
    floor taken of the Fraction.  The oracle of the integer exponents that
    product_window reads per weight."""
    if n == 0:
        return {}
    divisor = pair.d_plus if n > 0 else pair.d_minus
    mult = abs(n)
    exponents = ((p, -math.floor(mult * c)) for p, c in divisor.coefficients.items())
    return {p: e for p, e in exponents if e}


def product_defect(pair, n: int, n_prime: int) -> dict[Fraction, int]:
    """Pointwise exponent defect piece(n) + piece(n') - piece(n+n') over the
    sorted union of the three pieces' supports, zeros pruned.

    These are the multiplicative structure constants of the graded algebra:
    the product of the weight-n and weight-n' generators is the weight-(n+n')
    generator times t^defect(0) * (t-1)^defect(1) * ...  Values are always
    >= 0 (floor superadditivity plus D+ + D- <= 0).  The predicted side of
    product_structure_check, one pair of product_window's window at a time.
    """
    e1, e2, e12 = (graded_piece(pair, k) for k in (n, n_prime, n + n_prime))
    out: dict[Fraction, int] = {}
    for p in sorted(e1.keys() | e2.keys() | e12.keys()):
        v = e1.get(p, 0) + e2.get(p, 0) - e12.get(p, 0)
        if v:
            out[p] = v
    return out


class ProductCheck(NamedTuple):
    measured: dict[Scalar, int]
    predicted: dict[Scalar, int]
    match: bool


def product_structure_check(triple, n: int, n_prime: int) -> ProductCheck:
    """The per-pair oracle of product_window's lemma: the measured defect
    {0: kappa, 1: lam} of one product of generators, read off the exponent
    vectors, against product_defect.  A product that is not a multiple of the
    weight-(n+n') generator with an (s^d)^kappa (s^d - 1)^lam cofactor raises
    StructuralError naming the term or the cofactor.  The generators are read
    through the cyclic_quotient module, so a monkeypatched generator reaches
    both this and product_window."""
    generator = cyclic_quotient.weight_piece_generator
    d, m = triple.d, triple.m
    a, b, c = map(add, generator(triple, n), generator(triple, n_prime))
    g12 = a12, b12, c12 = generator(triple, n + n_prime)
    lam = min(a // m, b)
    a, b = a - lam * m, b - lam
    if a != a12 or b != b12 or c < c12:
        # with (a, b) off every term fails, so name the top one; otherwise
        # the lowest, s^c, lies below the generator
        shown = c + lam * d if (a, b) != (a12, b12) else c
        raise StructuralError(
            f"product of weight pieces {n}, {n_prime} is not a multiple of the "
            f"weight-{n + n_prime} generator: term u^{a}*w^{b}*s^{shown} vs generator {g12}"
        )
    if (c - c12) % d:
        raise StructuralError(
            f"residual factor s^{c - c12}*(s^{d}-1)^{lam} is not of the form "
            f"(s^d)^kappa*(s^d-1)^lam"
        )
    measured = {p: v for p, v in ((0, (c - c12) // d), (1, lam)) if v}
    predicted = product_defect(triple.pair, n, n_prime)
    return ProductCheck(measured, predicted, measured == predicted)


def first_failing_pair(triple, max_weight: int) -> tuple[int, int] | None:
    """product_window's window pair by pair: the first (n, n') with
    |n|, |n'| <= max_weight, in row order, on which product_structure_check
    raises or mismatches.  None whenever product_window passes, by the lemma
    in its docstring."""
    window = range(-max_weight, max_weight + 1)
    for n in window:
        for n_prime in window:
            try:
                if not product_structure_check(triple, n, n_prime).match:
                    return n, n_prime
            except StructuralError:
                return n, n_prime
    return None


def piece_exponents(pair, n: int) -> list[int]:
    """Exponents of the weight-n piece at 0, at 1, then at the pair's other
    support points in increasing order, 0 where the piece has no entry:
    -floor(n*D+) for n >= 0 and -floor(-n*D-) for n < 0, the floor taken of
    the Fraction (``graded_piece``).  The oracle of the rows that
    product_window reads inline; src once held it as ``_piece_exponents``,
    an integer floor division of the pair's integer rows."""
    support = pair.d_plus.coefficients.keys() | pair.d_minus.coefficients.keys()
    piece = graded_piece(pair, n)
    return [piece.get(p, 0) for p in (F(0), F(1), *sorted(support - {0, 1}))]


def oracle_first_failing_weight(triple, max_weight: int) -> int | None:
    """product_window with each weight's exponents read by
    ``piece_exponents``, the Fraction floor, in place of its inline integer
    reading of the pair.  The generator is read through the cyclic_quotient
    module, so a monkeypatched generator reaches it."""
    d, m, e_prime = triple.d, triple.m, triple.e_prime
    for n in range(-2 * max_weight, 2 * max_weight + 1):
        a, b, c = cyclic_quotient.weight_piece_generator(triple, n)
        p0, p1, *others = piece_exponents(triple.pair, n)
        if (
            c != d * p0 - e_prime * n
            or b != p1
            or a != n + m * b
            or a < 0
            or b < 0
            or (a >= m and b)
            or any(others)
        ):
            return n
    return None


# The divisor operations on {point: coefficient} maps of Fractions, as
# qdivisor ran them before a divisor stored its coefficients as reduced
# integer pairs: the oracle of every operation on that storage.


def oracle_qdivisor_coefficients(coefficients) -> dict[Fraction, Fraction]:
    """The map QDivisor's constructor stored before it kept Fraction inputs
    as they are: every point and coefficient re-wrapped, and a Fraction(0)
    default built per entry."""
    items = coefficients.items() if isinstance(coefficients, Mapping) else coefficients
    clean: dict[Fraction, Fraction] = {}
    for point, coeff in items:
        point = Fraction(point)
        coeff = Fraction(coeff)
        if not coeff:
            continue
        total = clean.get(point, Fraction(0)) + coeff
        if total:
            clean[point] = total
        else:
            clean.pop(point, None)
    return clean


def oracle_divisor_sum(x: dict, y: dict) -> dict[Fraction, Fraction]:
    return oracle_qdivisor_coefficients([*x.items(), *y.items()])


def oracle_divisor_neg(x: dict) -> dict[Fraction, Fraction]:
    return {p: -c for p, c in x.items()}


def oracle_divisor_floor(x: dict) -> dict[Fraction, Fraction]:
    return {p: Fraction(math.floor(c)) for p, c in x.items() if math.floor(c)}


def oracle_divisor_fract(x: dict) -> dict[Fraction, Fraction]:
    parts = ((p, c - math.floor(c)) for p, c in x.items())
    return {p: f for p, f in parts if f}


def oracle_pair_total(plus: dict, minus: dict) -> dict[Fraction, Fraction]:
    """D+ + D-, or DpdPair's ValueError naming the points where it is > 0."""
    total = oracle_divisor_sum(plus, minus)
    bad = [(p, c) for p, c in sorted(total.items()) if c > 0]
    if bad:
        witness = ", ".join(f"({p}: {c})" for p, c in bad)
        raise ValueError(f"D+ + D- must be <= 0 everywhere; positive at {witness}")
    return total


def oracle_canonical_pair(plus: dict, minus: dict) -> tuple[dict, dict]:
    fl = oracle_divisor_floor(plus)
    return oracle_divisor_sum(plus, oracle_divisor_neg(fl)), oracle_divisor_sum(minus, fl)


def oracle_fraction_ml1_test(plus: dict, minus: dict) -> bool:
    if len(oracle_divisor_fract(plus)) > 1:
        raise RegimeError(
            "outside classified regime: fractional part of D+ is supported on more than one point"
        )
    return len(oracle_divisor_fract(minus)) >= 2


def oracle_negative_locus(total: dict) -> tuple[int, int, bool]:
    l = sum(1 for c in total.values() if c < 0)
    return l, l - 1, l <= 1


def oracle_divisor_roots(minus: dict, k: int) -> tuple[int, tuple[tuple[Fraction, int], ...]]:
    l = 0
    roots = []
    for p, c in sorted(minus.items()):
        e = -k * c
        if e.denominator != 1:
            raise ValueError(
                f"k is not a multiple of denom(D-): k={k} leaves coefficient {c} at {p} non-integral"
            )
        if p == 0:
            l = int(e)
            continue
        if e < 0:
            raise ValueError(f"Q would be non-polynomial: exponent {e} at point {p}")
        roots.append((p, int(e)))
    return l, tuple(roots)


def oracle_format_divisor(x: dict) -> str:
    return ",".join(f"{p}:{c}" for p, c in sorted(x.items()))


def reachable_sums(generators: list[tuple[int, int, int]], bound: int) -> set[tuple[int, int, int]]:
    """All nonzero sums of generators with every coordinate <= bound (BFS)."""
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = (x[0] + g[0], x[1] + g[1], x[2] + g[2])
            if y in seen or any(c > bound for c in y):
                continue
            seen.add(y)
            frontier.append(y)
    seen.discard((0, 0, 0))
    return seen


# -- hypothesis strategies -------------------------------------------------------


def small_fractions(max_abs: int = 5, max_den: int = 4):
    return st.fractions(min_value=-max_abs, max_value=max_abs, max_denominator=max_den)


def small_upolys(var: str = "s", max_deg: int = 5, max_terms: int = 4):
    return st.dictionaries(
        st.integers(0, max_deg), small_fractions(), max_size=max_terms
    ).map(lambda d: upoly(var, d))


def small_multipolys(variables: tuple[str, ...], max_exp: int = 3, max_terms: int = 4):
    exps = st.tuples(*([st.integers(0, max_exp)] * len(variables)))
    return st.dictionaries(exps, small_fractions(), max_size=max_terms).map(
        lambda d: MultiPoly(variables, d)
    )


_POINTS = st.sampled_from([F(0), F(1), F(2), F(-1), F(1, 2), F(3), F(-1, 3)])


def small_divisors():
    return st.dictionaries(_POINTS, small_fractions(), max_size=3).map(QDivisor)


def nonpositive_divisors():
    coeffs = st.fractions(min_value=-3, max_value=0, max_denominator=4)
    return st.dictionaries(_POINTS, coeffs, max_size=3).map(QDivisor)


@st.composite
def dpd_pairs(draw):
    """Valid pairs whose points lie in D+ only, in D- only, or in both, with
    integral and non-integral points (1/2, -1/3) alike."""
    plus: dict[Fraction, Fraction] = {}
    minus: dict[Fraction, Fraction] = {}
    nonpositive = st.fractions(min_value=-3, max_value=0, max_denominator=4)
    for p in draw(st.lists(_POINTS, unique=True, max_size=4)):
        where = draw(st.sampled_from(("plus", "minus", "both")))
        if where == "plus":
            plus[p] = draw(nonpositive)
        elif where == "minus":
            minus[p] = draw(nonpositive)
        else:
            plus[p] = draw(small_fractions())
            minus[p] = draw(nonpositive) - plus[p]
    return DpdPair(QDivisor(plus), QDivisor(minus))


@st.composite
def surface_triples(draw, d_max: int = 9, m_max: int = 7):
    """SurfaceTriple(d, e, m) with d <= d_max, m <= m_max and e in [1, d]
    coprime to d."""
    d = draw(st.integers(1, d_max))
    e = draw(st.sampled_from([e for e in range(1, d + 1) if math.gcd(e, d) == 1]))
    return SurfaceTriple(d, e, draw(st.integers(1, m_max)))
