"""Diagonal cyclic symmetries of hypersurface rings and their invariants.

Roots of unity are represented by residue indices only: fixed-locus and
component-permutation questions are answered with modular arithmetic plus the
root points of the factored relation, never with numeric roots.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import partial
from itertools import compress, product

from .dpd_presentation import _family_pair
from .exact_algebra import _check_int, _Frozen, _is_int, _is_positive_int
from .hypersurface_ring import HypersurfaceRing, _relation_terms
from .qdivisor import _integer_rows


class CyclicAction(_Frozen):
    """Diagonal action of the cyclic group of order `modulus`: the chosen
    generator scales each variable by the primitive root raised to its
    weight, stored reduced mod `modulus`.  Compared by (modulus, weights);
    not hashable, as `weights` is a dict."""

    __slots__ = ("modulus", "weights")
    __hash__ = None

    def __new__(cls, modulus: int, weights: dict[str, int]):
        if not _is_positive_int(modulus):
            raise ValueError(f"modulus must be a positive integer: {modulus}")
        for v, w in weights.items():
            if not _is_int(w):
                raise ValueError(f"weight of {v} must be an integer: {w!r}")
        return super()._trusted(modulus, {v: w % modulus for v, w in weights.items()})


class SurfaceTriple(_Frozen):
    """A validated input (d, e, m) with the constants derived from it.

    e' inverts e mod d (1 when d = 1), k = lcm(d, m) = m*m' = d*d', and
    l = -e'*d', so that k*e' + d*l = 0.  ``pair`` is the divisor pair
    presenting the surface, D+ = -(e'/d)[0] and D- = (e'/d)[0] - (1/m)[1].
    A triple compares and hashes by (d, e, m), from which the rest derives.
    """

    __slots__ = ("d", "e", "m", "e_prime", "k", "m_prime", "d_prime", "l", "pair")
    _key = ("d", "e", "m")

    def __init__(self, d: int, e: int, m: int):
        for name, value in (("d", d), ("e", e), ("m", m)):
            if not _is_positive_int(value):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if math.gcd(e, d) != 1:
            raise ValueError(
                f"e and d must be coprime for the quotient to act freely: gcd({e}, {d}) = {math.gcd(e, d)}"
            )
        e_prime = pow(e, -1, d) if d > 1 else 1
        k = d * m // math.gcd(d, m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e_prime", e_prime)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m_prime", k // m)
        object.__setattr__(self, "d_prime", k // d)
        object.__setattr__(self, "l", -e_prime * (k // d))
        object.__setattr__(self, "pair", _family_pair(d, e_prime, m))


def standard_action(triple: SurfaceTriple) -> CyclicAction:
    """Weights (1, -m, e) on (u, w, s): the generator-change of the induced
    action that exhibits the classified form.  The triple's d is an int
    >= 1 and its m and e ints, so the action is built unchecked, with the
    weights written already reduced mod d, as ``CyclicAction`` stores
    them."""
    d = triple.d
    return CyclicAction._trusted(d, {"u": 1 % d, "w": -triple.m % d, "s": triple.e % d})


FreenessResult = namedtuple("FreenessResult", "free fixed_loci")


def freeness_check(action: CyclicAction, ring: HypersurfaceRing) -> FreenessResult:
    """Decide freeness of the action on the hypersurface.

    Requires the relation to be semi-invariant (all monomials of
    u^k*second - P(s) share one residue, that of P's constant term, 0).
    For each nontrivial group power b and each zero/nonzero coordinate pattern, the
    pattern is a fixed locus iff every coordinate allowed to be nonzero has
    b*weight = 0 mod d and the surface has a point with exactly that
    pattern.  As P(0) = prod (-p)^j != 0, a point with u and second both
    nonzero always exists, and any other point needs P(s) = 0 at some
    s != 0, that is a root of the factored relation.  A pattern admits a
    power b < d iff its gcd(d, weights) exceeds 1, and then exactly the
    multiples of d / gcd; the loci are listed by power, then pattern.

    Lemma (two least patterns).  Every admitted pattern contains {u, second}
    or, when P has a nonzero root, {s}.  Adding coordinates can only shrink
    the gcd, so an admitted pattern's gcd divides that of {u, second} or of
    {s}, both admitted themselves.  So the action is free iff
    gcd(d, w_u, w_second) = 1 and, when P has a nonzero root,
    gcd(d, w_s) = 1; only an action that is not free enumerates the patterns
    to list its loci.
    """
    d = action.modulus
    variables = ring.variables
    try:
        wts = list(map(action.weights.__getitem__, variables))
    except KeyError as exc:
        raise ValueError(f"action is missing a weight for variable {exc}") from None
    # P(s) = Q(s^d) with Q(0) != 0, so P's exponents are multiples of ring.d
    # and 0 is one of them.  When s^d is invariant, as under the pipeline's
    # actions (modulus ring.d), every term of P has residue 0; otherwise the
    # residues depend on which coefficients of Q cancel, so the exponents
    # are read off the integer expansion of the relation.
    residues = {(ring.k * wts[0] + wts[1]) % d, 0}
    if ring.d * wts[2] % d:
        residues.update((exp * wts[2]) % d for exp, _ in _relation_terms(ring.d, ring.roots))
    if len(residues) > 1:
        raise ValueError(
            f"relation is not semi-invariant under the action: residues {sorted(residues)}"
        )
    has_nonzero_root = bool(ring.roots)
    if math.gcd(d, wts[0], wts[1]) == 1 and (not has_nonzero_root or math.gcd(d, wts[2]) == 1):
        return FreenessResult(True, [])
    hits = []
    for index, pattern in enumerate(product((False, True), repeat=3)):
        u_nz, v_nz, s_nz = pattern
        # u^k * second = P(s) is solvable at every s; u = 0 or second = 0
        # needs P(s) = 0, and P(0) != 0
        if not (u_nz and v_nz or s_nz and has_nonzero_root):
            continue
        # b*w = 0 mod d for the weight w of every nonzero coordinate iff
        # d / gcd(d, those weights) divides b
        step = d // math.gcd(d, *compress(wts, pattern))
        hits.extend((b, index, pattern) for b in range(step, d, step))
    loci = [
        {
            "power": b,
            "pattern": {v: ("nonzero" if nz else "zero") for v, nz in zip(variables, pattern)},
        }
        for b, _, pattern in sorted(hits)
    ]
    return FreenessResult(not loci, loci)


def weight_piece_generator(triple: SurfaceTriple, n: int) -> tuple[int, int, int]:
    """Exponents (a, b, c) of the monomial u^a w^b s^c generating the weight-n
    invariant piece of the normalized ring.

    Rank one.  The rewrite u^m w -> s^d - 1 keeps both the torus weight
    a - m*b and the residue under the standard action (1, -m, e), so the
    invariant weight-n piece is spanned by the normal-form monomials
    u^a w^b s^c with a - m*b = n, a < m or b = 0, and n + e*c = 0 mod d.
    For n >= 0, b >= 1 would give a = n + m*b >= m, so (a, b) = (n, 0).  For
    n < 0, b = 0 would give a = n < 0, so a < m and a = n + m*b (I3) forces
    a = n mod m and b = (a - n)/m.  As e is a unit mod d, the congruence
    has the solutions c = (-e'*n) mod d + d*j, j >= 0.  So the monomials of
    the piece are exactly g(n) * (s^d)^j: the piece is g(n) * C[s^d], free
    of rank one over C[s^d].
    """
    m = triple.m
    if n >= 0:
        a, b = n, 0
    else:
        a = n % m
        b = (a - n) // m
    c = (-triple.e_prime * n) % triple.d
    return (a, b, c)


# The caps on the window and on the LND search bound, so that no call starts
# work that grows without bound; README ("Notes on conventions") gives the
# timing behind each.
MAX_WEIGHT_CAP = 512
MAX_EXPONENT_CAP = 4096


def product_window(triple: SurfaceTriple, max_weight: int) -> int | None:
    """The first weight n in -2W..2W (W = max_weight), increasing, whose
    generator g(n) = (a, b, c) and piece exponents p0, p1 at the points 0
    and 1 break one of (I1) c = d*p0 - e'*n, (I2) b = p1, (I3) a = n + m*b,
    the normal form (N) a >= 0, b >= 0, (a < m or b = 0), or whose piece
    has a nonzero exponent at a point other than 0 and 1; None if every
    weight passes.  A max_weight above ``MAX_WEIGHT_CAP`` is refused.

    The pair is read once per call as integer rows (``_integer_rows``): those
    of -D- serve n < 0 and those of D+ serve n >= 0, and each weight's
    exponent at a point is -floor(n*c), the integer floor division
    -(n*numerator // denominator) of the row's coefficient c there.
    The check certifies each piece's generator, which implies the product
    structure on the window of pairs |n|, |n'| <= W.  The product of the
    weight-n and weight-n' generators should be (s^d)^kappa * (s^d - 1)^lam
    times the weight-(n+n') generator; with s^d playing the role of the
    coordinate t at the point 0 and s^d - 1 = u^m w at the point 1, kappa
    and lam must equal the exponent defect piece(n) + piece(n') - piece(n+n')
    of the graded pieces at 0 and at 1, and the defect must vanish at every
    other point of the pair's support.  The converse fails: shifting every
    c(n) by d*n breaks (I1) at each n != 0, yet leaves every product as the
    pair predicts.

    Lemma: if every weight in -2W..2W passes, every pair of the window
    multiplies as the pair predicts.  Take |n|, |n'| <= W, N = n + n' and
    B = b(n) + b(n').  The product g(n) + g(n') = (a, b, c) has b = B and,
    by (I3), a = N + m*B, so a // m = floor(N/m) + B.  By (I3) and (N),
    b(N) is 0 for N >= 0 (b >= 1 would give a = N + m*b >= m) and
    -floor(N/m) for N < 0 (b = 0 would give a = N < 0, and
    0 <= N + m*b < m); so in either case the rewrite u^m w -> s^d - 1
    applies lam = min(a // m, B) = B - b(N) times, which (I2) makes the
    defect p1(n) + p1(n') - p1(N) at 1.  (I3) then makes the rewritten
    product (a - lam*m, b - lam) exactly (a(N), b(N)).  (I1) gives
    c - c(N) = d*(p0(n) + p0(n') - p0(N)) - e'*(n + n' - N) = d*defect_0,
    so d divides c - c(N) and kappa is the defect at 0.  No piece has
    another point, so no other defect needs a check.
    """
    _check_int("max_weight", max_weight, 0, MAX_WEIGHT_CAP)
    d, m, e_prime = triple.d, triple.m, triple.e_prime
    weights = range(-2 * max_weight, 2 * max_weight + 1)
    # the rows of -D- serve the weights below 0, those of D+ the rest
    halves = (weights[: 2 * max_weight], weights[2 * max_weight :])
    sides = (_integer_rows(triple.pair.d_minus, -1), _integer_rows(triple.pair.d_plus, 1))
    for ((n0, d0), (n1, d1), others), half in zip(sides, halves):
        for n in half:
            a, b, c = weight_piece_generator(triple, n)
            # (I1) and (I2) read p0 = -(n * n0 // d0) and p1 = -(n * n1 // d1) inline
            if (
                c != -d * (n * n0 // d0) - e_prime * n
                or b != -(n * n1 // d1)
                or a != n + m * b
                or a < 0
                or b < 0
                or (a >= m and b)
                or (others and any(n * num // den for num, den in others))
            ):
                return n
    return None


def _same_subgroup_as_induced(triple: SurfaceTriple, action: CyclicAction) -> bool:
    """Whether the action, of modulus d on u, w, s, generates the same
    symmetry group as the induced action, of weights (e', -m*e', 1): whether
    some unit c mod d carries the induced weights to the action's.  The
    induced s weight is 1, so the one candidate is c = the action's s
    weight; for the standard action (1, -m, e) that is c = e, which carries
    (e', -m*e', 1) to it as e*e' = 1 (mod d).  The induced weights are read
    as integers, with no action built."""
    d, e_prime = triple.d, triple.e_prime
    weights = action.weights
    c = weights["s"]
    return math.gcd(c, d) == 1 and (c * e_prime % d, -c * triple.m * e_prime % d, c % d) == (
        weights["u"], weights["w"], weights["s"]
    )


ComponentPermutation = namedtuple("ComponentPermutation", "cycles transitive")


def component_permutation(d: int, e: int) -> ComponentPermutation:
    """Action of the symmetry generator on the d components of the degenerate
    fiber, indexed by residues j mod d (component j maps to j + e).

    With g = gcd(d, e), the orbit of j is j + (multiples of g) mod d, of
    length d // g, so each residue below g starts its own cycle, and the
    cycles are listed by their least residue, each from it."""
    if not _is_positive_int(d):
        raise ValueError(f"d must be a positive integer: {d}")
    if not _is_int(e):
        raise ValueError(f"e must be an integer: {e}")
    g = math.gcd(d, e)
    step, length = e % d + d, d // g  # step = e (mod d) and > 0; d.__rmod__(x) = x % d
    cycles = []
    for start in range(g):
        cycles.append(tuple(map(d.__rmod__, range(start, start + length * step, step))))
    return ComponentPermutation(tuple(cycles), g == 1)


def _keeps_ring(generator: tuple[int, int, int], degree: int, m: int) -> bool:
    """Whether u^degree * d/ds maps u^a w^b s^c into the normalized ring, read
    off the exponents (the rule of find_valid_lnd_degrees).  b = 0 always
    passes, as then the image's u-exponent a + degree is >= 0."""
    a, b, _ = generator
    j = a - m * b + degree  # the u-exponent of the image
    return j >= 0 or -(j // m) <= b - 1


def find_valid_lnd_degrees(triple: SurfaceTriple, bound: int) -> list[int]:
    """Degrees x in [1, bound], congruent to e mod d, for which D = u^x d/ds
    is a locally nilpotent derivation of the invariant ring.  An empty
    result is a finding, not an error.  A bound below m + d, or above
    max(``MAX_EXPONENT_CAP``, m + d), the largest that ``verify_triple``
    passes, is refused.

    Membership.  The localization C[u^(+-1), s] contains the normalized ring
    once w = (s^d - 1)/u^m, and an element u^j f(s) with j < 0 lies in the
    ring iff (s^d - 1)^ceil(-j/m) divides f.  For b >= 1 and n = a - m*b,
    D(u^a w^b s^c) = u^(n+x) s^(c-1) (s^d - 1)^(b-1) [c (s^d - 1) + b d s^d],
    and the bracket equals b*d != 0 wherever s^d = 1, so (s^d - 1)^(b-1) is
    the exact power of s^d - 1 in the image.  Hence D maps the monomial into
    the ring iff b = 0, or n + x >= 0, or ceil(-(n + x)/m) <= b - 1
    (``_keeps_ring``).  When this holds on every Hilbert-basis generator of
    the standard action, the product rule carries it to every invariant.

    Nilpotency lemma.  D lowers the s-degree of every element of
    C[u^(+-1), s] (u^j s^c goes to c u^(j+x) s^(c-1)), so it is locally
    nilpotent on every subring that it preserves.  The standard action
    (u, w, s) -> (z u, z^-m w, z^e s) conjugates D to z^(x-e) D, so a degree
    x = e (mod d) commutes with the action and maps invariants to
    invariants.  Membership on the Hilbert basis therefore certifies an LND
    of the whole invariant ring, on every weight.

    One generator binds.  For b >= 1, ceil(-(n + x)/m) <= b - 1 reads
    n + x >= -m*(b - 1), that is a + x >= m, and n + x >= 0 implies it; for
    b = 0 the rule always holds.  Every generator has a >= 0.  The vector
    (0, 1, c0) with c0 = m*e' mod d is invariant under the standard action
    (1, -m, e), as e*c0 = m (mod d), and nothing invariant and nonzero lies
    below it: (0, 0, c) with 0 < c <= c0 < d is not invariant since e is a
    unit mod d, and (0, 1, c) is invariant only at c = c0.  So (0, 1, c0) is
    a generator with the least a, 0, over those with b >= 1, and a degree
    passes on the whole basis iff it passes on (0, 1, c0), that is iff
    x >= m.  That test is monotone in x, so the passing degrees form a tail
    of the progression x = e (mod d), never empty since bound >= m + d, and
    a bisection with the rule on (0, 1, c0) as its predicate finds where the
    tail starts, in O(log(bound/d)) tests.  No basis is built; the rule
    still runs, so a fault in it shows as a missing degree.
    """
    least = triple.m + triple.d
    _check_int("bound", bound, least, max(MAX_EXPONENT_CAP, least))
    m = triple.m
    binding = (0, 1, m * triple.e_prime % triple.d)
    # the least degree >= 1 congruent to e mod d, then every d-th one
    degrees = range((triple.e - 1) % triple.d + 1, bound + 1, triple.d)
    first = bisect_left(degrees, True, key=partial(_keeps_ring, binding, m=m))
    return list(degrees[first:])
