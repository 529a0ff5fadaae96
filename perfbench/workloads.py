"""Workload definitions for the certification benchmark.

A workload is a pool of (d, e, m) triples, a product-check bound
``max_weight`` and a rule that turns a seed into the ordered list of triples
one cold pass certifies.  Every triple a seed can draw has its report digest
recorded in ``digests.json`` (see ``record_digests.py``).

Why each workload exists:

* ``grid`` is the acceptance sweep ``d <= 6, m <= 5, max_weight 8``: the
  60 triples (44 consistent, 16 excluded) that users and acceptance
  criterion 1 run.  Most of its time is ``product_structure_check`` (289
  calls per triple) and the rest ``find_valid_lnd_degrees``.  30 of the 60
  triples share an earlier triple's ``(m, d)`` ring, so a cache keyed on the
  ring can show a gain here.  The seed only permutes the order.
* ``wide_weight`` is three small consistent triples, one per stratum
  ``(d, m) = (4, 3), (5, 4), (6, 5)``, at ``max_weight 24``: 2401 product
  checks per triple on large products, so ``normal_form`` and
  ``MultiPoly.__mul__`` dominate and the LND search is a small fixed cost.
  It exercises the product-check path.  The seed picks ``e`` in each stratum
  and the order.
* ``large_d`` is twelve triples, ``d = 21, 23, ..., 43`` with ``m`` cycling
  through 3..9, at ``max_weight 0``: the product check is skipped, every
  ``d`` (so every ring) is distinct, and the time goes to
  ``find_valid_lnd_degrees`` (``derivation_apply``, ``poly_divmod``) and
  ``hilbert_basis``, which enumerates ``(d+1)^3`` points.  ``exact_algebra``
  is used for division here, not multiplication, and nothing is reused
  between triples, so a change that only speeds products or repeated inputs
  shows its cost here.  The seed draws ``e`` from ``{d-1, d-2}`` for each
  ``d`` and the order.  Both exceed ``m``, so the LND search tests one
  candidate degree either way and every draw costs about the same; with
  ``e <= m`` it tests two, and a draw of ``e = 1`` nearly doubled some
  triples' latency.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    max_weight: int
    # a pass runs one triple drawn from each stratum, in an order the seed picks
    strata: tuple[tuple[Triple, ...], ...]

    @property
    def pool(self) -> list[Triple]:
        return [t for stratum in self.strata for t in stratum]

    def triples(self, seed: int) -> list[Triple]:
        rng = random.Random(f"{self.name}:{seed}")
        chosen = [rng.choice(stratum) for stratum in self.strata]
        rng.shuffle(chosen)
        return chosen


def _grid() -> tuple[tuple[Triple, ...], ...]:
    # the acceptance sweep in report.sweep's (d, e, m) order, every triple
    # its own stratum
    return tuple(
        ((d, e, m),)
        for d in range(1, 7)
        for e in range(1, d + 1)
        if math.gcd(e, d) == 1
        for m in range(1, 6)
    )


def _large_d() -> tuple[tuple[Triple, ...], ...]:
    return tuple(
        ((d, d - 1, 3 + i % 7), (d, d - 2, 3 + i % 7))
        for i, d in enumerate(range(21, 44, 2))
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", 8, _grid()),
        Workload(
            "wide_weight",
            24,
            (
                ((4, 1, 3), (4, 3, 3)),
                ((5, 1, 4), (5, 2, 4), (5, 3, 4), (5, 4, 4)),
                ((6, 1, 5), (6, 5, 5)),
            ),
        ),
        Workload("large_d", 0, _large_d()),
    )
}

MAX_EXPONENT = 10


def predicted_verdict(d: int, m: int) -> str:
    """The paper's prediction: consistent iff d >= 2 and m >= 2, otherwise
    excluded because the surface is not ML1."""
    return "consistent" if d >= 2 and m >= 2 else "excluded"


def digest_key(triple: Triple) -> str:
    return "%d,%d,%d" % triple


def ring_reuse_share(triples: list[Triple]) -> float:
    """Share of triples whose (m, d) ring an earlier triple already built."""
    rings = {(m, d) for d, _, m in triples}
    return 1 - len(rings) / len(triples)


def product_checks_per_ring(workload: Workload, triples: list[Triple]) -> float:
    """product_structure_check calls per distinct (m, d) ring in one pass."""
    per_triple = (2 * workload.max_weight + 1) ** 2 if workload.max_weight else 0
    rings = {(m, d) for d, _, m in triples}
    return per_triple * len(triples) / len(rings)
