#!/usr/bin/env python3
"""Scan minimal valid derivation degrees against a closed-form guess.

The pipeline only pins the degree of a homogeneous locally nilpotent
derivation modulo d (it must be congruent to the s-weight of the symmetry
action), so `find_valid_lnd_degrees` searches and certifies instead of
assuming a formula.  Experimentally the minimum looks like

    guess(d, e, m) = min { t >= m : t = e (mod d) }

This script reports the found set next to the guess over a grid; it is an
experiment, not a test - the package never asserts the formula.

Usage:
    python scripts/lnd_degree_scan.py [--d-max 6] [--m-max 5] [--slack 12]
"""

import argparse
import math
import sys
from pathlib import Path

try:
    import pseudoplane  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pseudoplane import SurfaceTriple, find_valid_lnd_degrees


def guess(d: int, e: int, m: int) -> int:
    t = m
    while t % d != e % d:
        t += 1
    return t


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-max", type=int, default=6)
    parser.add_argument("--m-max", type=int, default=5)
    parser.add_argument("--slack", type=int, default=12,
                        help="search bound is m + 2d + slack")
    args = parser.parse_args()

    agree = disagree = 0
    print(f"{'d':>3} {'e':>3} {'m':>3} | {'guess':>5} {'min':>5}  found (within bound)")
    for d in range(1, args.d_max + 1):
        for e in range(1, d + 1):
            if math.gcd(e, d) != 1:
                continue
            for m in range(1, args.m_max + 1):
                triple = SurfaceTriple(d, e, m)
                bound = m + 2 * d + args.slack
                found = find_valid_lnd_degrees(triple, bound)
                lowest = min(found) if found else None
                expected = guess(d, e, m)
                mark = ""
                if lowest == expected:
                    agree += 1
                else:
                    disagree += 1
                    mark = "  <-- differs"
                print(
                    f"{d:>3} {e:>3} {m:>3} | {expected:>5} {str(lowest):>5}  "
                    f"{','.join(map(str, found))}{mark}"
                )
    print(f"\nguess matches the minimum on {agree} of {agree + disagree} triples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
