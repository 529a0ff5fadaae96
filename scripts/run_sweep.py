#!/usr/bin/env python3
"""Sweep the verification grid and print a per-triple table with timings.

Usage:
    python scripts/run_sweep.py [--d-max 6] [--m-max 5] [--max-weight 8]

Richer than `pseudoplane sweep`: shows derived constants, the valid derivation
degrees, and wall time per triple.
"""

import argparse
import sys
import time
from pathlib import Path

try:
    import pseudoplane  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pseudoplane import verify_triple
from pseudoplane.report import grid_triples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-max", type=int, default=6)
    parser.add_argument("--m-max", type=int, default=5)
    parser.add_argument("--max-weight", type=int, default=8)
    args = parser.parse_args()

    header = f"{'d':>3} {'e':>3} {'m':>3} | {'e_p':>3} {'k':>4} {'m_p':>3} {'l':>5} | {'verdict':<12} {'lnd degrees':<16} {'ms':>6}"
    print(header)
    print("-" * len(header))
    totals = {"consistent": 0, "excluded": 0, "inconsistent": 0}
    worst = 0.0
    start = time.monotonic()
    for d, e, m in grid_triples(args.d_max, args.m_max):
        t0 = time.monotonic()
        report = verify_triple(d, e, m, max_weight=args.max_weight)
        ms = (time.monotonic() - t0) * 1000
        worst = max(worst, ms)
        totals[report["verdict"]] += 1
        der = report["derived"]
        degrees = ",".join(map(str, report["lnd"]["degrees_found"]))
        print(
            f"{d:>3} {e:>3} {m:>3} | {der['e_prime']:>3} {der['k']:>4} "
            f"{der['m_prime']:>3} {der['l']:>5} | {report['verdict']:<12} "
            f"{degrees:<16} {ms:>6.1f}"
        )
    elapsed = time.monotonic() - start
    print("-" * len(header))
    print(
        f"consistent: {totals['consistent']}  excluded: {totals['excluded']}  "
        f"inconsistent: {totals['inconsistent']}  "
        f"({elapsed:.1f}s total, worst triple {worst:.0f}ms)"
    )
    return 0 if totals["inconsistent"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
