"""Record the report digest of every triple a workload can draw.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  Each workload's whole pool is certified in
one cold pass through ``child.py``; every verdict must match the paper's
prediction, and the sha256 of ``json.dumps(report)`` per triple is written to
``digests.json``.  The committed file was recorded from the code the
benchmark was first defined on, so a later change that alters any report
byte shows up as a failed triple.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import DIGESTS, RUN_LIMIT_S, spawn
from workloads import MAX_EXPONENT, WORKLOADS, digest_key, predicted_verdict


def main() -> int:
    recorded = {}
    for workload in WORKLOADS.values():
        pool = workload.pool
        job = {
            "triples": pool,
            "max_weight": workload.max_weight,
            "max_exponent": MAX_EXPONENT,
            "trace": False,
        }
        _, result = spawn(job, perf_counter() + RUN_LIMIT_S)
        digests = {}
        for (d, e, m), got in zip(pool, result["triples"]):
            if got.get("verdict") != predicted_verdict(d, m):
                print(f"error: ({d}, {e}, {m}) gave {got}", file=sys.stderr)
                return 1
            digests[digest_key((d, e, m))] = got["digest"]
        recorded[workload.name] = digests
        print(f"{workload.name}: {len(digests)} digests in {result['wall_s']:.1f} s")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
