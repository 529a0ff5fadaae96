"""One cold pass of the benchmark, in a fresh interpreter.

Usage: python3 child.py SRC_DIR, with a JSON job on stdin.

The process imports ``pseudoplane.cli`` (the set-up every CLI user waits
for) while sampling the reference loop of ``speed.py``, writes ``ready``
with the loop's total and mean time, and then reads its job.  An empty job
ends the process, which is how the parent times set-up alone.  Otherwise
the job holds the triples, ``max_weight``, ``max_exponent`` and ``trace``;
the process certifies the triples in order with ``report.verify_triple``
and prints one JSON line with the wall time, per-triple latencies, verdicts,
report digests, errors, peak RSS and, when traced, the span statistics.
Untraced, it samples the loop throughout and also returns every latency
scaled to the reference speed; a traced pass skips the loop, as its times
are compared only with each other.

A triple whose ``verify_triple`` raises is recorded with its message and
the pass goes on with the next triple.
"""

import sys
from time import perf_counter


def run(job: dict) -> dict:
    import hashlib
    import json
    import resource

    from contextlib import nullcontext

    from speed import Sampler

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from pseudoplane import report

    verify = report.verify_triple
    max_weight, max_exponent = job["max_weight"], job["max_exponent"]
    intervals, outcomes = [], []
    sampler = None if job["trace"] else Sampler()
    with sampler or nullcontext():
        for d, e, m in job["triples"]:
            t0 = perf_counter()
            try:
                outcome = verify(
                    d, e, m, max_weight=max_weight, max_exponent=max_exponent
                )
            except Exception as exc:  # one bad triple must not stop the pass
                outcome = f"{type(exc).__name__}: {exc}"
            intervals.append((t0, perf_counter()))
            outcomes.append(outcome)
    if sampler:
        latencies, scaled = zip(*(sampler.scaled(*i) for i in intervals))
    else:
        latencies, scaled = [t1 - t0 for t0, t1 in intervals], None

    triples = []
    for outcome in outcomes:
        if isinstance(outcome, str):
            triples.append({"error": outcome})
        else:
            triples.append(
                {
                    "verdict": outcome["verdict"],
                    "excluded_reason": outcome["excluded_reason"],
                    "digest": hashlib.sha256(json.dumps(outcome).encode()).hexdigest(),
                }
            )
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "loop_samples": len(sampler.loops) if sampler else 0,
        "loop_s": sum(sampler.loops) / len(sampler.loops) if sampler else None,
        "triples": triples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.snapshot() if tracer else None,
    }


def main() -> None:
    from speed import Sampler

    sys.path.insert(0, sys.argv[1])
    with Sampler() as sampler:
        import pseudoplane.cli  # noqa: F401  (this import is the measured set-up)

    # the parent takes the loop's time out of the set-up and scales the rest
    # by the loop's mean time
    loop_s = sum(sampler.loops)
    sys.stdout.write(f"ready {loop_s!r} {loop_s / len(sampler.loops)!r}\n")
    sys.stdout.flush()
    import json

    job = json.loads(sys.stdin.read() or "null")
    if job:
        sys.stdout.write(json.dumps(run(job)) + "\n")


if __name__ == "__main__":
    main()
