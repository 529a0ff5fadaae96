"""Certification benchmark for pseudoplane (stdlib only).

    python3 perfbench/run.py --workload {grid,wide_weight,large_d} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout that holds ``src/pseudoplane``.  Every
pass runs in a fresh interpreter (``child.py``), because the package's memo
caches live as long as the process and a CLI user always starts cold.  One
process, one thread at a time; the parent only waits.

``--trace 0`` makes cold passes over the workload's triples until
``--seconds`` is used up, and at least three, each after four spawns that
time set-up alone.  Every pass certifies the same triples in the same order
from a cold start, so a triple does the same work in every pass.

Every timing is scaled to a reference machine speed (``speed.py``), because
the shared host's speed drifts by more than the bounds within a run and
between runs.  Each fresh interpreter runs a fixed reference loop every
25 ms from a signal handler while it imports the package and while it
certifies the triples; a timing leaves out the loop's own time and is
multiplied by the reference time over the loop's mean time around it.  The
result line's times are these scaled seconds; a header line gives the
unscaled wall time and the loop's time.

A triple's latency is the median of its scaled ``verify_triple`` times over
the passes.  The end-to-end metrics are ``setup_s`` (spawn to
``pseudoplane.cli`` imported, median over every spawn), ``wall_s`` (the sum
of the triples' latencies: a cold pass over the workload),
``triple_p50_ms`` (their median), ``triple_tail_ms`` (their 90th percentile,
nearest rank) and ``peak_rss_mb`` (median of the passes' peak RSS).  The
tail is taken over the triples, not over every measured latency: with 3 or
12 triples a pass, a percentile with ten samples beyond it would pool
repeats of the same triples and measure the machine's noise.

``--trace 1`` makes one untraced pass and two traced passes (``tracer.py``)
and reports the per-layer metrics of the traced passes: exact call counts,
mean times, and ``trace_overhead_s``, the traced minus the untraced wall
time (one pass each way, so where tracing adds little, as on ``large_d``,
the machine's noise can make it read below zero).  The traced reports must
equal the untraced ones and the two traced passes must make exactly the
same calls.

Every triple is checked against the paper's prediction (consistent iff
d >= 2 and m >= 2, otherwise excluded as not ML1) and against the report
digest recorded in ``digests.json``.  A wrong or raising triple counts in
``failed``; ``failed / attempted`` is the failed fraction.  The last line of
stdout is the JSON result; the lines before it describe the environment,
the inputs and any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, scale
from tracer import LAYERS
from workloads import (
    MAX_EXPONENT,
    WORKLOADS,
    digest_key,
    predicted_verdict,
    product_checks_per_ring,
    ring_reuse_share,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

SETUP_SPAWNS_PER_PASS = 4
MIN_PASSES = 3  # each triple's latency is at least a median of three
TAIL_PERCENTILE = 90
TRACED_PASSES = 2
RUN_LIMIT_S = 170  # a child still running this long after the start is killed

# per-layer metrics: (metric, unit); "<span>.<stat>" reads the span's
# statistics, "<layer>.self_s" sums the self time of the layer's spans
PER_LAYER = [
    ("cyclic_quotient.product_structure_check.calls", "count"),
    ("cyclic_quotient.product_structure_check.total_s", "s"),
    ("cyclic_quotient.product_structure_check.self_s", "s"),
    ("cyclic_quotient.normalized_ring.calls", "count"),
    ("dpd_presentation.pseudoplane_dpd_pair.calls", "count"),
    ("dpd_presentation.product_defect.calls", "count"),
    ("dpd_presentation.product_defect.total_s", "s"),
    ("cyclic_quotient.find_valid_lnd_degrees.calls", "count"),
    ("cyclic_quotient.find_valid_lnd_degrees.total_s", "s"),
    ("hypersurface_ring.derivation_apply.calls", "count"),
    ("hypersurface_ring.derivation_apply.total_s", "s"),
    ("hypersurface_ring.derivation_apply.nonpoly_ratio", "ratio"),
    ("hypersurface_ring.nilpotency_index.calls", "count"),
    ("hypersurface_ring.nilpotency_index.total_s", "s"),
    ("cyclic_quotient.hilbert_basis.calls", "count"),
    ("cyclic_quotient.hilbert_basis.total_s", "s"),
    ("hypersurface_ring.normal_form.calls", "count"),
    ("hypersurface_ring.normal_form.total_s", "s"),
    ("hypersurface_ring.normal_form.terms_out", "count"),
    ("hypersurface_ring.smooth_check.total_s", "s"),
    ("hypersurface_ring.normalize_power_relation.total_s", "s"),
    ("hypersurface_ring.fiber_analysis.total_s", "s"),
    ("exact_algebra.MultiPoly.init.calls", "count"),
    ("exact_algebra.MultiPoly.mul.calls", "count"),
    ("exact_algebra.MultiPoly.mul.total_s", "s"),
    ("exact_algebra.MultiPoly.pow.calls", "count"),
    ("exact_algebra.MultiPoly.pow.total_s", "s"),
    ("exact_algebra.poly_divmod.calls", "count"),
    ("exact_algebra.poly_divmod.total_s", "s"),
    ("exact_algebra.poly_gcd.calls", "count"),
    ("exact_algebra.poly_gcd.total_s", "s"),
    ("exact_algebra.squarefree_decomposition.calls", "count"),
    ("exact_algebra.squarefree_decomposition.total_s", "s"),
    ("exact_algebra.self_s", "s"),
    ("qdivisor.self_s", "s"),
    ("dpd_presentation.self_s", "s"),
    ("hypersurface_ring.self_s", "s"),
    ("cyclic_quotient.self_s", "s"),
    ("report.self_s", "s"),
    ("report.verify_triple.self_s", "s"),
    ("trace_overhead_s", "s"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong report)."""


def spawn(job: dict | None, kill_at: float) -> tuple[float, dict | None]:
    """Start a fresh interpreter, time it until pseudoplane.cli is imported,
    then hand it the job; return (scaled set-up seconds, pass result or
    None)."""
    # a fixed hash seed fixes set and dict iteration order, so two passes
    # over the same triples make the same calls
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(CHILD), str(SRC)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            out, _ = proc.communicate(
                json.dumps(job), timeout=max(kill_at - perf_counter(), 1)
            )
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    fields = ready.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise BenchError(f"child process failed (exit code {proc.returncode})")
    loop_total_s, loop_mean_s = map(float, fields[1:])
    setup_s = scale(setup_s - loop_total_s, loop_mean_s)
    return setup_s, json.loads(out) if job else None


def check_pass(triples, result: dict, digests: dict[str, str]) -> list[str]:
    """One message per triple whose report is wrong or whose verify raised."""
    failures = []
    for (d, e, m), got in zip(triples, result["triples"]):
        where = f"({d}, {e}, {m})"
        if "error" in got:
            failures.append(f"{where} raised {got['error']}")
            continue
        expected = predicted_verdict(d, m)
        if got["verdict"] != expected:
            failures.append(f"{where} verdict {got['verdict']}, predicted {expected}")
        elif expected == "excluded" and not (got["excluded_reason"] or "").startswith(
            "not ML1"
        ):
            failures.append(f"{where} excluded without an ML1 reason")
        elif got["digest"] != digests.get(digest_key((d, e, m))):
            failures.append(f"{where} report digest differs from the recorded one")
    return failures


def timed_run(job: dict, seconds: int, kill_at: float):
    """Untraced cold passes for --seconds, each after SETUP_SPAWNS_PER_PASS
    spawns that time set-up alone; returns (passes, set-up times)."""
    deadline = perf_counter() + seconds
    passes, durations, setups = [], [], []
    while True:
        start = perf_counter()
        setups += [spawn(None, kill_at)[0] for _ in range(SETUP_SPAWNS_PER_PASS)]
        setup_s, result = spawn(job, kill_at)
        setups.append(setup_s)
        passes.append(result)
        durations.append(perf_counter() - start)
        if len(passes) >= MIN_PASSES and (
            perf_counter() + statistics.median(durations) > deadline
        ):
            return passes, setups


def end_to_end_metrics(passes: list[dict], setups: list[float]):
    # each triple's latency is the median of its scaled latencies over the passes
    latencies = sorted(
        statistics.median(samples)
        for samples in zip(*(p["scaled_latencies_s"] for p in passes))
    )
    n = len(latencies)
    tail_rank = -(-TAIL_PERCENTILE * n // 100)  # nearest rank, 1-based
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(latencies), "s"),
        "triple_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "triple_tail_ms": (latencies[tail_rank - 1] * 1000, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    loop_ms = statistics.median(p["loop_s"] for p in passes) * 1000
    notes = [
        f"# measured: {len(passes)} cold passes of {n} triples, each triple's "
        f"latency the median of its passes; triple_tail_ms is the latency of rank "
        f"{tail_rank} of {n}; {len(setups)} set-up samples",
        f"# unscaled: wall_s {statistics.median(p['wall_s'] for p in passes):.4f} s "
        f"(median pass); reference loop {loop_ms:.4f} ms "
        f"(median pass mean, {sum(p['loop_samples'] for p in passes)} samples; "
        f"reference {REFERENCE_S * 1000:g} ms)",
    ]
    return metrics, notes


def traced_run(job: dict, kill_at: float) -> tuple[list[dict], list[dict]]:
    untraced = [spawn(job, kill_at)[1]]
    traced = [spawn(dict(job, trace=True), kill_at)[1] for _ in range(TRACED_PASSES)]
    return untraced, traced


def per_layer_metrics(untraced: list[dict], traced: list[dict]):
    """Per-layer metrics from the traced passes, plus consistency notes."""
    problems = []
    reference = [t.get("digest") for t in untraced[0]["triples"]]
    for p in traced:
        if [t.get("digest") for t in p["triples"]] != reference:
            problems.append("traced reports differ from the untraced reports")
    spans = [p["spans"] for p in traced]
    counts = [{k: (s["calls"], s["extra"]) for k, s in sp.items()} for sp in spans]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between the traced passes")

    def mean(values):
        return sum(values) / len(values)

    def span_stat(name: str, stat: str) -> float:
        if name not in spans[0]:
            return 0
        if stat == "calls":
            return spans[0][name]["calls"]
        if stat in ("total_s", "self_s"):
            return mean([sp[name][stat] for sp in spans])
        extra = spans[0][name]["extra"]
        if stat == "nonpoly_ratio":
            calls = spans[0][name]["calls"]
            return extra / calls if calls else 0.0
        return extra

    values = {
        "trace_overhead_s": mean([p["wall_s"] for p in traced]) - untraced[0]["wall_s"]
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = mean(
            [sum(s["self_s"] for s in sp.values() if s["layer"] == layer) for sp in spans]
        )
    missing = []
    metrics = {}
    for metric, unit in PER_LAYER:
        if metric not in values:
            span, stat = metric.rsplit(".", 1)
            if span not in spans[0]:
                missing.append(span)
            values[metric] = span_stat(span, stat)
        metrics[metric] = (values[metric], unit)
    notes = [f"# traced: {len(traced)} traced passes, 1 untraced pass"]
    if missing:
        notes.append(f"# spans not found (reported as 0): {sorted(set(missing))}")
    return metrics, problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kill_at = perf_counter() + RUN_LIMIT_S

    if not (SRC / "pseudoplane" / "cli.py").is_file():
        print(f"error: no pseudoplane sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    triples = workload.triples(args.seed)
    digests = json.loads(DIGESTS.read_text())[workload.name]
    job = {
        "triples": triples,
        "max_weight": workload.max_weight,
        "max_exponent": MAX_EXPONENT,
        "trace": False,
    }
    print(
        f"# env: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{platform.platform()}, workload {workload.name}, seed {args.seed}"
    )
    print(
        f"# input: {len(triples)} triples, max_weight {workload.max_weight}, "
        f"ring reuse {ring_reuse_share(triples):.1%}, "
        f"product_structure_check calls per ring "
        f"{product_checks_per_ring(workload, triples):g}"
    )
    spawn(None, kill_at)  # fills the bytecode cache, which users do not pay every run

    problems: list[str] = []
    if args.trace:
        untraced, traced = traced_run(job, kill_at)
        passes = untraced + traced
        metrics, problems, notes = per_layer_metrics(untraced, traced)
    else:
        passes, setups = timed_run(job, args.seconds, kill_at)
        metrics, notes = end_to_end_metrics(passes, setups)
    failures = [f for p in passes for f in check_pass(triples, p, digests)]
    attempted = len(triples) * len(passes)
    notes.append(
        f"# failed: {len(failures)} of {attempted} triples "
        f"(failed_frac {len(failures) / attempted:g})"
    )
    notes += [f"# FAIL {f}" for f in sorted(set(failures))[:20]]
    notes += [f"# FAIL {p}" for p in problems]
    print("\n".join(notes))
    print(
        json.dumps(
            {
                "correct": not failures and not problems,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
