"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts with
the load other tenants put on it: the same pure-Python loop, timed at its
best of several tries, has taken 23 ms and 36 ms a few seconds apart, and
more than twice as long in one hour as in the hour before.  Longer runs do
not average out a drift that lasts minutes, so every timing the benchmark
reports is scaled to a fixed reference speed: the measured time times
``REFERENCE_S`` over the mean time of a reference loop run on the same vCPU
during and around the measured interval.

``Sampler`` runs the loop every ``INTERVAL_S`` from a ``SIGALRM`` handler,
which Python runs in the main thread between two bytecodes of whatever the
program is doing, so the samples see the host exactly as the program does
at that moment.  The time spent in the handler is taken out of the measured
interval.  On ``verify_triple(5, 2, 4, max_weight=24)``, about 1.4 s, timed
in 16 fresh processes, the coefficient of variation was 18% unscaled and
3.2% scaled; scaled instead by the loop timed only before and after the
call, it was 11%, because the host's speed changes within a second.

The loop multiplies two fixed sparse polynomials with ``Fraction``
coefficients held in dicts keyed by exponent tuples, which is the work
``MultiPoly.__mul__`` does.  It is the benchmark's own code and never calls
``pseudoplane``: a change to the program moves a scaled time exactly as much
as the raw time, and only the host's speed is divided out.  The garbage
collector is off while the loop runs, so the size of the program's heap
does not change the loop's time.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# about the loop's mean time on a 2-vCPU x86-64 VM at its fastest (Python
# 3.11); a scaled time reads as seconds on a host that fast
REFERENCE_S = 0.00075
INTERVAL_S = 0.025

_A = {(i, j): Fraction(i - j + 5, j + 2) for i in range(4) for j in range(4)}
_B = {(i, j): Fraction(j + 1, i + j + 1) for i in range(3) for j in range(3)}


def _product() -> dict:
    out: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            total = out.get(key, Fraction(0)) + c1 * c2
            if total:
                out[key] = total
            else:
                del out[key]
    return out


def loop_time() -> float:
    """Seconds one run of the reference loop takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _product()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(interval_s: float, loop_s: float) -> float:
    """``interval_s`` scaled to the reference speed, given the mean loop
    time measured while it ran."""
    return interval_s * REFERENCE_S / loop_s


class Sampler:
    """Times the reference loop now, every INTERVAL_S while active, and on
    exit.  Only one can be active in a process, in its main thread."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loops: list[float] = []

    def _sample(self, *_signal) -> None:
        self.starts.append(perf_counter())
        self.loops.append(loop_time())

    def __enter__(self) -> "Sampler":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(unscaled, scaled) seconds the program ran from ``start`` to
        ``end`` (perf_counter readings taken while active), without the
        samples inside; scaled by the mean of those samples and the last
        one before and the first one after."""
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        program_s = end - start - sum(self.loops[first:last])
        around = self.loops[max(first - 1, 0) : last + 1]
        return program_s, scale(program_s, sum(around) / len(around))
