"""A fixed speed probe, to take the host's own speed out of measured times.

On a shared host the same code runs at different speeds from one stretch
of seconds to the next (on the 2-vCPU VM this benchmark was tuned on, up
to 1.8x apart within minutes, process CPU time included).  The probe is
fixed work of the kinds the program does: exact rational sums and mpmath
arithmetic at low and high precision.  It shares no code with the program,
so a change to the program cannot move it.  A timer samples it every
EVERY seconds of wall time, also while a request runs.  A request's time
t, measured while the probe takes p seconds, is reported as t * REF_S / p:
the time the same work would take on a host where the probe takes REF_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

from mpmath import mp, mpf

REF_S = 0.0003  # about the probe's time on the VM above, in its fast stretches
EVERY = 0.05  # seconds of wall time between samples
NEAREST = 5  # fewest samples whose mean scales one measured time


def sample() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 25):
        acc += Fraction(1, k * k)
    with mp.workdps(60):
        x = mpf(acc.numerator) / acc.denominator
        for j in range(8):
            mp.exp(x + j) + mp.sqrt(x + j) * mp.log(x + j + 1)
    return time.perf_counter() - t0


class Sampler:
    """Within the block, samples the probe every EVERY seconds from a
    SIGALRM handler, so a long request is sampled while it runs.  The
    handler runs in the one thread between bytecodes and leaves mpmath's
    precision as it found it.  ``samples`` holds (time, seconds)."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._old = None

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a sample outlasted the interval
            return
        self._busy = True
        try:
            self.samples.append((time.perf_counter(), sample()))
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def scale(spans, samples) -> list:
    """Each (start, end) span's duration in reference seconds.

    The samples taken inside a span are taken out of its duration.  The
    rest is scaled by the mean of those samples, or of the NEAREST samples
    closest to the span when fewer fell inside it.  The mean, not the
    median: the host flips between a fast and a slow speed within a
    second, and the span's time follows the share of each.  ``samples``
    is a list of (time, seconds) sorted by time.
    """
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_left(times, end)
        inside = samples[lo:hi]
        near = inside
        if len(inside) < NEAREST:
            near = sorted(samples[max(0, lo - NEAREST):hi + NEAREST],
                          key=lambda p: max(start - p[0], p[0] - end, 0))[:NEAREST]
        work = end - start - sum(s for _, s in inside)
        out.append(work * REF_S / statistics.fmean(s for _, s in near))
    return out
