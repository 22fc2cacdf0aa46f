"""The host's momentary speed, from a fixed reference computation.

The benchmark runs on a few cores of a shared host.  Other tenants' load
slows this process's CPU, wall and CPU time alike, by up to 1.7x, in spells
that last from a fraction of a second to minutes.  On a 2-vCPU Xeon, the best
of 130 runs of one 30-ms corpus entry within a 10-s window ranged from 29 to
50 ms over two and a half minutes, while the ratio of its time to the time of
this module's reference kernel, run next to it, stayed within 4.0-4.4.  A
spell longer than a run moves every order statistic of the run, so the
benchmark corrects each timing by timings of the reference kernel taken right
before it, right after it and, from a profiling-timer signal, every
``PROBE_INTERVAL_S`` of CPU time during it (see ``Probe``):

    corrected = (measured - time spent in the kernel) * REFERENCE_S / mean(kernel timings)

that is, the time the work would have taken at the speed at which the kernel
takes ``REFERENCE_S``.  The kernel uses only the standard library, so no
change to the program moves it; it runs with the garbage collector off, so the
collector's settings do not move it either.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: The kernel's wall time on a quiet 2-vCPU Intel Xeon host with Python 3.11;
#: corrected times are times at that speed.
REFERENCE_S = 0.004

#: CPU seconds between two timings of the kernel during a piece of work.
PROBE_INTERVAL_S = 0.25

_KERNEL_ROUNDS = 4


def kernel() -> int:
    """Exact and complex arithmetic in the proportions polyproper uses them.

    A sparse product of bivariate polynomials with Fraction coefficients, then
    Horner evaluation of the product's coefficients at complex points.
    """
    checksum = 0
    for r in range(_KERNEL_ROUNDS):
        p = {(i, j): Fraction(i - 2 * j + 1 + r, j + 2) for i in range(5) for j in range(5 - i)}
        prod: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in p.items():
            for (d, e), f in p.items():
                k = (a + d, b + e)
                prod[k] = prod.get(k, 0) + c * f
        coeffs = [complex(float(c), 0.5) for c in prod.values()]
        acc = 0j
        for t in range(60):
            x = complex(0.25, 0.01 * t)
            v = 0j
            for c in coeffs:
                v = v * x + c
            acc += v
        checksum += len(prod) + int(abs(acc)) % 7
    return checksum


def sample() -> tuple[float, float]:
    """Wall seconds of one kernel run, and of the whole call.

    The kernel runs twice, with the garbage collector off, and the second run
    is the one timed: the first brings its code and data back into the
    caches, which the work around it may have evicted.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        return end - timed, end - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Times the kernel before, during and after the work in its ``with`` block.

    The timings during the work come from a SIGPROF handler, so they take
    place only while this process runs on the CPU.  The time all timings take
    is tallied, to be taken off the time of the work measured around the
    block.  Read the process's CPU clock outside the block: while the
    profiling timer is armed, Linux may advance that clock in whole ticks.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self.spent_s = 0.0

    def __enter__(self) -> "Probe":
        self._sample()
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def _sample(self) -> None:
        kernel_s, spent_s = sample()
        self.kernel_s.append(kernel_s)
        self.spent_s += spent_s

    def _on_tick(self, signum, frame) -> None:
        self._sample()

    def factor(self) -> float:
        """REFERENCE_S over the kernel's mean time: the host's speed, relative."""
        return REFERENCE_S * len(self.kernel_s) / sum(self.kernel_s)

    def corrected(self, seconds: float) -> float:
        """Seconds measured around the block, less the kernel's, at reference speed."""
        return (seconds - self.spent_s) * self.factor()
