"""The machine-speed clock that the timed metrics are read from.

On a shared host the CPU speed a process gets swings by a third within a
second, in CPU time as much as in wall time, because neighbours load the
same cores and caches.  Raw op times then spread more between runs of
the same code than any change worth measuring.  So while a SpeedClock is
running, a timer signal interrupts the program every PROBE_EVERY_S and
times a fixed pure-Python kernel (a probe), in the same thread.  The
stretch of program time between two probes is scaled by REFERENCE_NS /
(mean of the two probes): it becomes time at the reference speed, the
speed at which the kernel takes REFERENCE_NS.  Probe time itself is cut
out of every span.  Probes also land inside long ops, so a slow spell in
the middle of an op is seen as well as one at its edges.

The kernel multiplies sparse polynomials with Fraction coefficients
(`algebra.mul`), the same mix of dict, tuple and rational arithmetic that
`tamedeg` spends its time in, so the two slow down together.  It shares
no code with `tamedeg`: a change to the library moves the scaled times
and leaves the kernel as it was.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

import algebra

# Time of one kernel run at the reference speed; about the median on a
# shared 2-core x86-64 host under CPython 3.11.  A short kernel, often,
# follows the speed more closely than a long one, less often: with a
# 1.2-ms kernel every 20 ms, the same op's scaled time differed between
# passes about half as much as with a 5-ms kernel every 50 ms.
REFERENCE_NS = 1_200_000
PROBE_EVERY_S = 0.02

_P = {(i % 4, i * 3 % 4, i * 5 % 3): Fraction(i * 7 % 11 - 5 or 1, 1 + i % 6) for i in range(14)}
_Q = {(i * 3 % 5, i % 3, i * 2 % 4): Fraction(i * 5 % 13 - 6 or 1, 1 + i % 5) for i in range(12)}


def kernel() -> dict:
    return algebra.mul(_P, _Q)


class SpeedClock:
    """Probes before, during (on SIGALRM) and after a `with` block; then
    maps perf_counter_ns readings taken inside the block to program time,
    raw or at the reference speed."""

    def __init__(self):
        self.starts: list[int] = []
        self.probes_ns: list[int] = []
        self._scaled: list[float] = []
        self._raw: list[int] = []
        self._busy = False

    def probe(self, *_signal) -> None:
        """Time one kernel run.  The collector is held off, so that a
        collection of the program's heap does not land in the probe."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            kernel()
            self.probes_ns.append(time.perf_counter_ns() - start)
            self.starts.append(start)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def __enter__(self) -> SpeedClock:
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        self.settle()

    def settle(self) -> None:
        """Program time, raw and scaled, from the end of the first probe to
        the end of each probe."""
        self._raw, self._scaled = [0], [0.0]
        for k in range(1, len(self.starts)):
            gap = self.starts[k] - self.starts[k - 1] - self.probes_ns[k - 1]
            self._raw.append(self._raw[-1] + gap)
            self._scaled.append(self._scaled[-1] + gap * self._factor(k - 1))

    def _factor(self, k: int) -> float:
        """Reference time per program time between probes k and k + 1."""
        return 2 * REFERENCE_NS / (self.probes_ns[k] + self.probes_ns[k + 1])

    def _program_time(self, t: int) -> tuple[int, float]:
        k = min(max(bisect.bisect_right(self.starts, t) - 1, 0), len(self.starts) - 2)
        past = max(0, t - self.starts[k] - self.probes_ns[k])
        return self._raw[k] + past, self._scaled[k] + past * self._factor(k)

    def span(self, start: int, end: int) -> tuple[int, float]:
        """(raw, scaled) nanoseconds of program time from start to end."""
        raw_a, scaled_a = self._program_time(start)
        raw_b, scaled_b = self._program_time(end)
        return raw_b - raw_a, scaled_b - scaled_a

    def speed(self) -> float:
        """Median machine speed, as a multiple of the reference speed."""
        ordered = sorted(self.probes_ns)
        return REFERENCE_NS / ordered[len(ordered) // 2]
