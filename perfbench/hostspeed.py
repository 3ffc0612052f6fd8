"""Host-speed correction for timings taken on a shared, throttling host.

On a shared machine the CPU's speed can change by tens of percent within
seconds (frequency scaling, contention from other tenants), and CPU time
moves with wall time, so neither clock isolates the program's own cost.
:class:`HostSpeed` samples the host's speed between units of work with a
short fixed calibration loop and converts the wall time between two samples
into *reference seconds*: wall seconds times the sampled speed over
:data:`REFERENCE_RATE`.  A program change scales the corrected times as it
scales wall times; a host slowdown scales both the workload and the
calibration loop, and cancels.  Raw wall values stay in the run record.
"""

from __future__ import annotations

import bisect
import gc
import time
from typing import List, Tuple

__all__ = ["HostSpeed", "REFERENCE_RATE", "calibration_rate"]

#: calibration iterations per second taken as "reference speed"; a fixed
#: constant (about the median rate on a 2.1 GHz Xeon container), so corrected
#: times are comparable across runs and commits
REFERENCE_RATE = 6.0e6
#: length of one calibration sample, and the least wall time between two
PROBE_S = 0.02
PROBE_EVERY_S = 0.2


def _kernel(n: int) -> int:
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for i in range(n):
        table[i & 255] = i
        acc += table[(i * 7) & 255] ^ i
    return acc


def calibration_rate(duration: float = PROBE_S) -> float:
    """Calibration-loop iterations per wall second, sampled now."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        n = 0
        t0 = time.perf_counter()
        while True:
            _kernel(500)
            n += 500
            elapsed = time.perf_counter() - t0
            if elapsed >= duration:
                return n / elapsed
    finally:
        if gc_was_enabled:
            gc.enable()


class HostSpeed:
    """Speed samples along a measurement, and the correction they imply.

    Call :meth:`tick` between units of work; it samples when at least
    ``PROBE_EVERY_S`` passed since the last sample.  The sampling time is
    cut out of the measured timeline, so it never counts as work.
    """

    def __init__(self) -> None:
        #: (sample start, sample end, rate), in time order
        self.samples: List[Tuple[float, float, float]] = []

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][1] >= PROBE_EVERY_S:
            rate = calibration_rate()
            self.samples.append((now, time.perf_counter(), rate))

    def _segment(self, t: float) -> int:
        """Index ``k`` of the gap after sample ``k`` that holds time ``t``."""
        starts = [s[0] for s in self.samples]
        return max(bisect.bisect_right(starts, t) - 1, 0)

    def factor(self, t: float) -> float:
        """Reference seconds per wall second at wall time ``t``: the mean
        rate of the two samples around ``t`` over the reference rate."""
        k = self._segment(t)
        lo = self.samples[k][2]
        hi = self.samples[k + 1][2] if k + 1 < len(self.samples) else lo
        return (lo + hi) / 2.0 / REFERENCE_RATE

    def corrected(self, t0: float, t1: float) -> float:
        """Reference seconds spent in ``[t0, t1]``, sampling time excluded."""
        total = 0.0
        cuts = [t0]
        for start, end, _rate in self.samples:
            if end <= t0 or start >= t1:
                continue
            cuts.append(max(start, t0))
            cuts.append(min(end, t1))
        cuts.append(t1)
        for a, b in zip(cuts[0::2], cuts[1::2]):
            if b > a:
                total += (b - a) * self.factor((a + b) / 2.0)
        return total

    def wall(self, t0: float, t1: float) -> float:
        """Wall seconds in ``[t0, t1]``, sampling time excluded."""
        probe = sum(
            max(0.0, min(end, t1) - max(start, t0)) for start, end, _ in self.samples
        )
        return (t1 - t0) - probe
