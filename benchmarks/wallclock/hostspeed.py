"""Host-speed probe: corrects a child's timings for a shared host's speed.

On a few vCPUs of a shared host, other tenants slow this code by up to
2x for seconds to minutes at a time; wall time and ``process_time``
inflate alike, so neither a median over children nor a minimum removes
it.  The probe measures the host's speed during the very interval it
corrects: every :data:`INTERVAL_S` a ``SIGALRM`` handler runs a fixed
piece of interpreter work (dict lookups and stores, method calls and
attribute stores -- the mix of the engine's tick loop) and records how
long it took.  Its mean duration over an interval says how slow the
host was then, and

    corrected = (raw - probe time) * NOMINAL_S / mean probe duration

is the interval's time at the probe's nominal speed.  A probe that is
descheduled mid-way records the gap, so the mean is an unbiased
estimate of the slowdown by time slicing; slowdowns from cache or
memory contention reach the small probe less than the workload, so in
the heaviest phases the correction falls up to ~10% short.

The probe keeps no objects beyond its own few and runs with the cycle
collector off, so it never collects the workload's garbage.  It costs
about 1% of the interval, which the correction subtracts.
"""

from __future__ import annotations

import gc
import signal
import time

#: seconds between probes.
INTERVAL_S = 0.005
#: roughly the probe's duration on a quiet 2 GHz Xeon vCPU (Python 3.11);
#: corrected times are seconds at that speed.
NOMINAL_S = 20e-6


class SpeedProbe:
    """Samples the host's speed from :meth:`start` to :meth:`stop`."""

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self._table = dict.fromkeys(range(64), 0)
        self._acc = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """The running sample count and probe time, to bracket an interval."""
        return self.count, self.total_s

    def corrected(self, raw_s: float, since: tuple[int, float]) -> float:
        """``raw_s``, measured since ``since``, at the probe's nominal speed.

        An interval too short to hold a probe is returned uncorrected.
        """
        count = self.count - since[0]
        probe_s = self.total_s - since[1]
        if count == 0:
            return raw_s
        return (raw_s - probe_s) * NOMINAL_S * count / probe_s

    def _sample(self, signum: int, frame: object) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self._work()
        self.total_s += time.perf_counter() - start
        self.count += 1
        if collecting:
            gc.enable()

    def _work(self) -> None:
        table = self._table
        for i in range(100):
            key = (i * 40503) & 63
            table[key] = self._step(table[key] + i)

    def _step(self, value: int) -> int:
        self._acc = (self._acc + value) & 255
        return self._acc
