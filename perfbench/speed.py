"""Calibrated timing: the machine's speed, sampled while ops run.

The sandbox the benchmark was built on slows every process by up to 1.6x
in phases of a few seconds (other tenants share the cores).  A timer
signal runs a fixed piece of pure-Python work -- dict updates and integer
arithmetic, like the engine's inner loops -- every INTERVAL_S.  An op's
calibrated time is its measured time, probe time removed, scaled by
PROBE_REF_S over the harmonic mean of the probe times within WINDOW_S of
the op (the mean speed over the op): the time the op would take at the
reference machine's full speed.
"""

import bisect
import signal
import statistics
import time

PROBE_LOOPS = 2000
# the probe's time on the reference machine (2-core x86_64 sandbox,
# Python 3.11.7) in its fast phases
PROBE_REF_S = 0.0003
INTERVAL_S = 0.02
WINDOW_S = 0.05


def probe():
    """Seconds for one run of the fixed probe work."""
    t = time.perf_counter()
    d = {}
    for i in range(PROBE_LOOPS):
        k = i % 97
        d[k] = d.get(k, 0) + i * i % 7
    return time.perf_counter() - t


class SpeedSampler:
    """Samples the probe on a timer signal between start() and stop()."""

    def __init__(self):
        self.times = []
        self.probes = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        p = probe()
        self.times.append(t)
        self.probes.append(p)
        self.spent += time.perf_counter() - t

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        """Keeps sampling a little longer, so the last interval has
        samples after it, then stops."""
        end = time.perf_counter() + WINDOW_S + INTERVAL_S
        while time.perf_counter() < end:
            pass
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def clock(self):
        """(wall time, probe time so far); the difference of two readings
        is the time spent outside the probe."""
        return time.perf_counter(), self.spent

    @staticmethod
    def measured(start, end):
        """Seconds between two clock() readings, probe time excluded."""
        return end[0] - start[0] - (end[1] - start[1])

    def calibrate(self, start, end):
        """Calibrated seconds between two clock() readings."""
        lo = bisect.bisect_left(self.times, start[0] - WINDOW_S)
        hi = bisect.bisect_right(self.times, end[0] + WINDOW_S)
        window = self.probes[lo:hi] or self.probes[-1:] or [PROBE_REF_S]
        return (self.measured(start, end) * PROBE_REF_S
                / statistics.harmonic_mean(window))
