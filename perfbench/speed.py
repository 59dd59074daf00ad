"""Machine-speed probe: turns wall times into speed-adjusted times.

On a shared machine the same fixed work runs up to 1.5x slower for seconds
to minutes at a time while other tenants are busy (2-s medians of a fixed
pure-Python loop ranged 5.4-8.3 ms on a 2-CPU Xeon VM). The probe times a
fixed kernel of the benchmark's own, a mix of small-array numpy arithmetic
and plain Python like coulscat's, around each set-up start and at most every
PERIOD seconds between operations. A run's times are scaled by
(REFERENCE_S / median probe time over the run) ** exponent: the time at the
machine speed where the probe runs in REFERENCE_S. The exponent is the
workload's measured sensitivity to the machine's speed relative to the
probe's (see NOTES.md). The probe never calls coulscat, so a change to the
program leaves it unchanged.
"""

import statistics
from time import perf_counter

import numpy as np

# probe time on a quiet 2-CPU Xeon VM (Python 3.11, numpy 2.4)
REFERENCE_S = 4.0e-3
PERIOD = 0.5


class SpeedProbe:
    def __init__(self):
        self._x = np.linspace(0.1, 2.0, 2048) * (1.0 + 0.5j)
        self.times = []
        self.values = []

    def _kernel(self):
        z, acc = self._x, np.zeros_like(self._x)
        for n in range(150):
            acc = acc + z / (n + 1.0)
            z = z * 0.999
        s = 0
        for i in range(40000):
            s += i * i
        return acc, s

    def sample(self):
        """Time the kernel three times and keep the median."""
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            runs.append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.values.append(statistics.median(runs))

    def maybe_sample(self):
        if not self.times or perf_counter() - self.times[-1] >= PERIOD:
            self.sample()

    def factor(self, exponent=1.0):
        """Multiply the run's wall times by this."""
        return (REFERENCE_S / statistics.median(self.values)) ** exponent

    def summary(self):
        v = self.values
        return {"samples": len(v), "reference_s": REFERENCE_S,
                "median_s": statistics.median(v), "min_s": min(v),
                "max_s": max(v)}
