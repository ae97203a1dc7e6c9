"""Host-speed calibration: a fixed reference timed throughout every run.

The benchmark runs on shared hosts whose speed drifts: the same fixed work
can take 1.6 times as long for seconds or minutes at a time, and process
CPU time slows with it, so the loss is contention for the core, not
waiting. A slow period that outlasts a run cannot be averaged away inside
it. So each run also times KERNEL, a fixed piece of scalar and small-array
floating-point work of the same kind as trialbayes's quadrature (math
library calls in Python loops, numpy on 64-point vectors), at least every
INTERVAL_S between operations. It does not import trialbayes, so a change
to the program cannot change it. The mean kernel time over the run, against
NOMINAL_S, says how much slower than nominal the host ran, and the time
metrics are scaled by it: they read as on a host where KERNEL takes
NOMINAL_S. The kernel's own time is not counted in any operation.

A cli_report operation and a set-up probe are mostly interpreter start-up,
which KERNEL does not track, so their reference is a fresh interpreter
running STARTUP_CODE instead.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's time on an uncontended core of the 2-vCPU Xeon host the
# benchmark was written on. Only ratios of scaled metrics matter; this
# constant puts them near the figures that host gives when it is quiet.
NOMINAL_S = 0.005
INTERVAL_S = 0.2
# The cli_report reference: a fresh interpreter importing numpy, about once
# per cycle of CLI operations. STARTUP_NOMINAL_S is its time on that host.
STARTUP_CODE = "import numpy"
STARTUP_NOMINAL_S = 0.15
STARTUP_INTERVAL_S = 1.0
_NODES = np.linspace(0.01, 5.0, 64)
_ROUNDS = 250


def kernel():
    """Fixed work; the value is returned so that none of it can be skipped."""
    x = _NODES
    total = 0.0
    for k in range(_ROUNDS):
        y = np.exp(-0.5 * x * x + k * 1e-3) * np.log1p(x)
        total += float(np.dot(y, x))
        for j in range(40):
            total += math.lgamma(j + 1.5) * math.exp(-j * 0.1)
    return total


class Calibration:
    """Samples of a reference (by default KERNEL) taken during one run."""

    def __init__(self, samples=(), reference=kernel, nominal=NOMINAL_S, interval=INTERVAL_S):
        self.samples = list(samples)
        self.reference, self.nominal, self.interval = reference, nominal, interval
        self._last = time.perf_counter()

    def sample(self):
        start = time.perf_counter()
        self.reference()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def due(self):
        """Take a sample if `interval` seconds have passed since the last one."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    @property
    def seconds(self):
        return sum(self.samples)

    def slowdown(self):
        """Mean reference time over its nominal time: above 1 when the host
        ran slow."""
        return sum(self.samples) / len(self.samples) / self.nominal
