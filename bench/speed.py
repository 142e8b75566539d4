"""Speed probes: fixed reference work timed next to the program's work.

The benchmark was defined on a shared 2-vCPU Xeon virtual machine whose
speed drifts by up to a factor of two within a minute (the same 20
evaluations took 11.6-23.5 ms of CPU time in 10-second blocks).  Each run therefore times a
fixed piece of numpy work, a probe, between the program's operations, and
scales every CPU time by ``reference / probe``: the figures read as CPU time
at the speed the machine has when a probe takes its reference time.

Two probes match the two regimes of the package.  ``small`` repeats short
array operations and Python calls, like a few-hundred-node integral;
``large`` streams arrays of 0.4 M nodes, like the Laplace cross-check.
Measured over 200 s, scaling by the matching probe cut the spread of
10-second medians from 28% to 2.5% (small) and from 16% to 3.2% (large).
This module does not import the package.
"""

from __future__ import annotations

import math
import statistics
from time import process_time_ns

import numpy as np


def _small() -> float:
    t = np.arange(-400, 401) * 0.015
    acc = 0.0
    for k in range(40):
        w = 1.0 + 1j * t
        v = np.exp((0.3 - 0.1j * k) * np.log(w) + 0.5 * w * w)
        s = np.sin(t * k) + np.cos(0.5 * k * t)
        acc += math.fsum(v.real.tolist()) + math.fsum(s.tolist())
    return acc


def _large() -> float:
    t = np.arange(-200_000, 200_001) * 1e-4
    w = 1.0 + 1j * t
    v = np.exp(-0.4 * np.log(w) + w)
    return math.fsum(v.real.tolist())


# Probe work and its reference CPU time (its median on the reference box).
PROBES = {"small": (_small, 9.0e6), "large": (_large, 73.0e6)}
# Each workload's probe, and how many times one sample repeats it: the CLI
# workloads sample once per process, seconds apart, so each sample is longer.
PROBE_OF = {"plane-mix": ("small", 1), "laplace-crosscheck": ("large", 1),
            "cli-verify": ("small", 5), "cli-grid": ("small", 5)}


class Speed:
    """Probe samples taken between operations.

    An operation that starts in segment ``k`` (after sample ``k``) is scaled
    by the mean of samples ``k`` and ``k + 1``.  A sample is taken whenever
    ``every_ns`` of operation CPU time has passed since the last one.
    """

    def __init__(self, kind: str, repeat: int = 1, every_ns: float = 0.0):
        self._work, reference_ns = PROBES[kind]
        self._repeat = repeat
        self.reference_ns = repeat * reference_ns
        self._every_ns = every_ns
        self._since = 0
        self._pending = False
        self.samples: list[int] = []
        self.sample()

    def sample(self) -> None:
        start = process_time_ns()
        for _ in range(self._repeat):
            self._work()
        self.samples.append(process_time_ns() - start)
        self._since = 0
        self._pending = False

    @property
    def segment(self) -> int:
        return len(self.samples) - 1

    def spent(self, ns: int) -> None:
        self._since += ns
        self._pending = True
        if self._since >= self._every_ns:
            self.sample()

    def close(self) -> None:
        """Sample once more if operations ran since the last sample."""
        if self._pending:
            self.sample()

    def factor(self, segment: int) -> float:
        """Scale for CPU time spent in ``segment``; needs its closing sample."""
        a, b = self.samples[segment], self.samples[segment + 1]
        return 2.0 * self.reference_ns / (a + b)

    def median_factor(self) -> float:
        """One scale for a whole run, from the median sample."""
        return self.reference_ns / statistics.median(self.samples)
