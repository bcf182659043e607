"""Machine-speed reference for rescaling measured times.

On a shared machine the CPU speed one process gets drifts by tens of
percent within seconds, for reasons outside the process.  Both processor
time and wall time follow the drift, so neither alone gives steady
figures.  The benchmark therefore times a fixed, stdlib-only computation
(``reference_work``) between short blocks of its own work and multiplies
each block's times by ``NOMINAL_S`` over the mean of the reference times
on either side of it.  Reported times are thus on the scale of a machine
that runs the reference in ``NOMINAL_S``; the results file keeps the raw
figures and every reference sample next to them.

Code under test cannot change the reference: it lives here and calls
nothing of the package.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# reference_work() at full speed on a 2-vCPU x86-64 VM with Python 3.11.7
NOMINAL_S = 0.0006


def reference_work():
    """Rational, float and dict work in the proportions of the package's paths."""
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k * k + 1)
    x = 0.0
    for k in range(1, 1500):
        x += math.sqrt(k) / (k + 1.0)
    counts = {}
    for k in range(1500):
        key = (k % 31, k % 7)
        counts[key] = counts.get(key, 0) + k * k
    return acc, x, counts


def reference_seconds() -> float:
    """Median of three timed runs of ``reference_work``."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class Scale:
    """Rescaling factors from reference samples taken between blocks of work."""

    def __init__(self):
        self.samples = [reference_seconds()]

    def factor(self) -> float:
        """The factor for the work done since the previous sample."""
        self.samples.append(reference_seconds())
        return 2.0 * NOMINAL_S / (self.samples[-2] + self.samples[-1])
