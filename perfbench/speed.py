"""Machine-speed calibration: times expressed at a fixed reference speed.

On a shared host the speed of one core drifts by tens of percent over
seconds and minutes, with the load of other tenants.  The benchmark runs a
fixed reference kernel between stretches of operations and scales each
operation's time by ``NOMINAL_S / reference time``, where the reference
time is the median of the timings taken around its stretch.  A scaled
time is the time the operation would take on a machine where the kernel
takes exactly ``NOMINAL_S``.

The kernel is small-array NumPy driven from a Python loop, the mix the
package's own hot paths are made of, and uses nothing of the package, so
no change to the package can change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.5e-3  # reference kernel time that defines the reference speed
WINDOW = 1  # reference timings on each side of a stretch that set its scale
_X = np.linspace(0.1, 1.0, 64)


def _kernel() -> float:
    acc = 0.0
    for i in range(100):
        acc += float(np.sum(np.sqrt(_X) * np.log(_X + i)))
    return acc


def reference_s() -> float:
    """Seconds of the reference kernel: best of three after one warm-up."""
    _kernel()
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Calibration:
    """Reference timings taken between stretches of work."""

    def __init__(self) -> None:
        self.times = [reference_s()]

    def mark(self) -> None:
        """Time the kernel at the end of a stretch."""
        self.times.append(reference_s())

    def scales(self) -> list[float]:
        """Scale of each stretch marked so far.

        ``NOMINAL_S`` over the median of the WINDOW reference timings on
        each side of the stretch, so that one disturbed timing does not
        move the stretch's figures.
        """
        return [
            NOMINAL_S / statistics.median(self.times[max(0, i - WINDOW + 1): i + WINDOW + 1])
            for i in range(len(self.times) - 1)
        ]
