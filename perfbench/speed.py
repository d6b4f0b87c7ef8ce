"""Machine-speed calibration for the benchmark's timings.

The small VMs this benchmark runs on change speed by up to 1.9x over
seconds to minutes while running the same code (neighbouring load,
frequency changes), which swamps most program changes.  Timing in process
CPU time already leaves out the time the hypervisor gives the cores to
other guests; the rest of the drift is scaled away here.  The loop runs
one fixed calibration pass before every operation: exact Gaussian
elimination on fixed integer matrices in ``Fraction`` arithmetic, the same
kind of interpreter-bound work as the engine, in this directory's own code
(``oracle.rank``) so that no program change can alter it.  Each
operation's time is then scaled by ``REFERENCE_S / c``, where ``c`` is the
median calibration time of the passes around it: times are reported in
the units of a machine on which one calibration pass takes
``REFERENCE_S``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import oracle

REFERENCE_S = 0.0025
# Calibration passes on each side of an operation in its speed estimate.
HALF_WINDOW = 4

_rng = random.Random(20190109)
_MATRICES = tuple(
    [[Fraction(_rng.randint(-3, 3)) for _ in range(7)] for _ in range(7)]
    for _ in range(4)
)


def calibrate() -> float:
    """Process CPU time in seconds of one fixed calibration pass."""
    start = time.process_time()
    for m in _MATRICES:
        oracle.rank(m)
    return time.process_time() - start


def factors(calibrations: list[float]) -> list[float]:
    """Per-operation scale factor: REFERENCE_S over the median of the
    calibration passes within HALF_WINDOW of the operation's own."""
    n = len(calibrations)
    out = []
    for i in range(n):
        lo = max(0, min(i - HALF_WINDOW, n - 2 * HALF_WINDOW - 1))
        window = calibrations[lo:lo + 2 * HALF_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out
