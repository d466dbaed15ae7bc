"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two over seconds to minutes.  CPU time drifts with wall time,
so this is the core running slower, not the process waiting for it, and a
longer run or a median over it does not average it out: over sets of ten
30 s runs of the same code, the middle half of the median iteration times
spread over 22-37 % of their median.

A fixed kernel of Python arithmetic and small numpy operations - the mix
curvecrack spends its time in, but none of curvecrack's code - is timed
right before and right after every measured interval.  The interval is then
scaled by ``REFERENCE_S`` over the kernel's mean time around it: the result
is the interval's length at the host speed on which the kernel takes
``REFERENCE_S``.  A change to curvecrack cannot move the kernel, so it moves
the scaled time as it moves the wall time at a fixed host speed.

The kernel's time jumps between a few levels (about 7.5, 10 and 12.5 ms on
the host the bounds were set on) from one run to the next, and a long
interval sees a mix of them, so a sample is the mean of several runs, not
their median.  Over ten 25 s runs per workload, scaling cut the spread of
the median iteration time (middle half over the median) from 12 % to 4 %
(solve-report), 22 % to 12 % (gamma-sweep) and 22 % to 4 %
(arc-convergence).  The sweep gains least: its iterations are 3.5 s long,
and its eight threads' time varies by 10 % between sweeps even while the
kernel's does not.

numpy is imported on the first call, so callers can pin BLAS threads first.
"""

from __future__ import annotations

import statistics
import time

# About the kernel's time on the 2-vCPU Xeon VM the bounds were set on (it
# read 6-14 ms there); scaled times are seconds at that speed.
REFERENCE_S = 0.010
REPEATS = 5          # kernel runs per sample; the sample is their mean

_DATA = None


def _data():
    global _DATA
    if _DATA is None:
        import numpy as np
        rng = np.random.default_rng(0)
        _DATA = (rng.standard_normal((40, 40)),
                 rng.standard_normal(300) + 1j * rng.standard_normal(300))
    return _DATA


def kernel() -> float:
    """Wall time of one run of the fixed kernel."""
    import numpy as np
    a, z = _data()
    start = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        acc += (i * 0.5) % 7.0
    for _ in range(120):
        w = np.log(z + 2.0) * np.exp(-0.1 * z)
        np.linalg.solve(a, a[:, 0])
        acc += float(np.abs(w).sum())
    elapsed = time.perf_counter() - start
    if acc != acc:                      # keeps the work from being skipped
        raise ArithmeticError("calibration kernel produced NaN")
    return elapsed


def sample() -> float:
    """The kernel's time now: the mean of REPEATS runs."""
    if _DATA is None:
        kernel()                        # first run pays numpy's lazy set-up
    return statistics.fmean(kernel() for _ in range(REPEATS))


def scale(elapsed: float, before: float, after: float) -> float:
    """Seconds at reference speed for an interval flanked by two samples."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))
