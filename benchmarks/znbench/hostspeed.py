"""Host-speed calibration.

The benchmark shares its machine with other tenants, and the speed at which
this process executes Python drifts by up to a factor of two over minutes
(on a shared 2-core machine with Python 3.11, a fixed znalg job measured
between 0.47 s and 1.0 s in blocks of ten runs).  A fixed pure-Python loop,
timed next to every job, slows down with the host in step with the job
(correlation 0.84 over 213 pairs), so every job time is scaled by
REFERENCE_S over the loop's time measured around it.  The result reads as seconds at the reference host
speed; a slower program still reads slower, a slower host does not.
"""

from __future__ import annotations

import statistics
import time

# About the loop's median time on the shared 2-core machine where the
# benchmark was defined; it only sets the scale, and must stay fixed so that
# runs of different commits compare.
REFERENCE_S = 0.010

_R, _N = 6, 7
_TABLE = [[[(7 * i + 3 * j + k) % _N for k in range(_R)] for j in range(_R)]
          for i in range(_R)]


def _loop():
    """600 dense bilinear products mod 7 at rank 6: the same mix of tuple
    indexing and small-integer arithmetic as znalg's kernels."""
    x = [1, 2, 3, 4, 5, 6]
    for _ in range(600):
        acc = [0] * _R
        for i, xi in enumerate(x):
            if xi:
                row = _TABLE[i]
                for j, yj in enumerate(x):
                    if yj:
                        c = xi * yj
                        for k, v in enumerate(row[j]):
                            if v:
                                acc[k] = (acc[k] + c * v) % _N
        acc[0] = (acc[0] + 1) % _N
        x = acc
    return x


def calibrate():
    """Median seconds of the calibration loop over three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
