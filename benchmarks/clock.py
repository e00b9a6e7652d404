"""Wall time scaled to a nominal machine speed.

On the 2-vCPU virtual machine (shared host) where the figures in README.md
were measured, core speed swings by up to 2x for tens of seconds at a
time with the load of other tenants; identical work takes 28 ms or 55 ms.  A median over
one run cannot remove a swing that lasts the whole run.  So every timed
sample is bracketed by a fixed pure-Python calibration workload, and its
wall time is scaled by NOMINAL_CALIBRATION_S over the mean calibration
time around it.  The result reads as the sample's wall time on the machine
at the speed where the calibration takes NOMINAL_CALIBRATION_S, its usual
uncontended time there.  Over ten runs per workload this cut the spread
(interquartile range over median) of the run medians from 0.25-0.46 of raw
wall time to 0.01-0.08.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

NOMINAL_CALIBRATION_S = 8e-3

_MATRIX = None


@dataclass
class _Pair:
    a: float
    b: float


def _pair_residual(x: float, target: float) -> float:
    pair = _Pair(math.asinh(x), math.log1p(x))
    return pair.a * math.sinh(pair.b / 3.0) - target


def calibrate() -> float:
    """Seconds taken by a fixed workload of the program's three kinds:
    float arithmetic in a loop, Python calls that build small objects, and
    numpy calls on 4x4 arrays.  Against one calibration of a single kind,
    the mix tracks the root solves, the quadrature and the FD curvature
    alike (scaled 5 s medians over 100 s varied 3-6 %, raw ones 36 %)."""
    global _MATRIX
    import numpy as np
    if _MATRIX is None:
        _MATRIX = np.arange(16.0).reshape(4, 4) + 10.0 * np.eye(4)
    t0 = time.perf_counter()
    for j in range(250):
        lo, hi, target = 0.0, 10.0, 1.0 + 0.004 * j
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if math.asinh(mid) * math.sinh(mid / 3.0) < target:
                lo = mid
            else:
                hi = mid
    for j in range(120):
        lo, hi = 0.0, 10.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _pair_residual(mid, 1.0 + 0.004 * j) < 0.0:
                lo = mid
            else:
                hi = mid
    for j in range(150):
        g = _MATRIX + j * 1e-3
        x = np.einsum("ij,jk->ik", np.linalg.inv(g), g)
        float(np.einsum("ij,ij->", x, g))
    return time.perf_counter() - t0


def timed(fn, calibration=calibrate, nominal=NOMINAL_CALIBRATION_S):
    """(fn(), wall seconds, scaled seconds): the wall time scaled by
    nominal over the mean of calibration() just before and just after."""
    c0 = calibration()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    c1 = calibration()
    return out, wall, wall * nominal / (0.5 * (c0 + c1))


def rounds(step, seconds=None, count=None) -> int:
    """Call step() round after round until it returns False, count rounds
    are done or seconds have passed; at least one round runs.  Returns the
    number of rounds step() completed (returned True)."""
    done = 0
    t0 = time.perf_counter()
    while step():
        done += 1
        if count is not None and done >= count:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
    return done
