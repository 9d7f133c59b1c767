"""The machine's current speed, from a fixed calibration kernel.

On a shared host the same Python code runs tens of per cent slower or
faster from one minute to the next, as other tenants load the cores.
The benchmark therefore runs this kernel between operations and scales
its times to the reference speed: a time t measured while the kernel
took c seconds is reported as t * REF_S / c.  The kernel is pure-Python
integer work, like the package, so contention slows both alike.
"""

from __future__ import annotations

import math
from time import perf_counter

# the kernel's time on an unloaded core of the reference machine
# (Intel Xeon, CPython 3.11.7); scaled times are in that machine's seconds
REF_S = 0.0011


def kernel() -> int:
    acc = 0
    for j in range(1, 6000):
        acc += math.isqrt(j * j * 5) // 2 + (j * 7 + 3) % 11
    return acc


def calibrate() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
