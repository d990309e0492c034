"""The machine's momentary speed, read from a fixed reference kernel.

The benchmark runs on shared virtual machines whose CPU speed changes
with the load of other tenants: on the 2-vCPU machine it was made on,
the same op took up to twice as long from one minute to the next. Every
timed op is followed, outside its timing, by a short run of this kernel.
The op's time over the kernel's time is the op's cost at a fixed machine
speed. The kernel is numpy on small matrices inside a Python loop, like
the program's ops, and runs no ctcfuse code, so no change to the program
can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Timings are reported rescaled to a machine on which the kernel takes
# this long; it took 0.27 ms to 0.5 ms on the machine described above.
REF_KERNEL_S = 0.5e-3
REPEATS = 3  # a sample is the best of this many kernel runs

_X = np.linspace(-1.0, 1.0, 24 * 32).reshape(24, 32)
_W = np.linspace(-0.05, 0.05, 32 * 32).reshape(32, 32)


def kernel() -> float:
    x = _X
    total = 0.0
    for _ in range(40):
        x = np.tanh(x @ _W) + 0.5 * x
        total += float(x.sum())
    return total


def sample() -> float:
    """Seconds the kernel takes now: the best of REPEATS runs."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
