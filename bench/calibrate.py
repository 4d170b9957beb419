"""Host-speed calibration for the timed metrics.

On a shared machine the speed of one CPU drifts by a quarter or more over
seconds, in phases longer than a run.  The benchmark therefore times a fixed
probe, which does not use diracpol, right after each window of ops, and
scales the window's times by ``reference time / probe time``.  Every time is
thus reported at the speed the probe shows on a quiet run of the machine
noted in baseline.json.  A change to diracpol cannot change a probe, so the
scaling cancels host drift but not a change of the program.

In-process ops, and each set-up probe, are scaled by an in-process kernel
timed in the same process.  Cold CLI ops are scaled by a fresh
``python -c pass`` started right after each, which tracks them far better:
over 200 s of cold CLI ops, the medians of 36 ops spread 20% unscaled, 8%
scaled by the kernel and 1.3% scaled by the fresh process.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Probe times on the reference machine at its quiet speed (seconds).  They are
# only the unit; any constants would keep comparisons between commits valid.
REFERENCE_S = 7.5e-4
REFERENCE_COLD_S = 5.0e-2

# Windows of ops between two calibrations (seconds of op time).
WINDOW_S = 0.25

_REPEATS = 3
_XS = [float(i) for i in range(300)]
_A = np.arange(1.0, 513.0)


def kernel() -> float:
    """Interpreted float arithmetic and small numpy arrays, the two kinds of
    work diracpol does."""
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i + 0.5) * 0.5
    for _ in range(40):
        acc += float(np.cumprod(_A / (_A + 1.0)).sum())
    return acc + math.fsum(_XS)


def kernel_seconds() -> float:
    """Shortest of a few timed kernel runs."""
    best = math.inf
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def cold_seconds(env: dict[str, str]) -> float:
    """Wall time of a fresh ``python -c pass``.  No timeout: with one,
    waiting polls with sleeps of up to 50 ms, which would quantize the time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0
