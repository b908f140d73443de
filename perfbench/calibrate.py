"""Machine speed, from a fixed reference kernel timed beside the work.

The shared machines this benchmark is made for change speed for seconds to
minutes at a time, by a third or more, and the slowdown shows in CPU time as
well as in wall time: a whole run can land in a slow phase. So every timing
a ``--trace 0`` run reports is scaled to a reference speed:

    scaled seconds = raw seconds * REFERENCE_S / kernel seconds around them

The kernel is timed at the boundaries of every timed segment (each set-up,
each decode chunk, each training job) and every half second inside a
training job; a segment is scaled by the mean of the samples inside it and
the nearest one on each side. The kernel imports nothing from the package, so a
change to the program moves the scaled figures and a change in machine
speed mostly does not. Its mix of small float32 matrix products,
element-wise ops and interpreter work follows a forward pass of the toy
model. The run record keeps the unscaled figures and the samples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from statistics import median

import numpy as np

from probe import clock

# About the kernel's time in a fast phase of a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy with one OpenBLAS thread). It fixes the unit of the scaled figures
# only: any constant would do, as long as it never changes.
REFERENCE_S = 3.0e-3
REPEATS = 3  # kernel calls per sample; the sample is their median

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((48, 64)).astype(np.float32)
_W_UP = (_rng.standard_normal((64, 384)) / 8).astype(np.float32)
_W_DOWN = (_rng.standard_normal((384, 64)) / 20).astype(np.float32)


def reference_kernel() -> float:
    x = _X
    acc = 0
    for i in range(24):
        h = x @ _W_UP
        h = h / (1.0 + np.exp(-h))
        x = x + h @ _W_DOWN
        x = (x - x.mean(axis=1, keepdims=True)) / (x.std(axis=1, keepdims=True) + 1e-5)
        for j in range(60):
            acc += (i * j) % 7
    return float(x[0, 0]) + acc


class Speed:
    """Kernel samples over one session, and the scale of any time span."""

    def __init__(self) -> None:
        self.at: list[float] = []       # when each sample was taken
        self.kernel_s: list[float] = []

    def sample(self) -> float:
        """Time the kernel now; returns the wall time the sample took."""
        t0 = clock()
        times = []
        for _ in range(REPEATS):
            t = clock()
            reference_kernel()
            times.append(clock() - t)
        self.at.append(t0)
        self.kernel_s.append(median(times))
        return clock() - t0

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time in ``[t0, t1]``, taking the
        samples inside it and the nearest one on each side."""
        if not self.at:
            raise ValueError("no speed samples taken")
        lo = max(0, bisect_left(self.at, t0) - 1)
        hi = min(len(self.at), bisect_right(self.at, t1) + 1)
        near = self.kernel_s[lo:hi] or self.kernel_s[-1:]
        return REFERENCE_S * len(near) / sum(near)


class NoSpeed(Speed):
    """Takes no samples and leaves every time unscaled (traced runs)."""

    def sample(self) -> float:
        return 0.0

    def scale(self, t0: float, t1: float) -> float:
        return 1.0
