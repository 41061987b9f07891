"""The machine's momentary speed, read from a fixed pure-Python kernel.

On a shared host the speed of this process drifts by up to 2x for seconds
to minutes at a time (neighbour load on the same physical cores), and the
drift shows in CPU time as much as in wall time.  A time measured in one
run is therefore compared with a reading of the same machine's speed taken
next to it: the gauge times a small kernel between calls, and a call's time
is scaled by `REFERENCE_UNIT_S / local unit time`.  The kernel imports
nothing from circmds and has the same character as its hot loops (Gauss-
Jordan over GF(2^8) with log/antilog tables, method calls, small lists), so
a change to circmds cannot move it, while a slow spell of the host slows it
as much as it slows circmds.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# Median kernel unit time on a quiet 2-vCPU Intel Xeon VM under CPython
# 3.11; it only fixes the scale of the reported seconds.
REFERENCE_UNIT_S = 0.0008
UNITS_PER_READING = 5
# a reading older than this is renewed before the next call
READ_EVERY_S = 0.05
ORDER = 6
MATRICES = 12


class _Field:
    def __init__(self, poly: int = 0x11D):
        exp, log, x = [0] * 510, [0] * 256, 1
        for i in range(255):
            exp[i] = exp[i + 255] = x
            log[x] = i
            x <<= 1
            if x & 0x100:
                x ^= poly
        self._exp, self._log = exp, log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        return self._exp[255 - self._log[a]]


def _inverse(f: _Field, A):
    n = len(A)
    mul, inv = f.mul, f.inv
    aug = [A[i][:] + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = inv(aug[col][col])
        prow = aug[col]
        for j in range(col, 2 * n):
            prow[j] = mul(pinv, prow[j])
        for r in range(n):
            if r != col and aug[r][col]:
                g = aug[r][col]
                rrow = aug[r]
                for j in range(col, 2 * n):
                    rrow[j] ^= mul(g, prow[j])
    return [row[n:] for row in aug]


def _kernel_inputs():
    f = _Field()
    rng = random.Random(0x6A09)
    mats = []
    while len(mats) < MATRICES:
        A = [[rng.randrange(256) for _ in range(ORDER)] for _ in range(ORDER)]
        if _inverse(f, A) is not None:
            mats.append(A)
    return f, mats


_FIELD, _MATS = _kernel_inputs()


def unit() -> None:
    """One kernel unit: invert the fixed matrices once."""
    for A in _MATS:
        _inverse(_FIELD, A)


class Gauge:
    """Readings of the kernel's unit time, each the median of a few units,
    stamped with the time they ended."""

    def __init__(self):
        self.stamps: list[float] = []
        self.units: list[float] = []

    def read(self) -> None:
        clock = time.perf_counter
        times = []
        for _ in range(UNITS_PER_READING):
            t0 = clock()
            unit()
            times.append(clock() - t0)
        self.stamps.append(clock())
        self.units.append(statistics.median(times))

    def read_if_due(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= READ_EVERY_S:
            self.read()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over [start, end] into seconds
        at the reference speed: the mean of the last reading before `start`
        and the first one after `end`, against REFERENCE_UNIT_S."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        local = [self.units[i] for i in (before, after) if 0 <= i < len(self.units)]
        return REFERENCE_UNIT_S / statistics.mean(local)
