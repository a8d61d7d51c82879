"""Machine-speed calibration for the end-to-end timings.

The vCPU of a shared host runs the same Python code at two speeds about a
factor of 2 apart, switching many times a second, and the share of fast
time drifts for minutes; process CPU time follows wall time.  So the
medians of a run drift with the machine, not with the program.  A run
therefore also times a fixed calibration loop after its operations and
rounds (never inside one), for SHARE of its time, and each end-to-end
time is scaled by

    REFERENCE_MS / (mean loop time of the samples within WINDOW of it)

that is, reported in milliseconds of a machine on which one calibration
loop takes REFERENCE_MS.  The loop does what crosscut does (method calls
on small objects, list and set work, integer shifts for dyadics, Fraction
arithmetic, string formatting and parsing) and no crosscut code, so a
change to the program moves the scaled times and a change of machine speed
moves the loop with the program.  The raw loop time of a run is the
per-layer metric machine.calib_ms.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# one calibration loop at the usual speed of a 2-vCPU Xeon VM, Python 3.11
REFERENCE_MS = 2.2
# loops per sample (the sample is their median)
LOOPS = 3
# a time is scaled by the mean of the samples within WINDOW seconds of it
# (the NEAREST samples if there are none)
WINDOW = 8.0
NEAREST = 9
# least share of a run's time spent calibrating
SHARE = 0.05


class _Dy:
    __slots__ = ("num", "exp")

    def __init__(self, num, exp):
        self.num, self.exp = num, exp

    def add(self, other):
        if self.exp >= other.exp:
            return _Dy(self.num + (other.num << (self.exp - other.exp)), self.exp)
        return _Dy((self.num << (other.exp - self.exp)) + other.num, other.exp)

    def lt(self, other):
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp) < other.num << (e - other.exp)


def loop() -> tuple:
    """A fixed amount of crosscut-like work; returns its fixed result."""
    side = 16
    grid = [[(i * 7 + j * 3) % 17 for j in range(side)] for i in range(side)]
    skip = set(range(0, side, 5))
    acc, best, moved = _Dy(0, 0), _Dy(0, 0), 0
    for band in range(side):
        row = grid[band]
        for c in range(side):
            if c in skip:
                continue
            a, b = row[c], row[side - 1 - c]
            moved += abs(a - b)
            cell = _Dy(a * 3 + b, 4 + (c & 3))
            acc = acc.add(cell)
            if best.lt(cell):
                best = cell
        row.sort()
    q = Fraction(0)
    for i in range(1, 160):
        q += Fraction(moved % i + 1, 3 * i + 1) * Fraction(2 * i + 1, 5 * i + 3)
    text = "\n".join(",".join(str(v) for v in row) for row in grid)
    back = [[int(t) for t in line.split(",")] for line in text.splitlines()]
    return moved, acc.num, acc.exp, best.num, q, back == grid


class Speed:
    """Calibration samples of one run, (time, ms per loop), in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []
        self.spent = 0.0
        self.expected = None
        self.start = perf_counter()

    def begin(self) -> None:
        """Start the clock of keep_up and take a first sample."""
        self.start = perf_counter()
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        laps = []
        for _ in range(LOOPS):
            a = perf_counter()
            result = loop()
            laps.append(perf_counter() - a)
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            raise RuntimeError("calibration loop changed its result")
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.ms.append(statistics.median(laps) * 1000.0)
        self.spent += t1 - t0

    def keep_up(self) -> None:
        """Sample until calibration is SHARE of the time since begin()."""
        while self.spent < SHARE * (perf_counter() - self.start):
            self.sample()

    def scale_at(self, t: float) -> float:
        """REFERENCE_MS over the mean of the samples near t."""
        lo = bisect.bisect_left(self.times, t - WINDOW)
        hi = bisect.bisect_right(self.times, t + WINDOW)
        if hi - lo == 0:
            k = min(NEAREST, len(self.ms))
            lo = min(max(lo - k // 2, 0), len(self.ms) - k)
            hi = lo + k
        return REFERENCE_MS / statistics.fmean(self.ms[lo:hi])

    def raw_ms(self) -> float:
        return statistics.fmean(self.ms)
