"""Machine-speed gauges: end-to-end times corrected for the host's speed.

On a small shared host the same code runs up to about twice as fast at one
moment as at the next: the vCPUs switch between speed states every fraction
of a second, and the share of time spent in the slow state drifts from
minute to minute.  Raw wall times of two runs of the same code then differ
by more than any useful regression bound.

A gauge times a fixed reference routine, which is the benchmark's own code
and calls nothing in ``seriesinv``, at short intervals between ops.  An op's
corrected time is its wall time scaled by the routine's nominal time over
the median reading around the op: seconds on a machine that runs the
reference in its nominal time.  A change to the package moves the op times
and not the reference, so it moves the corrected times as it moves the wall
times; a change in the host's speed moves both, and cancels.

Which reference tracks an op depends on what the op spends its time on, so
there are two, and each op kind names its own (``Workload.gauges``):

* ``python``: for ops dominated by Python-level work, the geometric mean of
  a pure interpreter loop and a loop of 6x6 numpy calls, each nominally
  1 ms.  Either alone follows these ops less well.  The interpreter loop
  holds its ratio to the ops within a few per cent between quiet and busy
  periods of the host, but at a given moment slows less than they do; the
  numpy loop follows them closely second to second, but its ratio to them
  drifts by a fifth between those periods.
* ``blas``: one 512x512 GEMM, nominally 5 ms, for the ops dominated by
  GEMMs of that size.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Read the gauges when this much time has passed since the last reading.
INTERVAL_S = 0.1
# An op is scaled by the median of the readings this close to its midpoint.
WINDOW_S = 0.5

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((6, 6))
_EYE = np.eye(6)
_BIG = _rng.standard_normal((512, 512))


def _interpreter_loop() -> int:
    total = 0
    for i in range(10_000):
        total += i * i
    return total


def _numpy_loop() -> None:
    x = _SMALL
    for _ in range(60):
        y = x @ _SMALL
        x = y / np.linalg.norm(y)
        float(np.linalg.norm(_EYE - x))


def _blas_routine() -> None:
    _BIG @ _BIG


# name -> (routines, runs of each per reading, nominal seconds of a reading).
# A reading is the geometric mean over the routines of each one's median run.
REFERENCES = {
    "python": ((_interpreter_loop, _numpy_loop), 3, 1.0e-3),
    "blas": ((_blas_routine,), 1, 5.0e-3),
}


def _median_run(routine, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        routine()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def read_once(name: str) -> float:
    """Seconds one reading of reference ``name`` takes now."""
    routines, runs, _ = REFERENCES[name]
    return statistics.geometric_mean([_median_run(r, runs) for r in routines])


class Gauge:
    """Readings of one reference, each with the time it was taken."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nominal_s = REFERENCES[name][2]
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.read()

    def read(self) -> None:
        self.seconds.append(read_once(self.name))
        self.at.append(time.perf_counter())

    def local(self, start: float, end: float) -> float:
        """Median reading within ``WINDOW_S`` of the middle of
        ``[start, end]``, or, if none is that close, of the readings just
        before ``start`` and just after ``end``."""
        mid = 0.5 * (start + end)
        lo = bisect.bisect_left(self.at, mid - WINDOW_S)
        hi = bisect.bisect_right(self.at, mid + WINDOW_S)
        if hi > lo:
            return statistics.median(self.seconds[lo:hi])
        before = max(0, bisect.bisect_right(self.at, start) - 1)
        after = min(len(self.at) - 1, bisect.bisect_left(self.at, end))
        return 0.5 * (self.seconds[before] + self.seconds[after])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time over ``[start, end]`` into seconds
        on the reference machine."""
        return self.nominal_s / self.local(start, end)

    def recent_scale(self, readings: int) -> float:
        """The same factor from the median of the last ``readings``."""
        return self.nominal_s / statistics.median(self.seconds[-readings:])


class Gauges:
    """The gauges a workload uses, read together."""

    def __init__(self, names) -> None:
        self.by_name = {name: Gauge(name) for name in sorted(set(names))}
        self.last = time.perf_counter()

    def __getitem__(self, name: str) -> Gauge:
        return self.by_name[name]

    def read(self) -> None:
        for gauge in self.by_name.values():
            gauge.read()
        self.last = time.perf_counter()

    def maybe_read(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.read()
