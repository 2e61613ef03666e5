"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by a quarter or
more over minutes.  ``Calibrator`` times a fixed piece of work that uses
none of the library's code, in the same process as the measured stages and
between them, so that a time can be rescaled to a machine of fixed speed:
``reference_s(t, cal) = t * REFERENCE_CAL_S / cal``.  A change to
``roughcayley`` cannot move the calibration; a change of host speed moves
both alike.  The work mixes what the library spends its time on:
breadth-first search over adjacency lists, tuple hashing in a dict, float
arithmetic, sorting, small numpy calls and one array sort larger than
the first-level cache.  Its state (about 4 MB) is allocated once, before
the first stage, so it is a fixed part of the pass's peak memory.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median calibration time on the machine the bounds were measured on
# (2-core shared virtual machine); only the scale of reported times
# depends on it, not their spread
REFERENCE_CAL_S = 0.022

_GRID = 50           # the grid is [-_GRID, _GRID]^2
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_ARRAY = 1 << 16     # int64 elements sorted per run


class _Work:
    """The fixed work.  All its state is allocated once, up front, and a run
    allocates nothing beyond a few small lists, so running it between stages
    adds nothing to the pass's peak memory and does not change when the
    garbage collector runs during the stages."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = [(x, y) for x in range(-_GRID, _GRID + 1)
                       for y in range(-_GRID, _GRID + 1)]
        self.index = {p: i for i, p in enumerate(self.points)}
        self.neighbors = [
            [self.index[q] for q in ((x + dx, y + dy) for dx, dy in _STEPS)
             if q in self.index]
            for x, y in self.points]
        self.depth = [-1] * len(self.points)
        self.unset = [-1] * len(self.points)
        self.shuffled = [self.points[i]
                         for i in rng.permutation(len(self.points))]
        self.scratch = list(self.shuffled)
        self.array = rng.integers(0, 1 << 40, size=_ARRAY)
        self.buffer = np.empty_like(self.array)
        self.small = self.array[:4096] % 4096
        self.small_buffer = np.empty_like(self.small)

    def __call__(self):
        # breadth-first search on a grid graph
        depth, neighbors = self.depth, self.neighbors
        depth[:] = self.unset
        start = self.index[(0, 0)]
        depth[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                d = depth[i] + 1
                for j in neighbors[i]:
                    if depth[j] < 0:
                        depth[j] = d
                        nxt.append(j)
            frontier = nxt
        # tuple hashing in a dict, sorting tuples, float arithmetic
        index = self.index
        acc = 0.0
        for p in self.shuffled:
            acc += index[p]
        self.scratch[:] = self.shuffled
        self.scratch.sort()
        for x, y in self.scratch:
            acc += math.log1p(x * x + y * y) - math.sqrt(abs(x * y))
        # small numpy calls, as in the library's packed engines
        for _ in range(40):
            np.copyto(self.small_buffer, self.small)
            self.small_buffer.sort()
            acc += float(self.small_buffer[-1])
        # an array sort larger than the first-level cache
        np.copyto(self.buffer, self.array)
        self.buffer.sort()
        return acc


class Calibrator:
    """Samples the host's speed before the first stage and after each stage.

    A sample follows every stage rather than a clock, so every pass makes
    the same allocations in the same order and its peak memory does not
    depend on timing.  ``seconds`` weights each sample by the time around
    it (the trapezoid rule), so a long stage counts by its length, through
    the samples taken just before and just after it.
    """

    def __init__(self):
        self.samples = []   # (end time, seconds)
        self._work = _Work()
        self._work()   # warm-up, not sampled

    def sample(self):
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    @property
    def seconds(self):
        """Time-weighted mean seconds of one run of the fixed work."""
        ends = [t for t, _ in self.samples]
        last = len(ends) - 1
        weights = [ends[min(i + 1, last)] - ends[max(i - 1, 0)]
                   for i in range(len(ends))]
        return (sum(w * c for w, (_, c) in zip(weights, self.samples))
                / sum(weights))


def reference_s(seconds, cal_s):
    """``seconds`` measured at calibration ``cal_s``, on the reference host."""
    return seconds * REFERENCE_CAL_S / cal_s
