"""Machine-speed gauge: a fixed kernel timed between the workload's calls.

The benchmark runs on shared machines whose speed drifts by tens of per
cent over seconds (other tenants, clock changes), which moves every timing
by the same factor. Between calls, the workloads let the gauge time a
fixed kernel that does not touch ``illume``: pure-Python arithmetic, a walk
through a few megabytes of linked objects (so that cache contention from
other tenants shows), small NumPy calls and one batched Hermitian
eigen-solve, the mix the library itself spends its time in. Each pass's
timings are then scaled by ``NOMINAL_NS / mean(kernel time during the
pass)``, i.e. reported in seconds at the speed where the kernel takes
``NOMINAL_NS``. The mean, not the median: kernel times switch between a
fast and a slow mode, and the workload runs through both in the
proportion the mean weights them by. ``setup_s`` gets one factor for the
whole set-up phase. The raw times and the factors are kept in the report.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_NS = 6_400_000   # the kernel's median time on a 2-core x86-64 VM, Python 3.11, NumPy 2.4
INTERVAL_NS = 300_000_000
BURST = 4

_rng = np.random.default_rng(12345)
_small = _rng.standard_normal((8, 3, 3))
_small = _small + _small.transpose(0, 2, 1)
_mid = _rng.standard_normal((32, 16, 16)) + 1j * _rng.standard_normal((32, 16, 16))
_mid = _mid + _mid.conj().transpose(0, 2, 1)


class _Node:
    __slots__ = ("value", "next")


_nodes = [_Node() for _ in range(100_000)]
for _i, _j in enumerate(_rng.permutation(len(_nodes))):
    _nodes[_i].value = float(_i)
    _nodes[_i].next = _nodes[_j]


def kernel() -> float:
    s = 0.0
    for i in range(20000):
        s += i * i % 7
    node = _nodes[0]
    for _ in range(15000):
        s += node.value
        node = node.next
    for _ in range(100):
        np.linalg.eigvalsh(_small).sum()
        np.abs(_small).max()
    np.linalg.eigvalsh(_mid)
    return s


class SpeedGauge:
    def __init__(self):
        self.samples: list[int] = []
        self._last = 0
        self._pass_start = 0

    def sample(self) -> None:
        gc.disable()  # a collection of the workload's garbage is not machine speed
        try:
            for _ in range(BURST):
                t0 = time.perf_counter_ns()
                kernel()
                self.samples.append(time.perf_counter_ns() - t0)
        finally:
            gc.enable()
        self._last = time.perf_counter_ns()

    def tick(self) -> None:
        """Call between two timed calls; samples when ``INTERVAL_NS`` has passed."""
        if time.perf_counter_ns() - self._last >= INTERVAL_NS:
            self.sample()

    def begin(self) -> None:
        self._pass_start = len(self.samples)
        self.sample()

    def end(self) -> float:
        """Scale factor for the timings made since :meth:`begin`."""
        self.sample()
        return NOMINAL_NS / statistics.fmean(self.samples[self._pass_start:])
