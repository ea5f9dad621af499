"""Outside probes: machine calibration and small timed calls into one layer.

The machine probes use numpy only and run before and after each workload in
the same interpreter; they qualify the other numbers (a slow host is told
apart from a slow program) and move no end-to-end metric.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable

import numpy as np

#: Doubles per triad array: 3 arrays x 16 MiB.  That is 4x this box's 4 MiB L2
#: but not 4x its (shared, 260 MiB) L3, which one interpreter cannot claim
#: without the probe itself setting `peak_rss_mb`; the figure mixes cache and
#: memory and is used only as a same-machine reference.
TRIAD_DOUBLES = 2 * 1024 * 1024


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Seconds of the fastest of `repeats` calls, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def triad_gbps() -> float:
    """STREAM-triad bandwidth, best of 10 (two passes: 4 reads + 2 writes)."""
    b = np.ones(TRIAD_DOUBLES)
    c = np.ones(TRIAD_DOUBLES)
    a = np.empty(TRIAD_DOUBLES)

    def triad() -> None:
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    return 6 * 8 * TRIAD_DOUBLES / best_of(triad, 10) / 1e9


# The mesher/solver contraction shape: a 5x5 derivative matrix applied along
# one axis of (elements, 5, 5, 5, 3) blocks.
_H = np.linspace(0.0, 1.0, 25).reshape(5, 5)
_U = np.ones((512, 5, 5, 5, 3))


def einsum_gflops() -> float:
    """Rate of a kernel-shaped einsum, best of 20 (about 15 ms in all)."""
    seconds = best_of(lambda: np.einsum("il,eljkc->eijkc", _H, _U), 20)
    return 2 * 5 * _U.size / seconds / 1e9


def drift(samples: list[float]) -> float:
    """How far the best calibration rate of the run's second half is from that
    of its first half.  The host slows in bursts of seconds, which single
    probes catch or miss by luck; the best of several spread over each half
    tells a machine that changed from one that only hiccuped."""
    half = len(samples) // 2
    first, second = max(samples[:half]), max(samples[half:])
    return abs(second - first) / max(first, second)


def alloc_peak_mb(fn: Callable[[], object]) -> float:
    """Peak of Python-visible allocations (numpy included) during `fn`."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20
