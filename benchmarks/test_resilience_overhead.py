"""RESIL-OVH — Failure-detector overhead guard on the distributed run.

The resilience subsystem's economic claim is that *watching* for rank
death is nearly free: heartbeats are single timestamp writes piggybacked
on communicator traffic, and a receive marks its rank as waiting with
one more; only an expired receive deadline asks the detector anything.
This guard runs the same distributed simulation with the detector
disarmed (``failure_detector=None`` — the default, one ``is None`` check
per communicator operation) and armed (a
:class:`~repro.resilience.detector.FailureDetector` every rank's
communicator beats), and asserts the armed run stays within 3% of the
disarmed one.

Runs are interleaved A/B/A/B and scored min-of-repeats, which suppresses
thermal drift and scheduler noise: the minimum is the cleanest estimate
of each variant's true cost.
"""

import time

import numpy as np

from repro.parallel.comm import VirtualCluster
from repro.parallel.launcher import run_distributed_simulation
from repro.resilience import FailureDetector

from conftest import demo_source, demo_stations, small_params

OVERHEAD_LIMIT = 0.03
REPEATS = 5
N_STEPS = 12


def _run(detector=None):
    return run_distributed_simulation(
        small_params(nstep_override=N_STEPS),
        sources=[demo_source()],
        stations=[demo_stations()[0]],
        timeout_s=120,
        failure_detector=detector,
    )


def test_detector_overhead_under_3pct(record):
    # Warm both paths (mesh/JIT/allocator) before timing either.
    baseline = _run()
    armed = _run(FailureDetector(6))
    assert np.array_equal(baseline.seismograms, armed.seismograms)

    t_off = float("inf")
    t_on = float("inf")
    for _ in range(REPEATS):  # interleaved A/B: drift hits both equally
        t0 = time.perf_counter()
        _run()
        t_off = min(t_off, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run(FailureDetector(6))
        t_on = min(t_on, time.perf_counter() - t0)

    overhead = t_on / t_off - 1.0
    record(
        disarmed_s=t_off,
        armed_s=t_on,
        overhead_pct=round(100.0 * overhead, 3),
        limit_pct=100.0 * OVERHEAD_LIMIT,
        n_steps=N_STEPS,
        world_size=6,
    )
    assert np.isfinite(overhead)
    assert overhead < OVERHEAD_LIMIT, (
        f"armed-detector overhead {100 * overhead:.2f}% exceeds "
        f"{100 * OVERHEAD_LIMIT:.0f}%"
    )


def test_disarmed_cluster_allocates_no_wrapper():
    # The disarmed default must be the plain pre-resilience path: no
    # detector object for any communicator to beat.
    cluster = VirtualCluster(2)
    assert cluster.failure_detector is None
