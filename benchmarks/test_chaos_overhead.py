"""CHAOS-OVH — Sentinel + checksum overhead guard on the solver loop.

The chaos subsystem promises that its *always-on* detection half is
nearly free: the health sentinel costs one max-abs scan per region every
``check_every`` steps, and the checkpoint CRC32 map costs one pass over
the state arrays per segment.  This guard times one full check interval
of the time loop bare and with both detection costs added — one
sentinel check **plus** one full checksum of the checkpoint-sized state
(far more often than the real per-segment cadence) — and asserts the
overhead stays under 3% of solver wall time.

Fault injection itself costs nothing here: with no fault plan attached,
a communicator operation pays one ``fault_plan is None`` check and the
solver loop is byte-for-byte the undisturbed code path — the
drill-disabled default.

Timing is min-of-repeats on whole check intervals, the cleanest
estimate of each variant's true cost.
"""

import time

import numpy as np

from repro.chaos import HealthSentinel
from repro.chaos.integrity import array_checksums
from repro.solver import GlobalSolver

from conftest import demo_source, demo_stations, small_params

OVERHEAD_LIMIT = 0.03
CHECK_EVERY = 25  # the sentinel's default cadence
REPEATS = 5


def _build_solver():
    from repro.mesh import build_global_mesh

    params = small_params(nstep_override=CHECK_EVERY)
    mesh = build_global_mesh(params)
    return GlobalSolver(
        mesh, params, sources=[demo_source()], stations=demo_stations()
    )


def _state_arrays(solver):
    """The array set a checkpoint fingerprints: the solver's declared
    dynamic state (fields, attenuation memory, seismogram buffers)."""
    return {state.name: state.array for state in solver.dynamic_state()}


def test_sentinel_and_checksum_overhead_under_3pct(record):
    solver = _build_solver()
    sentinel = HealthSentinel(check_every=CHECK_EVERY)
    step_clock = {"n": 0}

    def march_interval():
        for _ in range(CHECK_EVERY):
            solver._one_step(step_clock["n"] * solver.dt)
            step_clock["n"] += 1

    def guarded_interval():
        march_interval()
        sentinel.check(solver, step_clock["n"] - 1)
        # One full state fingerprint per interval — stricter than the
        # real cadence of one checksum per checkpoint *segment*.
        array_checksums(_state_arrays(solver))

    def best(fn):
        t_best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best

    # Warm up caches and the allocator before timing either variant.
    march_interval()
    guarded_interval()
    t_bare = best(march_interval)
    t_guarded = best(guarded_interval)
    overhead = t_guarded / t_bare - 1.0

    state_bytes = sum(a.nbytes for a in _state_arrays(solver).values())
    record(
        bare_s_per_interval=t_bare,
        guarded_s_per_interval=t_guarded,
        overhead_pct=round(100.0 * overhead, 3),
        limit_pct=100.0 * OVERHEAD_LIMIT,
        check_every=CHECK_EVERY,
        state_mb=round(state_bytes / 1e6, 3),
        sentinel_checks=sentinel.checks,
    )
    assert np.isfinite(overhead)
    assert overhead < OVERHEAD_LIMIT, (
        f"sentinel+checksum overhead {100 * overhead:.2f}% exceeds "
        f"{100 * OVERHEAD_LIMIT:.0f}%"
    )
