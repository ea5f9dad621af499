"""A-MSG — Merging crust-mantle and inner-core halo messages (Section 1).

Paper: "reduction of MPI messages by 33% inside each chunk by handling
crust mantle and inner core simultaneously" — the two solid regions'
halo contributions to each neighbour travel in one message instead of
two, so per step each rank sends 2 message groups (fluid + combined
solid) instead of 3: exactly one third fewer.

Production runs always merge; this benchmark is the only runner of the
per-region rounds, injected by clearing ``HaloExchanger.merge_regions``
on the class for the legacy run.
"""

import numpy as np

from repro.parallel import run_distributed_simulation
from repro.parallel.halo import HaloExchanger

from conftest import demo_source, demo_stations, small_params

N_STEPS = 6


def test_message_merging(benchmark, record, monkeypatch):
    params = small_params(nex=4, nproc=1, nstep_override=N_STEPS)
    source, stations = demo_source(), demo_stations()

    def run(merge):
        with monkeypatch.context() as patch:
            patch.setattr(HaloExchanger, "merge_regions", merge)
            return run_distributed_simulation(
                params, sources=[source], stations=stations, n_steps=N_STEPS,
            )

    def run_both():
        return run(False), run(True)

    legacy, merged = benchmark.pedantic(run_both, rounds=1, iterations=1)

    msgs_legacy = sum(s.messages_sent for s in legacy.comm_stats)
    msgs_merged = sum(s.messages_sent for s in merged.comm_stats)
    reduction = 1.0 - msgs_merged / msgs_legacy
    # Three per-region exchanges -> fluid + combined-solid: the solid share
    # halves, i.e. roughly one third of all messages disappears.  Setup
    # messages (mass assembly, collectives) dilute the exact ratio.
    assert 0.15 < reduction < 0.45, f"message reduction {reduction:.1%}"

    # The physics is identical to roundoff.
    assert merged.seismograms is not None
    scale = max(np.abs(legacy.seismograms).max(), 1e-300)
    np.testing.assert_allclose(
        merged.seismograms / scale, legacy.seismograms / scale, atol=1e-12
    )

    record(
        messages_per_region_exchange=msgs_legacy,
        messages_combined=msgs_merged,
        reduction_pct=round(100 * reduction, 1),
        paper="reduction of MPI messages by 33% inside each chunk by "
              "handling crust mantle and inner core simultaneously",
    )
