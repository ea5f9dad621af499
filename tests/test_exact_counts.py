"""The exact counts of the benchmark's six-rank event, pinned.

Message, byte and flop counts do not suffer host noise, so they are
checked for equality, not against a bound: a set-up or kernel change
that moves the traffic of a time step (another halo round, a wider
message, a region exchanged twice) or the flops of the force kernel
fails here instead of drifting through the ledger unnoticed.

The problem is the ledger's: NEX 8, one slice per chunk (six ranks),
two crust/mantle layers and one in each core, attenuation on.  A
per-step count is the traffic of a 3-step run minus that of a 1-step
run over the same world, divided by 2, so the set-up traffic (mass
assembly, allreduces, the final gather) cancels.
"""

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.kernels.flops import elastic_kernel_flops
from repro.mesh import build_global_mesh
from repro.model.prem import RegionCode
from repro.parallel import run_distributed_simulation
from repro.parallel.launcher import prepare_world
from repro.solver import MomentTensorSource, Station, gaussian_stf

#: Messages and bytes every time step sends, summed over the six ranks.
MESSAGES_PER_STEP = 50
BYTES_PER_STEP = 552_816
#: Flops of one elastic force evaluation over the crust/mantle's 768
#: elements (``kernels.flops_per_step`` of the ledger).
ELASTIC_FLOPS_768 = 28_992_000

PARAMS = SimulationParameters(
    nex_xi=8, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
    ner_inner_core=1, attenuation=True,
)


def source():
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 150.0),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=3.0,
    )


def per_step_counts(overlap: bool) -> tuple[float, float]:
    world = prepare_world(
        PARAMS, sources=[source()],
        stations=[Station("POLE", (0.0, 0.0, constants.R_EARTH_KM))],
        overlap=overlap,
    )
    one, three = (
        run_distributed_simulation(PARAMS, n_steps=n, world=world)
        for n in (1, 3)
    )
    messages, nbytes = (
        sum(getattr(s, field) for s in three.comm_stats)
        - sum(getattr(s, field) for s in one.comm_stats)
        for field in ("messages_sent", "bytes_sent")
    )
    return messages / 2, nbytes / 2


@pytest.mark.parametrize("overlap", [True, False], ids=["overlapped", "blocking"])
def test_halo_traffic_per_step(overlap):
    assert per_step_counts(overlap) == (MESSAGES_PER_STEP, BYTES_PER_STEP)


def test_elastic_kernel_flops():
    nspec = build_global_mesh(PARAMS).regions[RegionCode.CRUST_MANTLE].nspec
    assert nspec == 768
    assert elastic_kernel_flops(nspec) == ELASTIC_FLOPS_768
