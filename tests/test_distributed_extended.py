"""Extended distributed-run coverage: 24 ranks, physics switches, message
merging equivalence."""

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.parallel import run_distributed_simulation
from repro.solver import MomentTensorSource, Station, gaussian_stf


def source():
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 250.0),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=5.0,
    )


def stations():
    r = constants.R_EARTH_KM
    return [Station("POLE", (0.0, 0.0, r)), Station("EQ", (r, 0.0, 0.0))]


class TestMessageMergingEquivalence:
    def test_combined_messages_identical_physics(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, nstep_override=12,
        )
        merged = run_distributed_simulation(
            params, sources=[source()], stations=stations(),
            combine_solid_messages=True,
        )
        separate = run_distributed_simulation(
            params, sources=[source()], stations=stations(),
            combine_solid_messages=False,
        )
        np.testing.assert_array_equal(merged.seismograms, separate.seismograms)
        msgs_m = sum(s.messages_sent for s in merged.comm_stats)
        msgs_s = sum(s.messages_sent for s in separate.comm_stats)
        assert msgs_m < msgs_s


class TestScheduleTimesMerging:
    """The halo schedule and the solid-message merging are independent
    switches: neither changes the physics, and the message counts depend
    on the merging alone."""

    @pytest.fixture(scope="class")
    def params(self):
        return SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, attenuation=True,
        )

    def test_merging_is_honoured_under_both_schedules(self, params):
        from repro.model.prem import RegionCode
        from repro.parallel.launcher import prepare_world

        steps = 6
        seismograms = {}
        per_step = {}
        for overlap in (False, True):
            world = prepare_world(
                params, sources=[source()], stations=stations(),
                overlap=overlap,
            )
            for merge in (True, False):
                one, full = (
                    run_distributed_simulation(
                        params, n_steps=n, world=world,
                        combine_solid_messages=merge,
                    )
                    for n in (1, steps)
                )
                seismograms[overlap, merge] = full.seismograms
                # Set-up traffic (mass assembly, allreduces) cancels.
                per_step[overlap, merge] = [
                    (
                        (f.messages_sent - o.messages_sent) / (steps - 1),
                        (f.bytes_sent - o.bytes_sent) / (steps - 1),
                    )
                    for f, o in zip(full.comm_stats, one.comm_stats)
                ]
        reference = seismograms[False, True]
        assert np.max(np.abs(reference)) > 0
        for key, data in seismograms.items():
            np.testing.assert_array_equal(data, reference, err_msg=str(key))
        for merge in (True, False):
            assert per_step[False, merge] == per_step[True, merge]
        # Unmerged, a neighbour sharing BOTH solid regions with this rank
        # gets two messages where the merged round sends one.
        for rank, halos in world.halos.items():
            both = set(halos[RegionCode.CRUST_MANTLE].neighbors) & set(
                halos[RegionCode.INNER_CORE].neighbors
            )
            (msgs_m, bytes_m), (msgs_s, bytes_s) = (
                per_step[True, merge][rank] for merge in (True, False)
            )
            assert len(both) > 0
            assert msgs_s - msgs_m == len(both)
            assert bytes_s == bytes_m

    def test_overlap_disagreeing_with_world_rejected(self, params):
        from repro.parallel.launcher import prepare_world

        world = prepare_world(params, overlap=False)
        with pytest.raises(ValueError, match="overlap"):
            run_distributed_simulation(
                params, n_steps=1, world=world, overlap=True
            )


@pytest.mark.slow
class TestTwentyFourRanks:
    def test_24_rank_run_matches_serial(self):
        """nproc_xi = 2: 24 virtual ranks, cross-chunk + intra-chunk halos,
        split central cube across 8 polar slices — against the merged mesh."""
        from repro.mesh import build_global_mesh
        from repro.solver import GlobalSolver

        params = SimulationParameters(
            nex_xi=4, nproc_xi=2, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, nstep_override=12,
        )
        dist = run_distributed_simulation(
            params, sources=[source()], stations=stations(), timeout_s=900.0
        )
        serial = GlobalSolver(
            build_global_mesh(params), params,
            sources=[source()], stations=stations(),
            dt_override=dist.dt,
        ).run(n_steps=dist.n_steps)
        scale = max(np.abs(serial.seismograms).max(), 1e-300)
        for i, name in enumerate(dist.station_names):
            np.testing.assert_allclose(
                dist.seismograms[i] / scale,
                serial.receivers.seismogram(name) / scale,
                atol=1e-6,
                err_msg=f"station {name}",
            )

    def test_distributed_with_attenuation_and_ti(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, nstep_override=10,
            attenuation=True, transverse_isotropy=True,
        )
        result = run_distributed_simulation(
            params, sources=[source()], stations=stations()
        )
        assert np.all(np.isfinite(result.seismograms))
        assert np.abs(result.seismograms).max() >= 0.0
