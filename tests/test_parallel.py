"""Tests for the virtual MPI layer, halo assembly, and distributed runs."""

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.cubed_sphere.topology import SliceGrid
from repro.mesh import build_global_mesh, build_slice_mesh
from repro.parallel import (
    HaloExchanger,
    VirtualCluster,
    build_halos,
    run_distributed_simulation,
)
from repro.solver import GlobalSolver, MomentTensorSource, Station, gaussian_stf


class TestVirtualCluster:
    def test_point_to_point(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(5.0))
                return None
            if comm.rank == 1:
                return comm.recv(0)
            return None

        cluster = VirtualCluster(3)
        results = cluster.run(program)
        np.testing.assert_array_equal(results[1], np.arange(5.0))
        assert cluster.stats[0].messages_sent == 1
        assert cluster.stats[0].bytes_sent == 40
        assert cluster.stats[1].messages_received == 1

    def test_messages_are_copies(self):
        def program(comm):
            if comm.rank == 0:
                data = np.ones(3)
                comm.send(1, data)
                data[:] = 99.0  # must not affect the receiver
                comm.barrier()
                return None
            received = comm.recv(0)
            comm.barrier()
            return received.copy()

        results = VirtualCluster(2).run(program)
        np.testing.assert_array_equal(results[1], np.ones(3))

    def test_tag_matching_out_of_order(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, np.array([1.0]), tag=7)
                comm.send(1, np.array([2.0]), tag=8)
                return None
            second = comm.recv(0, tag=8)
            first = comm.recv(0, tag=7)
            return (first[0], second[0])

        results = VirtualCluster(2).run(program)
        assert results[1] == (1.0, 2.0)

    def test_allreduce_ops(self):
        def program(comm):
            r = float(comm.rank + 1)
            return (
                comm.allreduce(r, op="sum"),
                comm.allreduce(r, op="min"),
                comm.allreduce(r, op="max"),
            )

        for result in VirtualCluster(4).run(program):
            assert result == (10.0, 1.0, 4.0)

    def test_allreduce_arrays(self):
        def program(comm):
            return comm.allreduce(np.full(3, float(comm.rank)), op="sum")

        for result in VirtualCluster(3).run(program):
            np.testing.assert_array_equal(result, [3.0, 3.0, 3.0])

    def test_repeated_allreduce_race_free(self):
        def program(comm):
            total = 0.0
            for i in range(50):
                total += comm.allreduce(float(comm.rank + i), op="sum")
            return total

        expected = sum(sum(r + i for r in range(4)) for i in range(50))
        for result in VirtualCluster(4).run(program):
            assert result == expected

    def test_gather(self):
        def program(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = VirtualCluster(3).run(program)
        assert results[0] == [0, 10, 20]
        assert results[1] is None

    def test_exception_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 died"):
            VirtualCluster(2).run(program)

    def test_self_send_rejected(self):
        def program(comm):
            comm.send(comm.rank, np.zeros(1))

        with pytest.raises(ValueError):
            VirtualCluster(1).run(program)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)


@pytest.fixture(scope="module")
def small_params():
    return SimulationParameters(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=2,
        ner_inner_core=1, nstep_override=20,
    )


@pytest.fixture(scope="module")
def slices(small_params):
    grid = SliceGrid(small_params.nproc_xi)
    return [
        build_slice_mesh(small_params, grid.address_of(r))
        for r in range(grid.nproc_total)
    ]


@pytest.fixture(scope="module")
def halos(slices):
    return build_halos(slices)


class TestHalos:
    def test_every_rank_has_neighbors(self, halos):
        for rank, regions in halos.items():
            total = sum(h.n_neighbors for h in regions.values())
            assert total > 0, f"rank {rank} has no halo at all"

    def test_exchange_lists_symmetric(self, halos):
        for rank, regions in halos.items():
            for region, halo in regions.items():
                for nbr, ids in halo.neighbors.items():
                    other = halos[nbr][region].neighbors.get(rank)
                    assert other is not None
                    assert other.size == ids.size

    def test_chunk_neighbors_share_face_points(self, halos, slices, small_params):
        # Each chunk borders 4 others; with nproc_xi=1, rank r's crust-
        # mantle halo must connect to exactly 4 neighbors... plus corner-
        # sharing: chunks meeting only at cube corners share edge points.
        from repro.model.prem import RegionCode

        for rank in range(6):
            halo = halos[rank][RegionCode.CRUST_MANTLE]
            assert halo.n_neighbors >= 4

    def test_assembled_mass_matches_merged_mesh(
        self, slices, halos, small_params
    ):
        """Halo assembly of a constant-1 field counts point multiplicity:
        total over ranks of (assembled at unique points)... cross-check the
        strongest invariant: assembled solid mass summed over distinct
        points equals the merged mesh's total mass."""
        from repro.gll import GLLBasis
        from repro.kernels import compute_geometry
        from repro.model.prem import RegionCode
        from repro.solver.assembly import assemble_mass_matrix

        region = RegionCode.CRUST_MANTLE

        def program(comm):
            sl = slices[comm.rank]
            mesh = sl.regions[region]
            geom = compute_geometry(mesh.xyz * 1000.0, GLLBasis(5))
            mass = assemble_mass_matrix(mesh.rho, geom, mesh.ibool, mesh.nglob)
            local_total = float(mass.sum())  # before halo: no double count
            HaloExchanger(comm, halos[comm.rank]).assemble({region: mass})
            assert np.all(mass > 0)
            return local_total

        cluster = VirtualCluster(6)
        totals = cluster.run(program)
        merged = build_global_mesh(small_params)
        rmesh = merged.regions[region]
        geom = compute_geometry(rmesh.xyz * 1000.0, GLLBasis(5))
        merged_mass = assemble_mass_matrix(
            rmesh.rho, geom, rmesh.ibool, rmesh.nglob
        )
        assert sum(totals) == pytest.approx(float(merged_mass.sum()), rel=1e-10)


class TestDistributedVsSerial:
    """The headline correctness test: 6-rank run == serial merged run."""

    @pytest.fixture(scope="class")
    def scenario(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=2,
            ner_inner_core=1, nstep_override=25,
        )
        r = constants.R_EARTH_KM
        source = MomentTensorSource(
            position=(0.0, 0.0, r - 200.0),
            moment=1e20 * np.eye(3),
            stf=gaussian_stf(10.0),
            time_shift=5.0,
        )
        stations = [
            Station("POLE", (0.0, 0.0, r)),
            Station("EQ", (r, 0.0, 0.0)),
        ]
        return params, source, stations

    def test_seismograms_match_serial(self, scenario):
        params, source, stations = scenario
        dist = run_distributed_simulation(
            params, sources=[source], stations=stations
        )
        merged = build_global_mesh(params)
        serial_solver = GlobalSolver(
            merged, params, sources=[source], stations=stations,
            dt_override=dist.dt,
        )
        serial = serial_solver.run(n_steps=dist.n_steps)
        assert dist.seismograms is not None
        scale = max(np.abs(serial.seismograms).max(), 1e-300)
        for i, name in enumerate(dist.station_names):
            expected = serial.receivers.seismogram(name)
            np.testing.assert_allclose(
                dist.seismograms[i] / scale,
                expected / scale,
                atol=1e-6,
                err_msg=f"station {name} differs between serial and parallel",
            )

    def test_comm_stats_populated(self, scenario):
        params, source, stations = scenario
        dist = run_distributed_simulation(
            params, sources=[source], stations=stations, n_steps=5
        )
        assert len(dist.comm_stats) == 6
        assert dist.total_bytes_sent > 0
        assert dist.total_comm_time_s >= 0
        # Every rank communicates every step (halo on 3 regions).
        for s in dist.comm_stats:
            assert s.messages_sent > 0

    def test_load_balance_near_perfect(self, scenario):
        params, source, stations = scenario
        dist = run_distributed_simulation(params, n_steps=3)
        counts = np.asarray(dist.rank_elements, dtype=float)
        # The polar chunks carry the split central cube: imbalance equals
        # the cube share, and the split keeps it moderate.
        assert counts.max() / counts.mean() - 1.0 < 0.6
