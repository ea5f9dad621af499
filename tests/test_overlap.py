"""Tests for comm/compute overlap: non-blocking exchange, element
splitting, and bit-identity of the overlapped time loop.

The contract under test is the one the paper's production runs rely on:
reordering the time step (boundary elements, post, interior elements,
wait) must change *when* communication happens, never *what* is computed.
"""

import time

import numpy as np
import pytest

from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.cubed_sphere.topology import SliceGrid
from repro.mesh import build_slice_mesh, split_elements, split_slice_elements
from repro.parallel import (
    HaloExchanger,
    RankFailedError,
    RankTimeoutError,
    VirtualCluster,
    build_halos,
    run_distributed_simulation,
)
from repro.solver import MomentTensorSource, Station, gaussian_stf


# --------------------------------------------------------------------------
# Non-blocking point-to-point primitives
# --------------------------------------------------------------------------


class TestNonBlocking:
    def test_isend_irecv_roundtrip(self):
        def program(comm):
            if comm.rank == 0:
                req = comm.isend(1, np.arange(4.0), tag=7)
                assert req.done
                return None
            if comm.rank == 1:
                req = comm.irecv(0, tag=7)
                assert not req.done
                data = req.wait()
                assert req.done
                return data
            return None

        cluster = VirtualCluster(2)
        results = cluster.run(program)
        np.testing.assert_array_equal(results[1], np.arange(4.0))

    def test_wait_is_idempotent(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend(1, np.ones(3))
                return None
            req = comm.irecv(0)
            first = req.wait()
            second = req.wait()
            assert first is second
            return comm.stats.messages_received

        cluster = VirtualCluster(2)
        results = cluster.run(program)
        # Double wait must not double-account the receive.
        assert results[1] == 1

    def test_waitall_mixed_requests(self):
        def program(comm):
            peer = 1 - comm.rank
            reqs = [
                comm.isend(peer, np.full(2, float(comm.rank)), tag=3),
                comm.irecv(peer, tag=3),
            ]
            send_result, recv_result = comm.waitall(reqs)
            assert send_result is None
            return recv_result

        cluster = VirtualCluster(2)
        results = cluster.run(program)
        np.testing.assert_array_equal(results[0], np.full(2, 1.0))
        np.testing.assert_array_equal(results[1], np.full(2, 0.0))

    def test_accounting_matches_blocking(self):
        payload = np.arange(6.0)

        def blocking(comm):
            if comm.rank == 0:
                comm.send(1, payload)
            else:
                comm.recv(0)
            return (comm.stats.messages_sent, comm.stats.bytes_sent,
                    comm.stats.messages_received, comm.stats.bytes_received)

        def nonblocking(comm):
            if comm.rank == 0:
                comm.isend(1, payload).wait()
            else:
                comm.irecv(0).wait()
            return (comm.stats.messages_sent, comm.stats.bytes_sent,
                    comm.stats.messages_received, comm.stats.bytes_received)

        assert (VirtualCluster(2).run(blocking)
                == VirtualCluster(2).run(nonblocking))


# --------------------------------------------------------------------------
# Per-receive timeout (typed error, configurable deadline)
# --------------------------------------------------------------------------


class TestRecvTimeout:
    def test_recv_timeout_raises_typed_error(self):
        def program(comm):
            if comm.rank == 1:
                comm.recv(0, timeout=0.05)
            return None

        cluster = VirtualCluster(2)
        with pytest.raises(RankTimeoutError) as excinfo:
            cluster.run(program)
        assert excinfo.value.rank == 1
        # The typed error stays catchable under both base classes.
        assert isinstance(excinfo.value, RankFailedError)
        assert isinstance(excinfo.value, TimeoutError)

    def test_cluster_recv_timeout_configurable(self):
        def program(comm):
            if comm.rank == 1:
                comm.recv(0)  # no explicit timeout: cluster deadline applies
            return None

        cluster = VirtualCluster(2, recv_timeout_s=0.05)
        assert cluster.recv_timeout_s == 0.05
        with pytest.raises(RankTimeoutError):
            cluster.run(program)

    def test_recv_deadline_follows_run_timeout(self):
        # Without an explicit recv_timeout_s the per-receive deadline is the
        # program timeout, so a lost message cannot outlive its run.
        cluster = VirtualCluster(2)
        assert cluster.recv_timeout_s == VirtualCluster.DEFAULT_TIMEOUT_S

        def program(comm):
            return None

        cluster.run(program, timeout=12.5)
        assert cluster.recv_timeout_s == 12.5


# --------------------------------------------------------------------------
# Interior/boundary element splitting
# --------------------------------------------------------------------------


class TestElementSplit:
    def test_split_elements_basic(self):
        # 3 elements in a row sharing corner points; mark the last point of
        # element 2 as a halo point.
        n = constants.NGLLX
        nspec = 3
        ibool = np.arange(nspec * n**3).reshape(nspec, n, n, n)
        halo_ids = np.array([ibool[2].max()])
        split = split_elements(ibool, halo_ids)
        np.testing.assert_array_equal(split.boundary, [2])
        np.testing.assert_array_equal(split.interior, [0, 1])
        assert split.nspec == nspec
        assert split.boundary_fraction == pytest.approx(1 / 3)

    def test_empty_halo_is_all_interior(self):
        n = constants.NGLLX
        ibool = np.arange(2 * n**3).reshape(2, n, n, n)
        split = split_elements(ibool, np.empty(0, dtype=np.int64))
        assert split.boundary.size == 0
        np.testing.assert_array_equal(split.interior, [0, 1])

    @pytest.mark.parametrize("nex,nproc", [(4, 1), (8, 2)])
    def test_partition_property_across_grids(self, nex, nproc):
        """boundary ∪ interior enumerates every element of every region
        exactly once, and boundary elements are exactly those touching a
        halo point — across NEX/NPROC_XI combinations."""
        params = SimulationParameters(
            nex_xi=nex, nproc_xi=nproc, ner_crust_mantle=2,
            ner_outer_core=1, ner_inner_core=1,
        )
        grid = SliceGrid(params.nproc_xi)
        slices = [
            build_slice_mesh(params, grid.address_of(rank))
            for rank in range(grid.nproc_total)
        ]
        halos = build_halos(slices)
        for rank, sl in enumerate(slices):
            splits = split_slice_elements(sl, halos[rank])
            for region, mesh in sl.regions.items():
                split = splits[region]
                combined = np.concatenate([split.interior, split.boundary])
                # Exact partition: no overlap, no gap.
                np.testing.assert_array_equal(
                    np.sort(combined), np.arange(mesh.ibool.shape[0])
                )
                # Classification matches the halo point set.
                ids = halos[rank][region].halo_point_ids()
                is_halo = np.zeros(mesh.nglob, dtype=bool)
                is_halo[ids] = True
                touches = is_halo[
                    mesh.ibool.reshape(mesh.ibool.shape[0], -1)
                ].any(axis=1)
                np.testing.assert_array_equal(
                    np.flatnonzero(touches), split.boundary
                )
                # Multi-rank slices must actually have boundary elements.
                if ids.size:
                    assert split.boundary.size > 0

    def test_halo_point_ids_sorted_unique(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2,
            ner_outer_core=1, ner_inner_core=1,
        )
        grid = SliceGrid(params.nproc_xi)
        slices = [
            build_slice_mesh(params, grid.address_of(rank))
            for rank in range(grid.nproc_total)
        ]
        halos = build_halos(slices)
        for rank in range(grid.nproc_total):
            for halo in halos[rank].values():
                ids = halo.halo_point_ids()
                assert np.all(np.diff(ids) > 0)  # strictly increasing


# --------------------------------------------------------------------------
# The halo round: against an oracle, and independent of when it completes
# --------------------------------------------------------------------------


class TestHaloRound:
    @pytest.fixture(scope="class")
    def meshed(self):
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2,
            ner_outer_core=1, ner_inner_core=1,
        )
        grid = SliceGrid(params.nproc_xi)
        slices = [
            build_slice_mesh(params, grid.address_of(rank))
            for rank in range(grid.nproc_total)
        ]
        return grid, slices, build_halos(slices)

    def _region_arrays(self, slices, rank, seed):
        rng = np.random.default_rng(seed + rank)
        return {
            region: rng.standard_normal((mesh.nglob, 3))
            for region, mesh in slices[rank].regions.items()
        }

    def test_exchange_sums_all_coowners(self, meshed):
        """Oracle: after a round, every point holds the sum of the
        pre-exchange values of all ranks owning a point at the same
        quantised coordinates; a point nobody else owns is untouched.
        Exchanged once region by region and once as one merged round."""
        grid, slices, halos = meshed
        nranks = grid.nproc_total
        before = [self._region_arrays(slices, r, seed=1) for r in range(nranks)]

        def single(comm):
            ex = HaloExchanger(comm, halos[comm.rank])
            arrays = {r: a.copy() for r, a in before[comm.rank].items()}
            for region in sorted(arrays):
                ex.assemble({region: arrays[region]})
            return arrays

        def merged(comm):
            ex = HaloExchanger(comm, halos[comm.rank])
            arrays = {r: a.copy() for r, a in before[comm.rank].items()}
            ex.complete(ex.post(arrays), arrays)
            return arrays

        results = [VirtualCluster(nranks).run(p) for p in (single, merged)]
        n_shared = 0
        for region in slices[0].regions:
            keys = []
            for sl in slices:
                mesh = sl.regions[region]
                coords = np.empty((mesh.nglob, 3))
                coords[mesh.ibool.ravel()] = mesh.xyz.reshape(-1, 3)
                # The quantisation build_halos matches points with.
                keys.append(np.round(coords / 1e-5).astype(np.int64))
            _, inverse, counts = np.unique(
                np.concatenate(keys), axis=0,
                return_inverse=True, return_counts=True,
            )
            inverse = inverse.ravel()
            totals = np.zeros((counts.size, 3))
            np.add.at(
                totals, inverse, np.concatenate([b[region] for b in before])
            )
            shared = counts[inverse] > 1
            n_shared += int(shared.sum())
            offsets = np.cumsum([0] + [k.shape[0] for k in keys])
            for after in results:
                got = np.concatenate([after[r][region] for r in range(nranks)])
                np.testing.assert_allclose(
                    got[shared], totals[inverse][shared], rtol=1e-12, atol=1e-12
                )
                for r in range(nranks):
                    own = ~shared[offsets[r] : offsets[r + 1]]
                    np.testing.assert_array_equal(
                        after[r][region][own], before[r][region][own]
                    )
        assert n_shared > 0

    def test_result_independent_of_completion_time(self, meshed):
        """A round completed at once, completed right after its post, and
        completed after unrelated (rank-skewed) work gives bitwise-equal
        arrays and equal message accounting."""
        grid, slices, halos = meshed
        solid = [r for r, m in slices[0].regions.items() if not m.is_fluid]

        def run(style):
            def program(comm):
                ex = HaloExchanger(comm, halos[comm.rank])
                arrays = {
                    r: a
                    for r, a in self._region_arrays(
                        slices, comm.rank, seed=2
                    ).items()
                    if r in solid
                }
                if style == "blocking":
                    ex.assemble(arrays)
                else:
                    pending = ex.post(arrays)
                    if style == "late":
                        time.sleep(0.005 * (comm.rank + 1))
                        np.linalg.norm(arrays[solid[0]])
                    ex.complete(pending, arrays)
                s = comm.stats
                return arrays, (s.messages_sent, s.bytes_sent,
                                s.messages_received, s.bytes_received)

            return VirtualCluster(grid.nproc_total).run(program)

        reference = run("blocking")
        for style in ("immediate", "late"):
            for (a, stats_a), (b, stats_b) in zip(reference, run(style)):
                assert stats_a == stats_b
                for r in solid:
                    np.testing.assert_array_equal(a[r], b[r])

    def test_degenerate_split_sides_are_single_pass(self):
        """A region whose split has an empty side runs as the whole region
        once — no scratch buffer, no re-scatter — and the solver is
        bit-identical to the unsplit one (attenuation + fluid core)."""
        from repro.mesh import ElementSplit, build_global_mesh
        from repro.solver import GlobalSolver

        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, attenuation=True, nstep_override=6,
        )
        r = constants.R_EARTH_KM
        mesh = build_global_mesh(params)
        kwargs = dict(
            sources=[MomentTensorSource(
                position=(0.0, 0.0, r - 200.0), moment=1e20 * np.eye(3),
                stf=gaussian_stf(10.0), time_shift=5.0,
            )],
            stations=[Station("POLE", (0.0, 0.0, r)), Station("EQ", (r, 0.0, 0.0))],
        )
        nobody = np.empty(0, dtype=np.int64)

        def everybody(code):
            return np.arange(mesh.regions[code].ibool.shape[0], dtype=np.int64)

        splits = {
            "all-boundary": {
                c: ElementSplit(interior=nobody, boundary=everybody(c))
                for c in mesh.regions
            },
            "all-interior": {
                c: ElementSplit(interior=everybody(c), boundary=nobody)
                for c in mesh.regions
            },
        }
        reference = GlobalSolver(mesh, params, **kwargs).run().seismograms
        assert np.max(np.abs(reference)) > 0
        for name, element_splits in splits.items():
            solver = GlobalSolver(
                mesh, params, element_splits=element_splits, **kwargs
            )
            assert not solver._scratch_local, name
            np.testing.assert_array_equal(
                solver.run().seismograms, reference, err_msg=name
            )


# --------------------------------------------------------------------------
# End-to-end: overlapped run bit-identical to the blocking reference
# --------------------------------------------------------------------------


class TestOverlapBitIdentity:
    @pytest.fixture(scope="class")
    def scenario(self):
        # Attenuation on and all three regions present (fluid outer core
        # included) — the full physics the overlapped schedule reorders.
        params = SimulationParameters(
            nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, attenuation=True, nstep_override=15,
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

    def test_overlap_bit_identical_over_segments(self, scenario):
        params, source, stations = scenario
        blocking = run_distributed_simulation(
            params, sources=[source], stations=stations, overlap=False
        )
        # >= 3 segments: the overlapped schedule must also survive the
        # campaign-style segmented marching unchanged.
        overlapped = run_distributed_simulation(
            params, sources=[source], stations=stations, overlap=True,
            n_segments=3,
        )
        assert blocking.seismograms is not None
        assert np.max(np.abs(blocking.seismograms)) > 0
        np.testing.assert_array_equal(
            blocking.seismograms, overlapped.seismograms
        )
        assert blocking.station_names == overlapped.station_names

    def test_overlap_param_switch(self, scenario):
        """params.overlap_comm selects the overlapped path by default."""
        params, source, stations = scenario
        by_param = run_distributed_simulation(
            params.with_updates(overlap_comm=True),
            sources=[source], stations=stations, n_steps=6,
        )
        by_kwarg = run_distributed_simulation(
            params, sources=[source], stations=stations, n_steps=6,
            overlap=True,
        )
        np.testing.assert_array_equal(
            by_param.seismograms, by_kwarg.seismograms
        )

    def test_comm_byte_accounting_identical(self, scenario):
        """CommStats byte/message counts must not depend on the schedule."""
        params, source, stations = scenario
        blocking = run_distributed_simulation(
            params, sources=[source], stations=stations, n_steps=6,
            overlap=False,
        )
        overlapped = run_distributed_simulation(
            params, sources=[source], stations=stations, n_steps=6,
            overlap=True,
        )
        for sb, so in zip(blocking.comm_stats, overlapped.comm_stats):
            assert sb.messages_sent == so.messages_sent
            assert sb.bytes_sent == so.bytes_sent
            assert sb.messages_received == so.messages_received
            assert sb.bytes_received == so.bytes_received

    def test_overlap_emits_post_and_wait_spans(self, scenario):
        params, source, stations = scenario
        result = run_distributed_simulation(
            params, sources=[source], stations=stations, n_steps=4,
            overlap=True, trace=True,
        )
        names = {
            rec.name for tracer in result.tracers for rec in tracer.records
        }
        assert "halo.post" in names
        assert "halo.wait" in names
        # The per-step solver exchanges are all non-blocking now; only the
        # setup-time mass assembly may still use the blocking spans.
        step_exchanges = [
            rec
            for tracer in result.tracers
            for rec in tracer.records
            if rec.name == "halo.exchange"
        ]
        posts = [
            rec
            for tracer in result.tracers
            for rec in tracer.records
            if rec.name == "halo.post"
        ]
        assert len(posts) > len(step_exchanges)

    def test_invalid_n_segments_rejected(self, scenario):
        params, source, stations = scenario
        with pytest.raises(ValueError, match="n_segments"):
            run_distributed_simulation(
                params, sources=[source], stations=stations, n_steps=4,
                n_segments=0,
            )
