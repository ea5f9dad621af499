"""Run slots, the run deadline, and boundary-first slices.

* ``TestRunSlots`` — a rank runs program code only while it holds one of
  *k* run slots (*k* = the CPUs this process may use, patched here through
  :func:`repro.parallel.comm.run_slot_count`, the only way to change it),
  granted in FIFO order; slot wait is accounted in ``slot_wait_s`` and
  never in ``comm_time_s``.
* ``TestRunDeadline`` — one deadline per :meth:`VirtualCluster.run`: every
  parked rank is cancelled, joined, and ``run`` raises ``TimeoutError``.
* ``TestStallsHoldNoSlot`` — injected stalls and rank deaths are still
  detected with one slot: a stalled peer is filed ``unresponsive`` at its
  waiter's receive deadline, a crashed one at the run's cancel.
* ``TestBoundaryFirst`` — every split region of a prepared world is two
  contiguous runs, the solver's subsets are views of the region arrays,
  and a split that is not boundary-first is rejected.
"""

import threading
import time

import numpy as np
import pytest

from repro.apps import default_source, default_stations
from repro.chaos import FaultPlan, FaultSpec, run_rank_death_drill
from repro.config.parameters import SimulationParameters
from repro.mesh import ElementSplit, build_global_mesh, split_elements
from repro.parallel import VirtualCluster
from repro.parallel import comm as comm_module
from repro.parallel.errors import RankDeathError
from repro.parallel.launcher import prepare_world
from repro.resilience import FailureDetector
from repro.solver import GlobalSolver


def tiny_params(**overrides):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=10,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


@pytest.fixture
def slots(monkeypatch):
    """Set the run-slot count of clusters run from now on."""

    def patch(k: int) -> None:
        monkeypatch.setattr(comm_module, "run_slot_count", lambda: k)

    return patch


def _echo(comm):
    """Rank 0 sends to rank 1, which returns the message."""
    if comm.rank == 0:
        comm.send(1, np.arange(3.0), tag=3)
        return None
    return comm.recv(0, tag=3)


def _rank_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("rank-")}


# ----------------------------------------------------------------- run slots


class TestRunSlots:
    @pytest.mark.parametrize("k", [1, 2])
    def test_at_most_k_ranks_in_program_code(self, slots, k):
        slots(k)
        lock = threading.Lock()
        inside = {"now": 0, "max": 0}

        def program(comm):
            left, right = (comm.rank - 1) % comm.size, (comm.rank + 1) % comm.size
            for i in range(8):
                with lock:
                    inside["now"] += 1
                    inside["max"] = max(inside["max"], inside["now"])
                time.sleep(0.003)  # program code: holds the slot
                with lock:
                    inside["now"] -= 1
                comm.send(right, np.array([float(i)]), tag=7)
                comm.recv(left, tag=7)
            comm.barrier()
            return comm.rank

        cluster = VirtualCluster(6, recv_timeout_s=30.0)
        assert cluster.run(program, timeout=60) == list(range(6))
        assert 1 <= inside["max"] <= k

    def test_slots_are_granted_in_ticket_order(self):
        slots = comm_module._RunSlots(1)
        assert slots.acquire(0) == 0.0
        granted = []

        def ask(rank):
            slots.acquire(rank)
            granted.append(rank)
            slots.release()

        threads = []
        for rank in (3, 1, 2):
            t = threading.Thread(target=ask, args=(rank,))
            t.start()
            threads.append(t)
            deadline = time.monotonic() + 5.0
            while len(slots._queue) < len(threads) and time.monotonic() < deadline:
                time.sleep(0.001)
        slots.release()
        for t in threads:
            t.join(5.0)
            assert not t.is_alive()
        assert granted == [3, 1, 2]

    def test_slot_wait_is_its_own_number(self, slots):
        slots(1)
        hold_s = 0.04

        def program(comm):
            time.sleep(hold_s)  # program code, one rank at a time
            comm.barrier()
            time.sleep(hold_s)
            return time.perf_counter()

        cluster = VirtualCluster(6, recv_timeout_s=30.0)
        t0 = time.perf_counter()
        ends = cluster.run(program, timeout=60)
        waits = [s.slot_wait_s for s in cluster.stats]
        # Only the rank served first, both times, may never have queued.
        assert sum(w > 0 for w in waits) >= 5, waits
        assert sum(waits) > 6 * hold_s
        # Comm time and slot wait are disjoint parts of each rank's life
        # besides its own 2 * hold_s: had the slot queue after the barrier
        # leaked into comm_time_s, the late ranks would overrun.
        for rank, stats in enumerate(cluster.stats):
            life = ends[rank] - t0
            assert stats.comm_time_s + stats.slot_wait_s + 2 * hold_s <= life + 0.02, (
                rank, stats, life,
            )


# -------------------------------------------------------------- run deadline


class TestRunDeadline:
    def test_parked_rank_is_cancelled_at_the_deadline(self):
        before = _rank_threads()

        def program(comm):
            if comm.rank == 0:
                comm.recv(1, tag=3)  # never sent
            return comm.rank

        cluster = VirtualCluster(2, recv_timeout_s=30.0)
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError, match="deadline"):
            cluster.run(program, timeout=0.5)
        assert time.perf_counter() - t0 < 0.5 + 2.0
        assert not (_rank_threads() - before)

    def test_rank_in_the_slot_queue_is_cancelled(self, slots):
        slots(1)
        before = _rank_threads()

        def program(comm):
            time.sleep(0.4)  # holds the one slot while the other rank queues
            comm.recv(1 - comm.rank, tag=3)  # never sent

        cluster = VirtualCluster(2, recv_timeout_s=30.0)
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError, match="deadline"):
            cluster.run(program, timeout=0.2)
        # The queued rank is cancelled at once; the sleeping one at its
        # receive, when its 0.4 s of program code are over.
        assert time.perf_counter() - t0 < 0.4 + 2.0
        assert not (_rank_threads() - before)

    def test_stalled_rank_is_cancelled(self):
        before = _rank_threads()
        plan = FaultPlan(
            [FaultSpec(kind="stall", rank=0, op="send", delay_s=30.0)]
        )
        cluster = VirtualCluster(2, recv_timeout_s=30.0, fault_plan=plan)
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError, match="deadline"):
            cluster.run(_echo, timeout=0.3)
        assert time.perf_counter() - t0 < 0.3 + 2.0
        assert not (_rank_threads() - before)


# ------------------------------------------------------ stalls hold no slot


class TestStallsHoldNoSlot:
    def test_hung_rank_detected_within_the_receive_deadline(self, slots):
        slots(1)
        plan = FaultPlan(
            [FaultSpec(kind="stall", rank=0, op="send", delay_s=2.0)]
        )
        detector = FailureDetector(2, suspect_after_s=0.2)
        cluster = VirtualCluster(
            2, recv_timeout_s=0.4, fault_plan=plan, failure_detector=detector
        )
        detected = {}

        def program(comm):
            if comm.rank == 0:
                return _echo(comm)
            t0 = time.perf_counter()
            try:
                return _echo(comm)
            except RankDeathError:
                detected["after_s"] = time.perf_counter() - t0
                raise

        with pytest.raises(RankDeathError):
            cluster.run(program, timeout=30)
        # Had the stall kept the one slot, rank 1 would not even have
        # started its receive before the stall ended (2 s).
        assert detected["after_s"] < 0.4 + 0.6
        assert [(r.rank, r.kind) for r in detector.reports] == [(0, "unresponsive")]

    def test_crashed_peer_reported_at_the_cancel(self, slots):
        slots(1)
        detector = FailureDetector(2, suspect_after_s=10)
        cluster = VirtualCluster(2, recv_timeout_s=20.0, failure_detector=detector)

        def program(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            return comm.recv(0, tag=3)

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="boom"):
            cluster.run(program, timeout=60)
        assert time.perf_counter() - t0 < 5.0
        assert [(r.rank, r.kind) for r in detector.reports] == [(0, "crash")]

    def test_rank_death_drill_recovers_with_one_slot(self, slots):
        slots(1)
        report = run_rank_death_drill(
            tiny_params(),
            sources=[default_source()],
            stations=default_stations(),
            crash_rank=2,
            mode="respawn",
        )
        assert report.passed, report.to_dict()
        assert report.bit_identical
        assert report.detail["recoveries"] == 1


# --------------------------------------------------------- boundary-first


class TestBoundaryFirst:
    @pytest.fixture(scope="class")
    def world(self):
        return prepare_world(
            tiny_params(attenuation=True), sources=[default_source()],
            stations=default_stations(), overlap=True,
        )

    def test_every_split_region_is_boundary_first(self, world):
        for rank, (sl, splits) in enumerate(zip(world.slices, world.splits)):
            for code, split in splits.items():
                mesh = sl.regions[code]
                nb = split.boundary.size
                np.testing.assert_array_equal(split.boundary, np.arange(nb))
                np.testing.assert_array_equal(
                    split.interior, np.arange(nb, mesh.nspec)
                )
                # The reordered numbering itself says so.
                halo = world.halos[rank][code]
                again = split_elements(mesh.ibool, halo.halo_point_ids())
                np.testing.assert_array_equal(again.boundary, split.boundary)

    def test_solver_subsets_are_views_of_the_region(self, world):
        solver = GlobalSolver(
            world.slices[0], world.params, element_splits=world.splits[0],
            dt_override=world.dt_global,
        )
        split_codes = set(solver._scratch_local)
        assert split_codes, "no region of rank 0 is split"
        for _, before, after in solver._rounds:
            for view in (*before, *after):
                st = solver.regions[view.code]
                assert np.shares_memory(view.ibool, st.ibool)
                assert np.shares_memory(view.rho, st.mesh.rho)
                assert np.shares_memory(view.geom.jacobian, st.geom.jacobian)
                assert np.shares_memory(view.geom.dxi_dx, st.geom.dxi_dx)
                if view.code in split_codes:
                    assert view.stash is solver._scratch_local[view.code]

    def test_split_that_is_not_boundary_first_is_rejected(self):
        params = tiny_params()
        mesh = build_global_mesh(params)
        splits = {}
        for code, region in mesh.regions.items():
            n = region.nspec
            splits[code] = ElementSplit(
                interior=np.arange(n - 1), boundary=np.array([n - 1])
            )
        with pytest.raises(ValueError, match="boundary-first"):
            GlobalSolver(mesh, params, element_splits=splits)
