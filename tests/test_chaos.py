"""Chaos engineering: fault injection, health sentinel, integrity, drills.

The acceptance criteria of the chaos subsystem, as tests:

* a seeded drill combining a dropped halo message, a rank crash, and a
  corrupted checkpoint recovers through the retry loop and the
  last-verified-checkpoint fallback, producing seismograms
  **bit-identical** to an undisturbed run — in both the blocking and the
  overlapped communication schedule;
* an injected NaN is caught by the health sentinel within one check
  interval, and the campaign job fails *fast* (no retries) with the
  diagnostic snapshot persisted in the result-store manifest;
* the verified record under checkpoints and mesh-cache spills detects
  single-bit on-disk corruption, a changed array (naming it) and a file
  of another kind; a spill without checksums is quarantined, not loaded.
"""

import json
import time
import zlib

import numpy as np
import pytest

from repro.apps.merged_app import run_global_simulation
from repro.campaign import (
    JobSpec,
    MeshCache,
    ResultStore,
    RetryPolicy,
    WorkerPool,
    load_mesh_spill,
    save_mesh_spill,
)
from repro.campaign.errors import JobTimeoutError, TransientJobError
from repro.chaos import (
    DrillReport,
    FaultPlan,
    FaultSpec,
    HealthSentinel,
    HealthSnapshot,
    InjectedRankCrash,
    NumericalHealthError,
    run_checkpoint_drill,
    run_comm_drill,
)
from repro.chaos.integrity import (
    CacheCorruptionError,
    IntegrityError,
    array_checksums,
    flip_bit,
    read_record,
    write_record,
)
from repro.config import constants
from repro.config.parameters import ConfigError, SimulationParameters
from repro.obs.metrics import MetricsRegistry
from repro.model.prem import RegionCode
from repro.parallel import VirtualCluster
from repro.parallel.tags import ASSEMBLE_REGION, region_tag
from repro.parallel.errors import RankFailedError, RankTimeoutError
from repro.solver import (
    CheckpointError,
    GlobalSolver,
    MomentTensorSource,
    Station,
    gaussian_stf,
    load_checkpoint,
    save_checkpoint,
)
from repro.solver.checkpoint import CheckpointCorruptionError


def tiny_params(**overrides):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=10,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def demo_source():
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 200.0),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=3.0,
    )


def demo_stations():
    return [Station("POLE", (0.0, 0.0, constants.R_EARTH_KM))]


@pytest.fixture(scope="module")
def mesh():
    from repro.mesh import build_global_mesh

    return build_global_mesh(tiny_params())


# ----------------------------------------------------------------- fault plan


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(kind="meteor", rank=0)
        with pytest.raises(ValueError, match="fault op"):
            FaultSpec(kind="drop", rank=0, op="allreduce")
        with pytest.raises(ValueError, match="rank"):
            FaultSpec(kind="drop", rank=-1)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(kind="drop", rank=0, max_fires=0)
        with pytest.raises(ValueError, match="step"):
            FaultSpec(kind="poison", rank=0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    kind="drop",
                    rank=2,
                    op="send",
                    tag=region_tag(ASSEMBLE_REGION, RegionCode.CRUST_MANTLE),
                    peer=3,
                ),
                FaultSpec(kind="poison", rank=0, step=5, region=0),
            ],
            seed=42,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 42 and len(clone.specs) == 2

    def test_count_based_trigger_and_max_fires(self):
        spec = FaultSpec(
            kind="drop", rank=1, op="send", after_matches=2, max_fires=2
        )
        plan = FaultPlan([spec])
        fired = [
            bool(plan.match_op(1, "send", 0, 2)) for _ in range(6)
        ]
        # Fires on the 3rd and 4th matches, then the budget is spent.
        assert fired == [False, False, True, True, False, False]
        assert plan.fired(0) == 2 and plan.total_fired == 2
        plan.reset()
        assert plan.total_fired == 0 and plan.events == []

    def test_matching_is_selective(self):
        spec = FaultSpec(kind="drop", rank=1, op="recv", tag=7, peer=0)
        plan = FaultPlan([spec])
        assert not plan.match_op(0, "recv", 7, 0)   # wrong rank
        assert not plan.match_op(1, "send", 7, 0)   # wrong op
        assert not plan.match_op(1, "recv", 8, 0)   # wrong tag
        assert not plan.match_op(1, "recv", 7, 3)   # wrong peer
        assert plan.match_op(1, "recv", 7, 0)

    def test_seeded_bit_pick_is_deterministic(self):
        spec = FaultSpec(kind="bitflip", rank=0, bit=-1)
        a = FaultPlan([spec], seed=9)
        b = FaultPlan([spec], seed=9)
        picks_a = [a.pick_bit(64, spec) for _ in range(5)]
        picks_b = [b.pick_bit(64, spec) for _ in range(5)]
        assert picks_a == picks_b

    def test_metrics_attached(self):
        metrics = MetricsRegistry()
        plan = FaultPlan([FaultSpec(kind="drop", rank=0, op="send")])
        plan.attach_metrics(metrics)
        plan.match_op(0, "send", 0, 1)
        assert metrics.counter("chaos.faults.drop").value == 1
        assert metrics.counter("chaos.faults.total").value == 1


# ----------------------------------------------------------------- chaos comm


def _echo_program(comm):
    """Rank 0 sends to 1; rank 1 returns what it received (list of msgs)."""
    if comm.rank == 0:
        comm.send(1, np.arange(4.0), tag=3)
        return None
    return comm.recv(0, tag=3)


class TestChaosComm:
    def test_drop_then_timeout_then_retry_recovers(self):
        plan = FaultPlan([FaultSpec(kind="drop", rank=0, op="send", tag=3)])
        cluster = VirtualCluster(2, recv_timeout_s=0.5, fault_plan=plan)
        with pytest.raises(RankTimeoutError):
            cluster.run(_echo_program, timeout=30)
        assert plan.total_fired == 1
        # Same plan, fresh attempt: the fault budget is spent, so the
        # retry succeeds — the transient-recovery model.
        retry = VirtualCluster(2, recv_timeout_s=0.5, fault_plan=plan)
        results = retry.run(_echo_program, timeout=30)
        np.testing.assert_array_equal(results[1], np.arange(4.0))

    def test_crash_raises_injected_rank_crash(self):
        plan = FaultPlan([FaultSpec(kind="crash", rank=0, op="send")])
        cluster = VirtualCluster(2, recv_timeout_s=0.5, fault_plan=plan)
        with pytest.raises(InjectedRankCrash):
            cluster.run(_echo_program, timeout=30)

    def test_duplicate_delivers_twice(self):
        plan = FaultPlan([FaultSpec(kind="duplicate", rank=0, op="send")])

        def program(comm):
            if comm.rank == 0:
                comm.send(1, np.ones(2), tag=3)
                return None
            first = comm.recv(0, tag=3)
            second = comm.recv(0, tag=3)  # the duplicate
            return (first, second)

        cluster = VirtualCluster(2, recv_timeout_s=2.0, fault_plan=plan)
        first, second = cluster.run(program, timeout=30)[1]
        np.testing.assert_array_equal(first, second)

    def test_bitflip_corrupts_payload(self):
        plan = FaultPlan(
            [FaultSpec(kind="bitflip", rank=0, op="send", bit=1)]
        )
        cluster = VirtualCluster(2, recv_timeout_s=2.0, fault_plan=plan)
        results = cluster.run(_echo_program, timeout=30)
        assert not np.array_equal(results[1], np.arange(4.0))

    def test_delay_slows_but_preserves_payload(self):
        plan = FaultPlan(
            [FaultSpec(kind="delay", rank=0, op="send", delay_s=0.2)]
        )
        cluster = VirtualCluster(2, recv_timeout_s=5.0, fault_plan=plan)
        t0 = time.perf_counter()
        results = cluster.run(_echo_program, timeout=30)
        assert time.perf_counter() - t0 >= 0.2
        np.testing.assert_array_equal(results[1], np.arange(4.0))

    def test_stall_trips_peer_receive_deadline(self):
        plan = FaultPlan(
            [FaultSpec(kind="stall", rank=0, op="send", delay_s=1.5)]
        )
        cluster = VirtualCluster(2, recv_timeout_s=0.3, fault_plan=plan)
        with pytest.raises(RankTimeoutError):
            cluster.run(_echo_program, timeout=30)

    def test_overlapped_path_is_attackable(self):
        """Faults hit irecv/waitall exactly like blocking recv."""
        plan = FaultPlan([FaultSpec(kind="drop", rank=0, op="send", tag=9)])

        def program(comm):
            if comm.rank == 0:
                req = comm.isend(1, np.arange(3.0), tag=9)
                req.wait()
                return None
            req = comm.irecv(0, tag=9)
            return comm.waitall([req])[0]

        cluster = VirtualCluster(2, recv_timeout_s=0.5, fault_plan=plan)
        with pytest.raises(RankTimeoutError):
            cluster.run(program, timeout=30)
        assert plan.total_fired == 1

    def test_delegation_preserves_accounting(self):
        plan = FaultPlan([])  # no faults: pure pass-through
        cluster = VirtualCluster(2, recv_timeout_s=2.0, fault_plan=plan)
        results = cluster.run(_echo_program, timeout=30)
        np.testing.assert_array_equal(results[1], np.arange(4.0))
        assert cluster.stats[0].messages_sent == 1
        assert cluster.stats[1].messages_received == 1


# ------------------------------------------------------------------- barriers


class TestBarrierDeadline:
    def test_absent_peer_raises_timeout(self):
        def program(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                time.sleep(1.0)

        cluster = VirtualCluster(2, recv_timeout_s=0.2)
        with pytest.raises(RankTimeoutError, match="barrier"):
            cluster.run(program, timeout=30)

    def test_normal_barrier_still_counts(self):
        def program(comm):
            comm.barrier()
            return comm.rank

        cluster = VirtualCluster(3, recv_timeout_s=5.0)
        assert cluster.run(program, timeout=30) == [0, 1, 2]
        assert all(s.barriers == 1 for s in cluster.stats)


# ----------------------------------------------------------------- collectives


class TestCollectiveValidation:
    def test_unknown_allreduce_op_rejected(self):
        def program(comm):
            with pytest.raises(ValueError, match="allreduce op"):
                comm.allreduce(1.0, op="prod")
            return True

        assert VirtualCluster(1).run(program, timeout=30) == [True]

    def test_bad_gather_root_rejected(self):
        def program(comm):
            with pytest.raises(ValueError, match="gather root"):
                comm.gather(comm.rank, root=99)
            return True

        assert VirtualCluster(1).run(program, timeout=30) == [True]


# ------------------------------------------------------------ health sentinel


class TestHealthSentinel:
    def test_poison_caught_within_one_interval(self, mesh):
        """An injected NaN at step 3 is caught by the step-4 check."""
        params = tiny_params(health_check_every=5)
        solver = GlobalSolver(
            mesh, params, sources=[demo_source()], stations=demo_stations()
        )
        assert solver.health_sentinel is not None  # auto-wired from params
        plan = FaultPlan([FaultSpec(kind="poison", rank=0, step=3)])
        with pytest.raises(NumericalHealthError) as err:
            solver.run(callbacks=[plan.solver_callback(rank=0)])
        snapshot = err.value.snapshot
        assert snapshot.reason == "nonfinite"
        assert 3 <= snapshot.step < 3 + 5
        assert plan.total_fired == 1
        assert "crust_mantle" in snapshot.max_displacement_m

    def test_healthy_run_passes_all_checks(self, mesh):
        params = tiny_params(health_check_every=2)
        solver = GlobalSolver(
            mesh, params, sources=[demo_source()], stations=demo_stations()
        )
        solver.run()
        assert solver.health_sentinel.checks >= 5

    def test_amplitude_ceiling(self, mesh):
        params = tiny_params()
        solver = GlobalSolver(mesh, params, sources=[demo_source()])
        sentinel = HealthSentinel(check_every=1, max_displacement_m=1e-30)
        solver.health_sentinel = sentinel
        solver.solid[solver.solid_codes[0]].displ[0, 0] = 1.0  # event 0, point 0
        with pytest.raises(NumericalHealthError, match="amplitude"):
            sentinel.check(solver, step=0)

    def test_snapshot_serialises(self):
        snap = HealthSnapshot(
            step=7, rank=2, reason="nonfinite", detail="displ/crust_mantle",
            max_displacement_m={"crust_mantle": 1.0},
        )
        d = snap.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["step"] == 7 and d["rank"] == 2

    def test_sentinel_validation(self):
        with pytest.raises(ValueError):
            HealthSentinel(check_every=0)
        with pytest.raises(ValueError):
            HealthSentinel(energy_growth_factor=0.5)

    def test_metrics_and_final_step_check(self, mesh):
        """A check interval longer than the run still checks the last step."""
        params = tiny_params(health_check_every=1000)
        metrics = MetricsRegistry()
        solver = GlobalSolver(
            mesh, params, sources=[demo_source()], metrics=metrics
        )
        solver.run()
        assert solver.health_sentinel.checks == 1
        assert metrics.counter("health.checks").value == 1
        assert metrics.counter("health.failures").value == 0


# ------------------------------------------------------- checkpoint integrity


class TestCheckpointIntegrity:
    def _solver(self, mesh):
        return GlobalSolver(
            mesh, tiny_params(), sources=[demo_source()],
            stations=demo_stations(),
        )

    def test_round_trip_verifies(self, mesh, tmp_path):
        solver = self._solver(mesh)
        for step in range(4):
            solver._one_step(step * solver.dt)
        path = save_checkpoint(solver, tmp_path / "s.ckpt", step=4)
        fresh = self._solver(mesh)
        assert load_checkpoint(fresh, path) == 4

    def test_single_bit_flip_detected(self, mesh, tmp_path):
        solver = self._solver(mesh)
        path = save_checkpoint(solver, tmp_path / "s.ckpt", step=0)
        flip_bit(path, bit=8 * (path.stat().st_size // 2))
        fresh = self._solver(mesh)
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(fresh, path)

    def test_corruption_error_is_checkpoint_error(self):
        assert issubclass(CheckpointCorruptionError, CheckpointError)
        assert issubclass(CheckpointCorruptionError, IntegrityError)

    def test_tampered_array_detected(self, mesh, tmp_path):
        """A changed array under the old header fails its own CRC32."""
        solver = self._solver(mesh)
        path = save_checkpoint(solver, tmp_path / "s.ckpt", step=0)
        magic = path.read_bytes()[:8]
        arrays, meta = read_record(path, magic)
        code = solver.solid_codes[0]
        arrays[f"displ_{code}"] = arrays[f"displ_{code}"] + 1e-3
        tampered = write_record(tmp_path / "t.ckpt", magic, arrays, meta)
        # The old preamble + header (stale CRCs) over the changed bytes.
        nbytes = sum(a.nbytes for a in arrays.values())
        old, new = path.read_bytes(), tampered.read_bytes()
        path.write_bytes(old[:len(old) - nbytes] + new[len(new) - nbytes:])
        fresh = self._solver(mesh)
        with pytest.raises(CheckpointCorruptionError, match="integrity") as info:
            load_checkpoint(fresh, path)
        assert f"displ_{code}" in str(info.value)

    def test_foreign_records_rejected(self, mesh, tmp_path):
        """Each artifact's magic keeps it out of the other loaders."""
        from repro.service import SeismogramStore

        ckpt = save_checkpoint(self._solver(mesh), tmp_path / "s.ckpt", step=0)
        with pytest.raises(CacheCorruptionError):
            load_mesh_spill(ckpt)
        spill = save_mesh_spill(mesh, tmp_path / "m.mesh")
        run = SeismogramStore(tmp_path / "store").put(
            "k", "p", tuple(demo_stations()), np.zeros((1, 2, 3)), 0.5
        )
        for foreign in (spill, run.path):
            with pytest.raises(CheckpointCorruptionError):
                load_checkpoint(self._solver(mesh), foreign)


class TestRecordIntegrity:
    def test_array_checksums_hash_the_c_order_bytes(self):
        base = np.arange(24.0).reshape(4, 6)
        arrays = {
            "c": base, "transposed": base.T, "strided": base[:, ::2],
            "scalar": np.asarray(7), "int32": np.arange(5, dtype=np.int32),
        }
        assert array_checksums(arrays) == {
            name: zlib.crc32(np.ascontiguousarray(a).tobytes())
            for name, a in arrays.items()
        }

    def test_round_trip_returns_writable_arrays(self, tmp_path):
        arrays = {"a": np.arange(6.0).reshape(2, 3).T, "n": np.asarray(3)}
        path = write_record(tmp_path / "r", b"TESTREC1", arrays, {"k": 1})
        loaded, meta = read_record(path, b"TESTREC1")
        assert meta == {"k": 1}
        for name, a in arrays.items():
            assert loaded[name].shape == a.shape
            np.testing.assert_array_equal(loaded[name], a)
        loaded["a"][0, 0] = -1.0
        with pytest.raises(IntegrityError, match="magic"):
            read_record(path, b"OTHERRC1")


# ------------------------------------------------------- mesh-cache integrity


class TestMeshCacheIntegrity:
    def test_corrupt_spill_quarantined_as_miss(self, tmp_path):
        params = tiny_params()
        builds = []

        def builder(p):
            from repro.mesh import build_global_mesh

            builds.append(1)
            return build_global_mesh(p)

        metrics = MetricsRegistry()
        cache = MeshCache(
            max_entries=1, spill_dir=tmp_path, builder=builder,
            metrics=metrics,
        )
        cache.get(params)                           # build + spill
        cache.get(tiny_params(ner_crust_mantle=3))  # evict the first entry
        spills = list(tmp_path.glob("*.mesh"))
        assert spills
        for spill in spills:
            flip_bit(spill, bit=8 * (spill.stat().st_size // 2))
        mesh, hit = cache.get(params)          # corrupt spill -> rebuild
        assert not hit
        assert mesh is not None
        assert cache.corruptions >= 1
        assert cache.stats()["corruptions"] >= 1
        assert metrics.counter("campaign.mesh_cache.corruptions").value >= 1
        # Quarantined, not deleted: the bad file is kept for post-mortem.
        assert list(tmp_path.glob("*.quarantined"))

    def test_spill_without_checksums_quarantined_as_miss(self, tmp_path):
        """A spill carrying no checksums is corruption, never a disk hit."""
        from repro.mesh import build_global_mesh

        params = tiny_params()
        builds = []

        def builder(p):
            builds.append(1)
            return build_global_mesh(p)

        cache = MeshCache(max_entries=1, spill_dir=tmp_path, builder=builder)
        mesh, _hit = cache.get(params)
        cache.get(tiny_params(ner_crust_mantle=3))  # evict + spill
        (spill,) = tmp_path.iterdir()
        # The spill's arrays as an NPZ that carries no checksum at all.
        arrays = {
            "region_codes": np.asarray(sorted(mesh.regions)),
            "cube_elements": np.asarray(mesh.cube_elements),
            "params_json": np.asarray(json.dumps(mesh.params.to_dict())),
        }
        for code, r in mesh.regions.items():
            arrays.update({
                f"{code}_xyz": r.xyz, f"{code}_ibool": r.ibool,
                f"{code}_nglob": np.asarray(r.nglob), f"{code}_rho": r.rho,
                f"{code}_kappa": r.kappa, f"{code}_mu": r.mu,
                f"{code}_q_mu": r.q_mu,
                f"{code}_owner": mesh.slice_of_element[code],
            })
        with open(spill, "wb") as fh:
            np.savez(fh, **arrays)
        again, hit = cache.get(params)
        assert not hit and again is not None
        assert len(builds) == 3
        assert cache.stats()["corruptions"] == 1
        assert cache.stats()["disk_hits"] == 0
        assert list(tmp_path.glob("*.quarantined"))


# ------------------------------------------------- retry classification/store


def _fail_n_times_runner(n, exc_factory):
    """A WorkerPool runner failing the first ``n`` attempts."""
    calls = {"n": 0}

    def runner(jobs, mesh, tracer, metrics, deadline):
        calls["n"] += 1
        if calls["n"] <= n:
            raise exc_factory()
        return [{"seismograms": np.zeros((1, 2, 3)), "dt": 0.1}]

    return runner


def _null_cache():
    return MeshCache(builder=lambda p: None)


class TestRetryClassification:
    @pytest.mark.parametrize(
        "exc_factory",
        [
            lambda: RankTimeoutError(2, TimeoutError("halo recv")),
            lambda: RankFailedError(1, InjectedRankCrash("boom")),
            lambda: TransientJobError("node lost"),
            lambda: JobTimeoutError("wall limit"),
        ],
    )
    def test_transient_errors_retry(self, tmp_path, exc_factory):
        store = ResultStore(tmp_path)
        pool = WorkerPool(
            n_workers=1,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            mesh_cache=_null_cache(),
            store=store,
            runner=_fail_n_times_runner(1, exc_factory),
        )
        [result] = pool.run([JobSpec(name="job", params=tiny_params())])
        assert result.succeeded and result.attempts == 2
        record = store.get("job")
        assert record.attempts == 2 and record.retries == 1
        assert record.status == "succeeded"

    @pytest.mark.parametrize(
        "exc_factory",
        [
            lambda: NumericalHealthError(
                "diverged",
                HealthSnapshot(step=9, rank=3, reason="nonfinite",
                               detail="displ/crust_mantle"),
            ),
            lambda: CheckpointCorruptionError("CRC mismatch"),
        ],
    )
    def test_fatal_errors_fail_fast(self, tmp_path, exc_factory):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path)
        pool = WorkerPool(
            n_workers=1,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            mesh_cache=_null_cache(),
            store=store,
            metrics=metrics,
            runner=_fail_n_times_runner(99, exc_factory),
        )
        [result] = pool.run([JobSpec(name="job", params=tiny_params())])
        assert not result.succeeded
        assert result.attempts == 1          # no retries burned
        assert result.failure_class == "fatal"
        assert pool.backoffs == []
        assert metrics.counter("campaign.jobs.failed_fast").value == 1
        record = store.get("job")
        assert record.attempts == 1 and record.failure_class == "fatal"

    def test_health_snapshot_lands_in_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        snapshot = HealthSnapshot(
            step=9, rank=3, reason="nonfinite", detail="displ/crust_mantle",
            max_displacement_m={"crust_mantle": float("inf")},
        )
        pool = WorkerPool(
            n_workers=1,
            mesh_cache=_null_cache(),
            store=store,
            runner=_fail_n_times_runner(
                99, lambda: NumericalHealthError("diverged", snapshot)
            ),
        )
        pool.run([JobSpec(name="job", params=tiny_params())])
        record = store.get("job")
        assert record.health_snapshot["step"] == 9
        assert record.health_snapshot["rank"] == 3
        assert record.health_snapshot["reason"] == "nonfinite"
        # The manifest stream carries it too.
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["health_snapshot"]["step"] == 9

    def test_classify(self):
        policy = RetryPolicy()
        assert policy.classify(TransientJobError("x")) == "transient"
        snap = HealthSnapshot(step=0, rank=0, reason="nonfinite")
        assert policy.classify(NumericalHealthError("x", snap)) == "fatal"
        assert policy.classify(CheckpointCorruptionError("x")) == "fatal"
        assert policy.classify(ConfigError("bad")) == "fatal"
        assert policy.classify(RuntimeError("?")) == "permanent"
        assert not policy.is_retryable(CheckpointCorruptionError("x"))


# ------------------------------------------------------- segmented fallback


class TestSegmentedFallback:
    def _run(self, mesh, on_checkpoint=None, metrics=None):
        return run_global_simulation(
            tiny_params(nstep_override=12),
            sources=[demo_source()],
            stations=demo_stations(),
            n_segments=3,
            mesh=mesh,
            metrics=metrics,
            on_checkpoint=on_checkpoint,
        )

    def test_falls_back_to_older_verified_checkpoint(self, mesh):
        clean = self._run(mesh)

        def corrupt_second(index, path):
            if index == 1:
                flip_bit(path, bit=8 * (path.stat().st_size // 2))

        metrics = MetricsRegistry()
        with pytest.warns(UserWarning, match="falling back"):
            seg = self._run(mesh, on_checkpoint=corrupt_second,
                            metrics=metrics)
        assert metrics.counter("campaign.checkpoint_corruptions").value == 1
        np.testing.assert_array_equal(clean.seismograms, seg.seismograms)

    def test_falls_back_to_cold_restart(self, mesh):
        """Every checkpoint corrupt: the last segment re-runs from 0."""
        clean = self._run(mesh)

        def corrupt_all(index, path):
            flip_bit(path, bit=8 * (path.stat().st_size // 2))

        metrics = MetricsRegistry()
        with pytest.warns(UserWarning, match="falling back"):
            seg = self._run(mesh, on_checkpoint=corrupt_all, metrics=metrics)
        assert metrics.counter("campaign.checkpoint_corruptions").value >= 2
        np.testing.assert_array_equal(clean.seismograms, seg.seismograms)


# ------------------------------------------------------------ end-to-end drill


class TestEndToEndDrills:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_comm_drill_bit_identical(self, overlap):
        """Drop + crash, recovered by retry, bit-identical seismograms —
        in both the blocking and the overlapped halo schedule."""
        params = tiny_params(nstep_override=8)
        plan = FaultPlan(
            [
                FaultSpec(kind="drop", rank=2, op="send", after_matches=3),
                FaultSpec(kind="crash", rank=4, op="send", after_matches=5),
            ],
            seed=123,
        )
        report = run_comm_drill(
            params,
            plan,
            sources=[demo_source()],
            stations=demo_stations(),
            overlap=overlap,
            max_attempts=4,
            recv_timeout_s=1.0,
        )
        assert report.passed, report.to_dict()
        assert report.bit_identical
        assert report.faults_fired >= 2
        assert report.attempts >= 2  # at least one failure was survived

    def test_checkpoint_drill_bit_identical(self):
        report = run_checkpoint_drill(
            tiny_params(nstep_override=12),
            sources=[demo_source()],
            stations=demo_stations(),
            n_segments=3,
            corrupt_segment=0,
        )
        assert report.passed, report.to_dict()
        assert report.bit_identical
        assert report.detail["fallbacks"] >= 1

    def test_report_round_trips_to_json(self):
        report = DrillReport(
            drill="comm", passed=True, bit_identical=True, attempts=2,
            faults_fired=3,
        )
        assert json.loads(json.dumps(report.to_dict()))["passed"] is True


# ------------------------------------------------------------- config errors


class TestConfigValidation:
    def test_nstep_override_must_be_positive(self):
        with pytest.raises(ConfigError):
            tiny_params(nstep_override=0)

    def test_health_check_every_must_be_positive(self):
        with pytest.raises(ConfigError):
            tiny_params(health_check_every=0)

    def test_round_trip_carries_health_knob(self):
        params = tiny_params(health_check_every=25)
        clone = SimulationParameters.from_dict(params.to_dict())
        assert clone.health_check_every == 25
        assert clone == params
