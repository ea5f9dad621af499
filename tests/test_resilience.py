"""Elastic rank-failure recovery: detector, checkpoint walk-back,
supervisor, and campaign/service integration.

The acceptance criteria of the resilience subsystem, as tests:

* the failure detector distinguishes a **dead** rank (no heartbeat
  beyond the suspicion threshold) from a **straggler** (recent traffic)
  at recv-deadline escalation, and a confirmed death interrupts blocked
  peers within one probe interval;
* :func:`~repro.solver.checkpoint.walk_back` over a
  :class:`~repro.solver.checkpoint.CheckpointManager` walks back *past*
  a corrupted newest checkpoint, and a recovery reads each rank's
  checkpoint once;
* respawn recovery is **bit-identical** to an uninterrupted run across
  (crash step x crashing rank x halo schedule);
* shrink recovery (24 -> 6 ranks) matches within tolerance, with
  attenuation and the fluid core exercised;
* a supervised campaign job with an injected rank death completes with
  ``recoveries >= 1`` and ``attempts == 1`` in the manifest — recovery
  happened in-run, not via whole-job retry;
* the service maps transiently-exhausted backend jobs to
  :class:`~repro.service.frontend.TransientBackendError` (HTTP 503),
  not a generic 502.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import default_source, default_stations
from repro.chaos import FaultPlan, FaultSpec, run_rank_death_drill
from repro.chaos.integrity import flip_bit
from repro.campaign import JobSpec, run_batched_campaign
from repro.config.parameters import SimulationParameters
from repro.mesh.mesher import build_global_mesh
from repro.obs.metrics import MetricsRegistry
from repro.parallel.errors import (
    RankDeathError,
    RankFailedError,
    RankTimeoutError,
)
from repro.parallel.launcher import run_distributed_simulation
from repro.resilience import (
    FailureDetector,
    RankDeathReport,
    RecoveryPolicy,
    RunSupervisor,
)
from repro.solver import GlobalSolver
from repro.solver import checkpoint as checkpoint_module
from repro.solver.checkpoint import (
    CheckpointError,
    CheckpointManager,
    read_verified_arrays,
    restore_state,
    save_checkpoint,
    walk_back,
)


def tiny_params(**overrides):
    defaults = dict(
        nex_xi=4,
        nproc_xi=1,
        ner_crust_mantle=2,
        ner_outer_core=1,
        ner_inner_core=1,
        nstep_override=10,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def run_supervised(params, plan, mode="respawn", **kwargs):
    supervisor = RunSupervisor(
        policy=RecoveryPolicy(
            mode=mode,
            max_recoveries=kwargs.pop("max_recoveries", 2),
            suspect_after_s=1.0,
        ),
        metrics=kwargs.pop("metrics", None),
    )
    return supervisor.run(
        params,
        sources=[default_source()],
        stations=default_stations(),
        recv_timeout_s=kwargs.pop("recv_timeout_s", 5.0),
        timeout_s=kwargs.pop("timeout_s", 300.0),
        fault_plan=plan,
        **kwargs,
    )


def _count_checkpoint_reads(monkeypatch) -> list[Path]:
    """Record the path of every checkpoint record read from now on."""
    reads: list[Path] = []
    real = checkpoint_module.read_record

    def counting(path, magic):
        reads.append(Path(path))
        return real(path, magic)

    monkeypatch.setattr(checkpoint_module, "read_record", counting)
    return reads


# ---------------------------------------------------------------------------
# Failure detector
# ---------------------------------------------------------------------------


class TestFailureDetector:
    def test_mark_dead_is_idempotent_first_wins(self):
        det = FailureDetector(4)
        first = det.mark_dead(2, RuntimeError("boom"))
        second = det.mark_dead(2, RuntimeError("other"))
        assert second is first
        assert det.is_dead(2)
        assert det.dead_ranks() == [2]
        assert "boom" in det.report_of(2).cause

    def test_status_three_states(self):
        det = FailureDetector(3, suspect_after_s=0.05)
        det.beat(0)
        assert det.status(0) == "alive"
        time.sleep(0.08)
        assert det.status(0) == "suspect"
        det.mark_dead(0, "gone")
        assert det.status(0) == "dead"

    def test_escalation_declares_silent_peer_unresponsive(self):
        det = FailureDetector(3, suspect_after_s=0.05)
        time.sleep(0.08)  # rank 1 never beats
        report = det.escalate_timeout(1, detected_by=0, deadline_s=1.0,
                                      op="recv(source=1)")
        assert report is not None
        assert report.kind == "unresponsive"
        assert report.detected_by == 0
        assert det.is_dead(1)

    def test_escalation_spares_recent_traffic_straggler(self):
        det = FailureDetector(3, suspect_after_s=5.0)
        det.beat(1)
        report = det.escalate_timeout(1, detected_by=0, deadline_s=1.0,
                                      op="recv(source=1)")
        assert report is None
        assert not det.is_dead(1)

    def test_report_serializes(self):
        r = RankDeathReport(rank=2, kind="crash", cause="x", detected_by=0)
        d = r.to_dict()
        assert d["rank"] == 2 and d["kind"] == "crash"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FailureDetector(0)
        with pytest.raises(ValueError):
            FailureDetector(2, suspect_after_s=0.0)


# ---------------------------------------------------------------------------
# CheckpointManager and the walk-back
# ---------------------------------------------------------------------------


class TestCheckpointManager:
    @pytest.fixture(scope="class")
    def solver(self):
        params = tiny_params(nstep_override=6)
        mesh = build_global_mesh(params)
        solver = GlobalSolver(mesh, params, sources=[default_source()],
                             stations=default_stations())
        solver.run(n_steps=6, start_step=0, stop_step=3)
        return solver

    def test_keep_none_retains_all(self, solver, tmp_path):
        manager = CheckpointManager(tmp_path)
        for step in (1, 2, 3):
            manager.save(solver, step)
        assert manager.steps() == [1, 2, 3]

    def test_walk_back_past_corruption(self, solver, tmp_path):
        metrics = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=metrics)
        for step in (1, 2, 3):
            manager.save(solver, step)
        newest = manager.path_of(3)
        flip_bit(newest, bit=8 * (newest.stat().st_size // 2))
        params = tiny_params(nstep_override=6)
        fresh = GlobalSolver(build_global_mesh(params), params,
                             sources=[default_source()],
                             stations=default_stations())
        rejected = []
        step, (arrays,) = walk_back(
            [manager], (1, 2, 3),
            on_reject=lambda path, exc: rejected.append(path),
        )
        assert restore_state(fresh, arrays) == step
        # The corrupt newest checkpoint is rejected and quarantined; the
        # next-older verified one restores.
        assert step == 2
        assert len(rejected) == 1
        assert 3 not in manager.steps()
        assert metrics.counter("checkpoint.quarantined").value == 1
        quarantined = list(tmp_path.glob("*.quarantined"))
        assert len(quarantined) == 1

    def test_walk_back_none_when_empty(self, solver, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert walk_back([manager], (1, 2, 3)) is None

    def test_load_validates_step(self, solver, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(solver, 2)
        # A record whose header step is not the step its name carries.
        manager.path_of(2).rename(manager.path_of(7))
        rejected = []
        assert walk_back(
            [manager], (7,), on_reject=lambda path, exc: rejected.append(exc)
        ) is None
        assert len(rejected) == 1
        assert isinstance(rejected[0], CheckpointError)
        assert manager.steps() == []

    def test_arrays_raises_on_corruption(self, solver, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(solver, 1)
        path = manager.path_of(1)
        flip_bit(path, bit=8 * (path.stat().st_size // 2))
        with pytest.raises(CheckpointError):
            read_verified_arrays(path)


# ---------------------------------------------------------------------------
# Respawn recovery: bit-identity property
# ---------------------------------------------------------------------------


class TestRespawnRecovery:
    @pytest.fixture(scope="class")
    def reference(self):
        params = tiny_params()
        return run_distributed_simulation(
            params,
            sources=[default_source()],
            stations=default_stations(),
            timeout_s=120,
        )

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("crash_rank,crash_step", [(2, 3), (5, 7)])
    def test_bit_identical_across_crash_site_and_schedule(
        self, reference, overlap, crash_rank, crash_step
    ):
        plan = FaultPlan(
            [FaultSpec(kind="crash", rank=crash_rank, step=crash_step)]
        )
        res = run_supervised(tiny_params(), plan, overlap=overlap)
        assert res.n_recoveries == 1
        assert res.world_sizes == [6, 6]
        assert [r.kind for r in res.reports] == ["crash"]
        assert res.reports[0].rank == crash_rank
        # Recovery resumes from the newest checkpoint boundary below the
        # crash (boundaries 2/5/8 of 10 steps): only that span re-runs.
        assert res.recoveries[0].resume_step == {3: 2, 7: 5}[crash_step]
        assert np.array_equal(
            reference.seismograms, res.result.seismograms
        )

    def test_early_crash_cold_restart(self, reference):
        # Crash before the first checkpoint boundary: recovery resumes
        # from step 0 (no common checkpoint yet) and still matches.
        plan = FaultPlan([FaultSpec(kind="crash", rank=1, step=1)])
        res = run_supervised(tiny_params(), plan)
        assert res.n_recoveries == 1
        assert res.recoveries[0].resume_step == 0
        assert np.array_equal(
            reference.seismograms, res.result.seismograms
        )

    def test_budget_exhaustion_reraises(self):
        plan = FaultPlan(
            [
                FaultSpec(kind="crash", rank=2, step=3),
                FaultSpec(kind="crash", rank=4, step=5),
            ]
        )
        with pytest.raises(RankFailedError):
            run_supervised(tiny_params(), plan, max_recoveries=1)

    def test_two_recoveries_within_budget(self, reference):
        plan = FaultPlan(
            [
                FaultSpec(kind="crash", rank=2, step=3),
                FaultSpec(kind="crash", rank=4, step=7),
            ]
        )
        metrics = MetricsRegistry()
        res = run_supervised(tiny_params(), plan, max_recoveries=2,
                             metrics=metrics)
        assert res.n_recoveries == 2
        assert np.array_equal(
            reference.seismograms, res.result.seismograms
        )
        assert metrics.counter("resilience.recoveries").value == 2
        assert metrics.counter("resilience.deaths").value == 2
        assert metrics.counter("resilience.epochs").value == 3

    def test_reads_each_rank_checkpoint_once(self, monkeypatch):
        reads = _count_checkpoint_reads(monkeypatch)
        plan = FaultPlan([FaultSpec(kind="crash", rank=2, step=3)])
        res = run_supervised(tiny_params(), plan)
        assert res.recoveries[0].resume_step == 2
        resume_reads = [p for p in reads if p.name == "step_00000002.ckpt"]
        assert sorted(p.parent.name for p in resume_reads) == [
            f"rank{r:04d}" for r in range(6)
        ]

    def test_provenance_payload(self):
        plan = FaultPlan([FaultSpec(kind="crash", rank=3, step=6)])
        res = run_supervised(tiny_params(), plan)
        prov = res.provenance()
        assert prov["recoveries"] == 1
        assert prov["world_sizes"] == [6, 6]
        assert prov["recovery_events"][0]["failed_rank"] == 3
        assert prov["death_reports"][0]["kind"] == "crash"
        json.dumps(prov)  # manifest-serializable


# ---------------------------------------------------------------------------
# Shrink recovery: tolerance with attenuation + fluid core
# ---------------------------------------------------------------------------


class TestShrinkRecovery:
    def test_shrink_24_to_6_within_tolerance(self):
        # NEX=8 / nproc_xi=2 -> 24 ranks; the PREM model in this mesh
        # has attenuation (Q_mu) in the solid regions and the fluid
        # outer core marching chi, so the remap carries every state
        # family: solid fields, fluid potentials, attenuation memory,
        # and partial seismogram buffers.
        params = SimulationParameters(
            nex_xi=8, nproc_xi=2, ner_crust_mantle=2, ner_outer_core=1,
            ner_inner_core=1, nstep_override=8,
        )
        reference = run_distributed_simulation(
            params,
            sources=[default_source()],
            stations=default_stations(),
            timeout_s=300,
        )
        plan = FaultPlan([FaultSpec(kind="crash", rank=7, step=4)])
        res = run_supervised(params, plan, mode="shrink")
        assert res.n_recoveries == 1
        assert res.world_sizes == [24, 6]
        assert res.recoveries[0].resume_step > 0  # remap actually ran
        names_ref = list(reference.station_names)
        names_new = list(res.result.station_names)
        assert sorted(names_ref) == sorted(names_new)
        order = [names_new.index(n) for n in names_ref]
        recovered = res.result.seismograms[order]
        scale = np.max(np.abs(reference.seismograms))
        assert np.max(np.abs(reference.seismograms - recovered)) <= (
            1e-9 * scale
        )

    def test_reads_each_rank_checkpoint_once(self, monkeypatch):
        reads = _count_checkpoint_reads(monkeypatch)
        params = tiny_params(nproc_xi=2, nstep_override=8)  # 24 ranks
        plan = FaultPlan([FaultSpec(kind="crash", rank=7, step=5)])
        res = run_supervised(params, plan, mode="shrink")
        assert res.world_sizes == [24, 6]
        assert res.recoveries[0].resume_step == 4
        resume_reads = [p for p in reads if p.name == "step_00000004.ckpt"]
        assert sorted(p.parent.name for p in resume_reads) == [
            f"rank{r:04d}" for r in range(24)
        ]

    def test_shrink_on_minimum_world_respawns(self):
        # 6 ranks is the floor (nproc_xi=1): shrink mode falls back to
        # respawn rather than failing.
        plan = FaultPlan([FaultSpec(kind="crash", rank=2, step=5)])
        res = run_supervised(tiny_params(), plan, mode="shrink")
        assert res.n_recoveries == 1
        assert res.world_sizes == [6, 6]


# ---------------------------------------------------------------------------
# Drill + campaign + service integration
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_rank_death_drill_respawn_passes(self):
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
        assert report.detail["recovery_latency_s"]

    def test_supervised_campaign_job_recovers_in_run(self, tmp_path):
        job = JobSpec(
            name="supervised-death",
            params=tiny_params(),
            sources=[default_source()],
            stations=default_stations(),
            supervise=True,
            fault_plan=FaultPlan(
                [FaultSpec(kind="crash", rank=3, step=5)]
            ),
        )
        results, _pool = run_batched_campaign(
            [job], n_workers=1, store_dir=tmp_path
        )
        result = results[0]
        # The death was recovered INSIDE the run: one attempt, no
        # whole-job retry, and the recovery is in the manifest.
        assert result.succeeded
        assert result.attempts == 1
        assert result.recoveries == 1
        assert result.payload["resilience"]["world_sizes"] == [6, 6]
        record = json.loads(
            (tmp_path / "manifest.jsonl").read_text().splitlines()[-1]
        )
        assert record["recoveries"] == 1
        assert record["retries"] == 0

    def test_supervised_job_reports_mesher_and_solver_walls(self, tmp_path):
        # prepare_world is the supervised job's mesher and the epochs its
        # solver: neither may be booked as orchestration.
        job = JobSpec(
            name="supervised-walls",
            params=tiny_params(nstep_override=6),
            sources=[default_source()],
            stations=default_stations(),
            supervise=True,
        )
        results, _pool = run_batched_campaign(
            [job], n_workers=1, store_dir=tmp_path
        )
        result = results[0]
        assert result.succeeded
        assert result.mesher_wall_s > 0.0
        assert result.solver_wall_s > 0.0
        assert result.mesher_wall_s + result.solver_wall_s <= result.wall_s
        record = json.loads(
            (tmp_path / "manifest.jsonl").read_text().splitlines()[-1]
        )
        assert record["mesher_wall_s"] == result.mesher_wall_s
        assert record["solver_wall_s"] == result.solver_wall_s

    def test_jobspec_validates_supervise_combinations(self):
        with pytest.raises(ValueError):
            JobSpec(name="x", params=tiny_params(), supervise=True,
                    n_segments=2)
        with pytest.raises(ValueError):
            JobSpec(name="x", params=tiny_params(),
                    fault_plan=FaultPlan([]))

    def test_service_transient_exhaustion_maps_to_503(self):
        import asyncio

        from repro.service.frontend import (
            SimulationService,
            TransientBackendError,
        )
        from repro.service.http import ServiceHTTPServer
        from repro.service.keys import SimulationRequest
        from repro.solver.receivers import Station

        async def drill(tmp):
            service = SimulationService(store=tmp, n_backend_workers=1)
            try:
                request = SimulationRequest(
                    params=tiny_params(nstep_override=4),
                    stations=(Station("POLE", (0.0, 0.0, 6371.0)),),
                    # Inject more failures than attempts: every attempt
                    # dies transiently, exhausting the retry budget.
                    job_options={
                        "inject_failures": 5, "max_attempts": 2
                    },
                )
                server = ServiceHTTPServer(service)
                with pytest.raises(TransientBackendError):
                    await service.handle(request)
                status, payload = await server._dispatch(
                    "POST", "/simulate",
                    json.dumps(request.to_spec()).encode(),
                )
                assert status == 503
                assert payload["failure_class"] == "transient"
                assert payload["retry_after_s"] > 0
            finally:
                service.close()

        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(drill(tmp))

    def test_rank_death_error_is_transient_for_retry_policy(self):
        from repro.campaign.queue import RetryPolicy

        policy = RetryPolicy()
        err = RankDeathError(2, RuntimeError("boom"))
        assert isinstance(err, RankFailedError)
        assert policy.classify(err) == "transient"
        assert policy.classify(
            RankTimeoutError(1, TimeoutError("slow"))
        ) == "transient"


# ---------------------------------------------------------------------------
# Disabled-detector overhead (cheap sanity; the benchmark suite has the
# calibrated version)
# ---------------------------------------------------------------------------


def test_unsupervised_path_has_no_detector():
    from repro.parallel.comm import VirtualCluster

    cluster = VirtualCluster(2)
    assert cluster.failure_detector is None
