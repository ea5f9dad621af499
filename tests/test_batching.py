"""Event-batched execution: bit-identity, scheduling, failure isolation.

The batching contract (docs/batching.md) is that event slice ``b`` of a
B-event batched run equals, BIT FOR BIT, a separate unbatched run of
that event alone — serial and distributed, blocking and overlapped halo
schedules, attenuation and the fluid core included.  These tests assert
``np.array_equal`` (never ``allclose``): any FP-summation-order drift is
a failure.
"""

import numpy as np
import pytest

from repro.apps.merged_app import run_global_simulation
from repro.campaign import (
    JobSpec,
    MeshCache,
    ResultStore,
    batch_key,
    plan_batches,
    run_batched_campaign,
)
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.mesh import build_global_mesh
from repro.obs.metrics import MetricsRegistry
from repro.parallel import run_distributed_simulation
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    gaussian_stf,
    load_checkpoint,
    save_checkpoint,
)


def tiny_params(**overrides):
    defaults = dict(
        nex_xi=4,
        nproc_xi=1,
        ner_crust_mantle=3,
        ner_outer_core=2,
        ner_inner_core=1,
        nstep_override=12,
        attenuation=True,
    )
    defaults.update(overrides)
    return SimulationParameters(**defaults)


def explosion(depth_km: float, m0: float = 1e20):
    r = constants.R_EARTH_KM - depth_km
    return MomentTensorSource(
        position=(0.0, 0.0, r),
        moment=m0 * np.eye(3),
        stf=gaussian_stf(15.0),
        time_shift=40.0,
    )


def stations(n: int = 2):
    r = constants.R_EARTH_KM
    all_stations = [
        Station("POLE", (0.0, 0.0, r)),
        Station("EQ_X", (r, 0.0, 0.0)),
        Station("MID", (r / np.sqrt(2), 0.0, r / np.sqrt(2))),
    ]
    return all_stations[:n]


def poisoned_event():
    """An infinite moment: the health check trips on the first check."""
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 150.0),
        moment=np.diag([np.inf] * 3),
        stf=gaussian_stf(15.0),
        time_shift=40.0,
    )


def events(nbatch: int):
    """B distinct events: different depths AND different magnitudes."""
    return [
        [explosion(100.0 + 50.0 * b, m0=(1.0 + b) * 1e20)]
        for b in range(nbatch)
    ]


class TestSerialBitIdentity:
    """B-event batched run vs B sequential runs on one shared mesh."""

    @pytest.fixture(scope="class")
    def params(self):
        # attenuation=True plus the (always present) fluid outer core:
        # the two physics paths most sensitive to summation order.
        return tiny_params()

    @pytest.fixture(scope="class")
    def mesh(self, params):
        return build_global_mesh(params)

    def test_b4_matches_sequential(self, params, mesh):
        ev = events(4)
        batched = run_global_simulation(
            params, event_sources=ev, stations=stations(), mesh=mesh
        )
        assert batched.seismograms.shape[0] == 4
        for b, srcs in enumerate(ev):
            solo = run_global_simulation(
                params, sources=srcs, stations=stations(), mesh=mesh
            )
            assert np.array_equal(
                batched.seismograms[b], solo.seismograms
            ), f"event {b} diverged from its sequential run"

    def test_b1_matches_unbatched(self, params, mesh):
        ev = events(1)
        batched = run_global_simulation(
            params, event_sources=ev, stations=stations(), mesh=mesh
        )
        solo = run_global_simulation(
            params, sources=ev[0], stations=stations(), mesh=mesh
        )
        assert batched.seismograms.shape == (1, *solo.seismograms.shape)
        assert np.array_equal(batched.seismograms[0], solo.seismograms)

    def test_events_are_distinct(self, params, mesh):
        # Guard the guard: if the per-event source injection were broken
        # (every event seeing event 0's source), the bit-identity tests
        # above could pass vacuously.
        batched = run_global_simulation(
            params, event_sources=events(3), stations=stations(), mesh=mesh
        )
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.array_equal(
                    batched.seismograms[a], batched.seismograms[b]
                )


    def test_traced_flops_count_every_event(self, params, mesh):
        # Regression: kernel spans once carried one event's flops for a
        # whole B-event sweep, so perf.calibrate fit a B-fold too low rate.
        def kernel_flops(tracer):
            return sum(
                r.counters.get("flops", 0.0)
                for r in tracer.records
                if r.name.startswith("kernel.")
            )

        ev = events(3)
        batched = run_global_simulation(
            params, event_sources=ev, mesh=mesh, trace=True
        )
        solo = [
            run_global_simulation(params, sources=srcs, mesh=mesh, trace=True)
            for srcs in ev
        ]
        assert kernel_flops(batched.tracer) > 0
        assert kernel_flops(batched.tracer) == sum(
            kernel_flops(s.tracer) for s in solo
        )


class TestDistributedBitIdentity:
    """Batched multi-rank runs under both halo schedules."""

    N_STEPS = 6

    @pytest.fixture(scope="class")
    def params(self):
        return tiny_params(
            ner_crust_mantle=2,
            ner_outer_core=1,
            nstep_override=self.N_STEPS,
        )

    @pytest.mark.parametrize("overlap", [False, True])
    def test_b4_matches_sequential(self, params, overlap):
        ev = events(4)
        batched = run_distributed_simulation(
            params,
            stations=stations(),
            n_steps=self.N_STEPS,
            overlap=overlap,
            event_sources=ev,
        )
        assert batched.seismograms.shape[0] == 4
        msgs_solo = []
        for b, srcs in enumerate(ev):
            solo = run_distributed_simulation(
                params,
                sources=srcs,
                stations=stations(),
                n_steps=self.N_STEPS,
                overlap=overlap,
            )
            msgs_solo.append(
                sum(s.messages_sent for s in solo.comm_stats)
            )
            assert np.array_equal(
                batched.seismograms[b], solo.seismograms
            ), f"event {b} diverged (overlap={overlap})"
        # One message per neighbour per step regardless of B: the batched
        # run sends exactly what ONE sequential run sends — a B-fold
        # reduction against the sequential campaign.
        msgs_batched = sum(s.messages_sent for s in batched.comm_stats)
        assert msgs_batched == msgs_solo[0]
        assert sum(msgs_solo) == 4 * msgs_batched


@pytest.mark.parametrize(
    "nex,nbatch,n_stations",
    [(4, 2, 1), (4, 3, 3), (6, 4, 2)],
)
def test_receiver_extraction_and_checkpoint_roundtrip(
    tmp_path, nex, nbatch, n_stations
):
    """Property over (NEX, B, station-count) combos.

    Per-event receiver extraction must be bit-identical to sequential
    runs, and a batched run split across a checkpoint save/load must be
    bit-identical to the uninterrupted batched run.
    """
    n_steps = 8
    params = tiny_params(
        nex_xi=nex,
        ner_crust_mantle=2,
        ner_outer_core=1,
        nstep_override=n_steps,
    )
    mesh = build_global_mesh(params)
    ev = events(nbatch)
    sta = stations(n_stations)

    uninterrupted = run_global_simulation(
        params, event_sources=ev, stations=sta, mesh=mesh
    )
    receivers = uninterrupted.solver_result.receivers
    for b, srcs in enumerate(ev):
        solo = run_global_simulation(params, sources=srcs, stations=sta, mesh=mesh)
        per_event = receivers[b]
        assert np.array_equal(per_event.data, solo.seismograms)
        for s in sta:
            assert np.array_equal(
                receivers[b].seismogram(s.name),
                solo.solver.receiver_set.seismogram(s.name),
            )

    # Checkpoint round trip: march half, save, restore into a FRESH
    # solver, march the rest; the stitched run must equal the
    # uninterrupted one bit for bit.
    half = n_steps // 2
    writer = GlobalSolver(mesh, params, stations=sta, event_sources=ev)
    writer.run(n_steps=n_steps, stop_step=half)
    path = tmp_path / f"batch-{nex}-{nbatch}-{n_stations}.ckpt.npz"
    save_checkpoint(writer, path, step=half)

    reader = GlobalSolver(mesh, params, stations=sta, event_sources=ev)
    resumed_step = load_checkpoint(reader, path)
    assert resumed_step == half
    resumed = reader.run(n_steps=n_steps, start_step=half)
    assert np.array_equal(
        resumed.seismograms, uninterrupted.seismograms
    ), f"checkpoint round-trip drifted (nex={nex}, B={nbatch})"


class TestBatchKey:
    def test_compatible_jobs_share_key(self):
        p = tiny_params()
        a = JobSpec(name="a", params=p, sources=events(1)[0], stations=stations())
        b = JobSpec(name="b", params=p, sources=events(2)[1], stations=stations())
        assert batch_key(a) == batch_key(b) is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_segments=3),
            dict(inject_failures=1),
            dict(timeout_s=30.0),
            dict(stream_path="telemetry.jsonl"),
        ],
    )
    def test_per_run_features_block_batching(self, overrides):
        job = JobSpec(
            name="x",
            params=tiny_params(),
            sources=events(1)[0],
            stations=stations(),
            **overrides,
        )
        assert batch_key(job) is None

    def test_incompatible_jobs_split(self):
        base = dict(sources=events(1)[0])
        a = JobSpec(name="a", params=tiny_params(), stations=stations(2), **base)
        other_params = JobSpec(
            name="b", params=tiny_params(nex_xi=6), stations=stations(2), **base
        )
        other_stations = JobSpec(
            name="c", params=tiny_params(), stations=stations(3), **base
        )
        other_steps = JobSpec(
            name="d", params=tiny_params(), stations=stations(2),
            n_steps=7, **base
        )
        keys = {batch_key(j) for j in (a, other_params, other_stations, other_steps)}
        assert len(keys) == 4  # all distinct


class TestPlanBatches:
    def make_jobs(self, n, **overrides):
        return [
            JobSpec(
                name=f"j{i}",
                params=tiny_params(),
                sources=events(1)[0],
                stations=stations(),
                **overrides,
            )
            for i in range(n)
        ]

    def test_packs_compatible_preserving_order(self):
        jobs = self.make_jobs(4)
        jobs.insert(2, JobSpec(
            name="seg",
            params=tiny_params(),
            sources=events(1)[0],
            stations=stations(),
            n_segments=2,
        ))
        groups = plan_batches(jobs)
        names = [[j.name for j in g] for g in groups]
        assert names == [["j0", "j1", "j2", "j3"], ["seg"]]

    def test_max_batch_cap(self):
        groups = plan_batches(self.make_jobs(7), max_batch=3)
        assert [len(g) for g in groups] == [3, 3, 1]

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            plan_batches([], max_batch=0)


class TestBatchedCampaign:
    def base_params(self, **overrides):
        return tiny_params(
            ner_crust_mantle=2,
            ner_outer_core=1,
            nstep_override=8,
            **overrides,
        )

    def test_fan_out_preserves_provenance(self, tmp_path):
        params = self.base_params()
        jobs = [
            JobSpec(
                name=f"ev{i}",
                params=params,
                sources=events(3)[i],
                stations=stations(),
            )
            for i in range(3)
        ]
        store = ResultStore(tmp_path / "store")
        results, pool = run_batched_campaign(
            jobs, n_workers=1, store=store, mesh_cache=MeshCache()
        )
        assert [r.job.name for r in results] == ["ev0", "ev1", "ev2"]
        assert all(r.succeeded for r in results)
        for i, r in enumerate(results):
            assert r.payload["batch_size"] == 3
            assert r.payload["batch_index"] == i
        # The store records carry the same batch provenance, and the
        # fanned-out seismograms equal plain per-job runs bit for bit.
        records = {rec.name: rec for rec in store.load()}
        assert set(records) == {"ev0", "ev1", "ev2"}
        for rec in records.values():
            assert rec.metadata["batch_size"] == 3
        mesh = build_global_mesh(params)
        for r in results:
            solo = run_global_simulation(
                params, sources=list(r.job.sources), stations=stations(),
                mesh=mesh,
            )
            assert np.array_equal(r.seismograms, solo.seismograms)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fault test: NaNs
    def test_health_failure_isolated_to_offending_event(self, tmp_path):
        # Event 1's moment is infinite: the shared health check trips
        # mid-batch, the scheduler falls back to sequential execution,
        # and ONLY the poisoned event's record fails.
        params = self.base_params(health_check_every=2)
        poison = poisoned_event()
        jobs = [
            JobSpec(name="good-a", params=params,
                    sources=[explosion(100.0)], stations=stations()),
            JobSpec(name="bad", params=params,
                    sources=[poison], stations=stations()),
            JobSpec(name="good-b", params=params,
                    sources=[explosion(200.0)], stations=stations()),
        ]
        store = ResultStore(tmp_path / "store")
        metrics = MetricsRegistry()
        results, pool = run_batched_campaign(
            jobs, n_workers=1, store=store, mesh_cache=MeshCache(),
            metrics=metrics,
        )
        by_name = {r.job.name: r for r in results}
        assert by_name["good-a"].succeeded
        assert by_name["good-b"].succeeded
        assert not by_name["bad"].succeeded
        assert by_name["bad"].failure_class == "fatal"
        statuses = {rec.name: rec.status for rec in store.load()}
        assert statuses["bad"] == "failed"
        assert statuses["good-a"] == statuses["good-b"] == "succeeded"
        assert metrics.counter("campaign.batch.fallbacks").value == 1

    def test_traced_batched_group_records_spans(self):
        params = self.base_params()
        jobs = [
            JobSpec(name=f"ev{i}", params=params, sources=events(2)[i],
                    stations=stations())
            for i in range(2)
        ]
        # A different step count cannot batch: it runs on the worker.
        jobs.append(JobSpec(name="solo", params=params, sources=events(1)[0],
                            stations=stations(), n_steps=4))
        results, pool = run_batched_campaign(
            jobs, n_workers=1, mesh_cache=MeshCache(), trace=True
        )
        assert [r.payload.get("batch_size") for r in results] == [2, 2, None]
        assert len(pool.tracers) == 2  # the worker's and the groups'
        records = [rec for tracer in pool.tracers for rec in tracer.records]
        batches = [rec for rec in records if rec.name == "campaign.batch"]
        assert [rec.counters["events"] for rec in batches] == [2]
        assert any(rec.name == "kernel.elastic" for rec in records)
        assert len({tracer.epoch for tracer in pool.tracers}) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fault test: NaNs
    def test_traced_fallback_keeps_every_job_span(self):
        # A poisoned pair falls back to per-event runs; with one job that
        # cannot batch, the campaign's tracers hold all three job spans,
        # every tracer under its own pid on the pool's epoch.
        params = self.base_params(health_check_every=2)
        jobs = [
            JobSpec(name="good", params=params, sources=[explosion(100.0)],
                    stations=stations()),
            JobSpec(name="bad", params=params, sources=[poisoned_event()],
                    stations=stations()),
            JobSpec(name="solo", params=params, sources=[explosion(200.0)],
                    stations=stations(), n_steps=4),
        ]
        results, pool = run_batched_campaign(
            jobs, n_workers=2, mesh_cache=MeshCache(), trace=True
        )
        assert [r.succeeded for r in results] == [True, False, True]
        jobs_traced = [
            rec for tracer in pool.tracers for rec in tracer.records
            if rec.name == "campaign.job"
        ]
        assert len(jobs_traced) == 3
        pids = [tracer.pid for tracer in pool.tracers]
        assert len(set(pids)) == len(pids)
        assert {tracer.epoch for tracer in pool.tracers} == {pool.epoch}
