"""Tests for the campaign orchestration subsystem.

Covers the job queue and retry policy, the content-addressed mesh cache
(correctness, single-flight concurrency, disk spill), the worker pool's
fault tolerance (injected failures, timeouts, typed rank failures), the
result store, and the ``python -m repro.campaign`` CLI.  The acceptance
scenario of the subsystem — a 4-job campaign sharing one parameter set
builds the mesh exactly once (1 miss / 3 hits) and survives an injected
transient failure via retry-with-backoff — runs against the real solver
at miniature scale.
"""

import json
import threading

import numpy as np
import pytest

from repro.campaign import (
    InjectedFailure,
    JobQueue,
    JobSpec,
    JobStatus,
    JobTimeoutError,
    MeshCache,
    MESH_KEY_FIELDS,
    ResultStore,
    RetryPolicy,
    TransientJobError,
    WorkerPool,
    load_mesh_spill,
    mesh_cache_key,
    params_hash,
    render_campaign_table,
    save_mesh_spill,
)
from repro.campaign.store import JobRecord
from repro.config import constants
from repro.config.parameters import SimulationParameters
from repro.obs.metrics import MetricsRegistry
from repro.parallel import RankFailedError
from repro.solver import MomentTensorSource, Station, gaussian_stf


def tiny_params(**kw):
    defaults = dict(
        nex_xi=4, nproc_xi=1, ner_crust_mantle=2, ner_outer_core=1,
        ner_inner_core=1, nstep_override=8,
    )
    defaults.update(kw)
    return SimulationParameters(**defaults)


def demo_source():
    return MomentTensorSource(
        position=(0.0, 0.0, constants.R_EARTH_KM - 200.0),
        moment=1e20 * np.eye(3),
        stf=gaussian_stf(10.0),
        time_shift=3.0,
    )


def fake_job(name, **kw):
    return JobSpec(name=name, params=tiny_params(), **kw)


def fake_runner(payloads=None):
    """A runner that skips the solver and returns a canned payload."""

    def run(jobs, mesh, tracer, metrics, deadline):
        return [
            {"seismograms": None, "dt": 0.1, "segment_count": 1,
             **(payloads or {}).get(job.name, {})}
            for job in jobs
        ]

    return run


class FakeMesh:
    """Stands in for a GlobalMesh in pool tests (never touched)."""


def fake_cache(metrics=None, delay_s=0.0):
    """A MeshCache whose builder fabricates a token instead of meshing."""
    import time as _time

    def builder(params):
        if delay_s:
            _time.sleep(delay_s)
        return FakeMesh()

    return MeshCache(metrics=metrics, builder=builder)


# --------------------------------------------------------------------- keys


class TestMeshCacheKey:
    def test_identical_parameters_share_a_key(self):
        assert mesh_cache_key(tiny_params()) == mesh_cache_key(tiny_params())

    def test_solver_only_switches_share_a_key(self):
        """Attenuation/rotation/record length don't re-mesh: same key."""
        base = tiny_params()
        for change in (
            dict(attenuation=True),
            dict(rotation=True, gravity=True),
            dict(record_length_s=500.0),
            dict(courant=0.3, oceans=True),
            dict(nstep_override=99),
        ):
            assert mesh_cache_key(base) == mesh_cache_key(
                base.with_updates(**change)
            )

    def test_mesh_relevant_fields_change_the_key(self):
        base = tiny_params()
        for change in (
            dict(nex_xi=6),
            dict(ner_crust_mantle=3),
            dict(ellipticity=True),
            dict(topography=True),
            dict(use_3d_model=True),
            dict(seed=999),
        ):
            assert mesh_cache_key(base) != mesh_cache_key(
                base.with_updates(**change)
            )

    def test_key_fields_are_valid_par_file_keys(self):
        full = tiny_params().to_dict()
        for name in MESH_KEY_FIELDS:
            assert name in full

    def test_params_hash_covers_everything(self):
        base = tiny_params()
        assert params_hash(base) != params_hash(
            base.with_updates(attenuation=True)
        )


# -------------------------------------------------------------------- cache


class TestMeshCache:
    def test_hit_and_miss_accounting(self):
        metrics = MetricsRegistry()
        cache = fake_cache(metrics=metrics)
        m1, hit1 = cache.get(tiny_params())
        m2, hit2 = cache.get(tiny_params())
        assert (hit1, hit2) == (False, True)
        assert m1 is m2
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 1
        assert metrics.counter("campaign.mesh_cache.hits").value == 1
        assert metrics.counter("campaign.mesh_cache.misses").value == 1

    def test_different_parameter_sets_do_not_collide(self):
        cache = fake_cache()
        m1, _ = cache.get(tiny_params())
        m2, _ = cache.get(tiny_params(nex_xi=6))
        assert m1 is not m2
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = fake_cache()
        cache.max_entries = 2
        cache.get(tiny_params())
        cache.get(tiny_params(nex_xi=6))
        cache.get(tiny_params(nex_xi=8))  # evicts the first
        assert len(cache) == 2
        _, hit = cache.get(tiny_params())
        assert not hit
        assert cache.stats()["evictions"] >= 1

    def test_single_flight_concurrent_requests(self):
        """8 threads, one key: exactly one build; waiters count as hits."""
        builds = []
        build_lock = threading.Lock()

        def builder(params):
            with build_lock:
                builds.append(1)
            import time as _time

            _time.sleep(0.05)
            return FakeMesh()

        cache = MeshCache(builder=builder)
        results = []

        def worker():
            results.append(cache.get(tiny_params()))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 7
        meshes = {id(m) for m, _ in results}
        assert len(meshes) == 1

    def test_builder_failure_not_cached(self):
        calls = []

        def builder(params):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("flaky mesher")
            return FakeMesh()

        cache = MeshCache(builder=builder)
        with pytest.raises(RuntimeError):
            cache.get(tiny_params())
        mesh, hit = cache.get(tiny_params())
        assert isinstance(mesh, FakeMesh) and not hit

    def test_disk_spill_roundtrip(self, tmp_path):
        """A real (tiny) mesh survives eviction via the disk spill."""
        params = tiny_params()
        cache = MeshCache(max_entries=1, spill_dir=tmp_path)
        m1, _ = cache.get(params)
        cache.get(tiny_params(nex_xi=6))  # evict + spill
        assert (tmp_path / f"mesh-{mesh_cache_key(params)}.mesh").exists()
        m1b, hit = cache.get(params)
        assert hit is False  # not in memory...
        assert cache.stats()["disk_hits"] == 1  # ...but not re-meshed
        for code, rmesh in m1.regions.items():
            np.testing.assert_array_equal(rmesh.xyz, m1b.regions[code].xyz)
            np.testing.assert_array_equal(rmesh.ibool, m1b.regions[code].ibool)
            np.testing.assert_array_equal(rmesh.rho, m1b.regions[code].rho)
            np.testing.assert_array_equal(rmesh.q_mu, m1b.regions[code].q_mu)
            np.testing.assert_array_equal(
                m1.slice_of_element[code], m1b.slice_of_element[code]
            )
        assert m1b.params.to_dict() == params.to_dict()

    def test_spill_roundtrip_direct(self, tmp_path):
        from repro.mesh.mesher import build_global_mesh

        mesh = build_global_mesh(tiny_params())
        path = save_mesh_spill(mesh, tmp_path / "mesh.mesh")
        again = load_mesh_spill(path)
        assert set(again.regions) == set(mesh.regions)
        assert again.cube_elements == mesh.cube_elements


# -------------------------------------------------------------- queue/retry


class TestJobQueue:
    def test_fifo_and_close(self):
        q = JobQueue()
        q.submit(fake_job("a"))
        q.submit(fake_job("b"))
        q.close()
        assert q.pop().name == "a"
        assert q.pop().name == "b"
        assert q.pop() is None
        assert q.status["a"] == JobStatus.RUNNING

    def test_duplicate_names_rejected(self):
        q = JobQueue()
        q.submit(fake_job("a"))
        with pytest.raises(ValueError):
            q.submit(fake_job("a"))

    def test_submit_after_close_rejected(self):
        q = JobQueue()
        q.close()
        with pytest.raises(RuntimeError):
            q.submit(fake_job("a"))

    def test_job_spec_validation(self):
        with pytest.raises(ValueError):
            fake_job("")
        with pytest.raises(ValueError):
            fake_job("x", n_segments=0)


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        p = RetryPolicy(base_delay_s=0.1, factor=2.0, max_delay_s=0.5)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.4)
        assert p.delay(4) == pytest.approx(0.5)  # capped
        assert p.delay(10) == pytest.approx(0.5)

    def test_transient_classification(self):
        p = RetryPolicy()
        assert p.is_retryable(TransientJobError("x"))
        assert p.is_retryable(JobTimeoutError("x"))
        assert p.is_retryable(InjectedFailure("x"))
        assert p.is_retryable(RankFailedError(3, RuntimeError("node down")))
        assert not p.is_retryable(ValueError("bad parameters"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)


# -------------------------------------------------------------- worker pool


class TestWorkerPool:
    def pool(self, **kw):
        kw.setdefault("mesh_cache", fake_cache(metrics=kw.get("metrics")))
        kw.setdefault("runner", fake_runner())
        kw.setdefault("sleep", lambda s: None)
        kw.setdefault(
            "retry_policy", RetryPolicy(max_attempts=3, base_delay_s=0.01)
        )
        return WorkerPool(**kw)

    def test_all_jobs_succeed(self):
        pool = self.pool(n_workers=3)
        results = pool.run([fake_job(f"j{i}") for i in range(5)])
        assert [r.job.name for r in results] == [f"j{i}" for i in range(5)]
        assert all(r.succeeded for r in results)

    def test_injected_failure_retried_with_backoff(self):
        metrics = MetricsRegistry()
        pool = self.pool(n_workers=1, metrics=metrics)
        results = pool.run([fake_job("flaky", inject_failures=2)])
        assert results[0].succeeded
        assert results[0].attempts == 3
        assert results[0].retries == 2
        # Backoff doubled between the two retries.
        assert pool.backoffs == pytest.approx([0.01, 0.02])
        assert metrics.counter("campaign.jobs.retries").value == 2
        assert metrics.counter("campaign.jobs.succeeded").value == 1

    def test_exhausted_retries_fail_the_job(self):
        pool = self.pool()
        results = pool.run([fake_job("doomed", inject_failures=99)])
        assert not results[0].succeeded
        assert results[0].status == JobStatus.FAILED
        assert results[0].attempts == 3
        assert "InjectedFailure" in results[0].error

    def test_permanent_error_fails_without_retry(self):
        def runner(jobs, mesh, tracer, metrics, deadline):
            raise ValueError("bad physics")

        pool = self.pool(runner=runner)
        results = pool.run([fake_job("broken")])
        assert results[0].attempts == 1
        assert "bad physics" in results[0].error

    def test_rank_failure_is_retried(self):
        attempts = []

        def runner(jobs, mesh, tracer, metrics, deadline):
            attempts.append(1)
            if len(attempts) < 3:
                raise RankFailedError(7, RuntimeError("lost node"))
            return [{"seismograms": None, "dt": 0.1}]

        pool = self.pool(runner=runner, n_workers=1)
        results = pool.run([fake_job("cluster-job")])
        assert results[0].succeeded and results[0].attempts == 3

    def test_timeout_enforced_and_retryable(self):
        # The default runner on a real run that takes seconds: it stops
        # at the first step boundary past its wall limit.
        pool = self.pool(runner=None, mesh_cache=MeshCache())
        job = JobSpec(
            name="slow", params=tiny_params(nstep_override=2000),
            sources=[demo_source()], timeout_s=0.1, max_attempts=2,
        )
        results = pool.run([job])
        assert not results[0].succeeded
        assert results[0].attempts == 2
        assert "wall limit" in results[0].error

    def test_per_job_max_attempts_overrides_policy(self):
        pool = self.pool()
        results = pool.run(
            [fake_job("one-shot", inject_failures=5, max_attempts=1)]
        )
        assert results[0].attempts == 1

    def test_store_records_provenance(self, tmp_path):
        store = ResultStore(tmp_path)
        pool = self.pool(store=store)
        pool.run([fake_job("a"), fake_job("b", inject_failures=1)])
        records = store.load()
        assert {r.name for r in records} == {"a", "b"}
        rec = store.get("b")
        assert rec.status == "succeeded"
        assert rec.retries == 1
        assert rec.params_hash and rec.mesh_hash
        assert store.summary()["retries"] == 1

    def test_manifest_read_tolerates_torn_final_line(self, tmp_path):
        """A crash mid-append must cost one line, never the manifest."""
        store = ResultStore(tmp_path)
        pool = self.pool(store=store)
        pool.run([fake_job("a"), fake_job("b")])
        with open(store.manifest_path, "a", encoding="utf-8") as fh:
            fh.write('{"name": "c", "status": "succee')  # torn mid-append
        records, info = store.read_manifest()
        assert {r["name"] for r in records} == {"a", "b"}
        assert info["bad_lines"] == 1
        assert info["lines"] == 3

    def test_manifest_read_filters_record_type(self, tmp_path):
        store = ResultStore(tmp_path)
        pool = self.pool(store=store)
        pool.run([fake_job("a")])
        with open(store.manifest_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"record_type": "campaign_summary",
                                 "jobs": 1}) + "\n")
        summaries, _info = store.read_manifest(
            record_type="campaign_summary"
        )
        assert [s["jobs"] for s in summaries] == [1]
        # Per-job records predate the field and match record_type=None.
        jobs, _info = store.read_manifest()
        assert {r.get("name") for r in jobs} == {"a", None}

    def test_trace_spans_recorded(self):
        pool = self.pool(n_workers=2, trace=True)
        pool.run([fake_job(f"j{i}") for i in range(4)])
        names = [
            r.name for tr in pool.tracers for r in tr.records
        ]
        assert names.count("campaign.job") == 4

    def test_work_items_under_contention(self):
        """More workers than cores draining mixed work items under a
        short switch interval: every job ends with exactly one result
        and one final queue status, in item order."""
        import sys

        import repro.campaign.workers as workers

        queues = []

        class RecordingQueue(workers.JobQueue):
            def __init__(self):
                super().__init__()
                queues.append(self)

        items = [
            [fake_job(f"i{i}j{j}") for j in range(i % 3 + 1)]
            for i in range(30)
        ]
        pool = self.pool(n_workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(workers, "JobQueue", RecordingQueue)
                results = pool.run_items(items)
        finally:
            sys.setswitchinterval(interval)
        names = [job.name for item in items for job in item]
        assert [r.job.name for r in results] == names
        assert all(r.succeeded for r in results)
        assert queues[0].status == dict.fromkeys(names, "succeeded")

    def test_worker_concurrency(self):
        """With 4 workers, 4 blocking jobs overlap in time."""
        barrier = threading.Barrier(4, timeout=10)

        def runner(jobs, mesh, tracer, metrics, deadline):
            barrier.wait()  # deadlocks unless all 4 run concurrently
            return [{}]

        pool = self.pool(runner=runner, n_workers=4)
        results = pool.run([fake_job(f"j{i}") for i in range(4)])
        assert all(r.succeeded for r in results)


# --------------------------------------------------------- acceptance (real)


class TestCampaignAcceptance:
    def test_four_job_campaign_one_mesh_one_injected_failure(self):
        """The subsystem's acceptance scenario, against the real solver.

        Four events share one parameter set: the mesh is built exactly
        once (1 miss / 3 hits) even with concurrent workers, and one
        injected transient failure is survived via retry-with-backoff.
        """
        params = tiny_params(attenuation=True)
        source = [demo_source()]
        stations = [Station("POLE", (0.0, 0.0, constants.R_EARTH_KM))]
        metrics = MetricsRegistry()
        cache = MeshCache(metrics=metrics)
        pool = WorkerPool(
            n_workers=2,
            mesh_cache=cache,
            metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        )
        jobs = [
            JobSpec(
                name=f"event-{i}",
                params=params,
                sources=source,
                stations=stations,
                inject_failures=1 if i == 1 else 0,
            )
            for i in range(4)
        ]
        results = pool.run(jobs)
        assert all(r.succeeded for r in results)
        assert results[1].retries == 1 and results[1].attempts == 2
        assert len(pool.backoffs) == 1
        # One mesh, many events: 1 miss, 3 hits.
        assert metrics.counter("campaign.mesh_cache.misses").value == 1
        assert metrics.counter("campaign.mesh_cache.hits").value == 3
        assert cache.stats() == {
            "entries": 1, "hits": 3, "misses": 1,
            "disk_hits": 0, "evictions": 0, "corruptions": 0,
        }
        # Identical physics from the shared mesh: all four seismograms
        # exist and match bit-for-bit.
        for r in results[1:]:
            np.testing.assert_array_equal(
                results[0].seismograms, r.seismograms
            )
        assert np.abs(results[0].seismograms).max() > 0


# --------------------------------------------------------------- store / CLI


class TestResultStore:
    def test_record_roundtrip_and_query(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record(JobRecord(name="x", status="succeeded", wall_s=1.5))
        store.record(JobRecord(name="y", status="failed", error="boom"))
        assert len(store.load()) == 2
        assert [r.name for r in store.load(status="failed")] == ["y"]
        assert store.get("y").error == "boom"
        with pytest.raises(KeyError):
            store.get("nope")
        # Manifest mirrors every record.
        lines = store.manifest_path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "x"

    def test_rewrite_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record(JobRecord(name="x", status="running"))
        store.record(JobRecord(name="x", status="succeeded"))
        assert store.get("x").status == "succeeded"
        assert len(store.load()) == 1

    def test_render_table(self):
        text = render_campaign_table(
            [
                JobRecord(name="a", status="succeeded", mesh_hash="deadbeef00",
                          cache_hit=True, wall_s=1.0),
                JobRecord(name="b", status="failed", retries=2, attempts=3),
            ],
            cache_stats={"hits": 1, "misses": 1},
        )
        assert "succeeded" in text and "failed" in text
        assert "1 succeeded, 1 failed, 2 retries" in text
        assert "1 built, 1 reused" in text


class TestCampaignCLI:
    def test_example_spec_runs_end_to_end(self, tmp_path, capsys):
        from repro.campaign.__main__ import main

        spec_path = tmp_path / "spec.json"
        assert main(["example-spec", "--out", str(spec_path)]) == 0
        spec = json.loads(spec_path.read_text())
        # Shrink the drill for test speed: one normal job + one faulty.
        spec["jobs"] = spec["jobs"][:2]
        spec_path.write_text(json.dumps(spec))
        store = tmp_path / "store"
        code = main(
            ["run", str(spec_path), "--store", str(store),
             "--workers", "2", "--base-delay-s", "0.01"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "succeeded" in out
        assert "1 built, 1 reused" in out
        assert (store / "manifest.jsonl").exists()
        assert main(["report", str(store)]) == 0
        report = capsys.readouterr().out
        assert "1 distinct meshes across 2 jobs" in report

    def test_report_empty_store(self, tmp_path):
        from repro.campaign.__main__ import main

        assert main(["report", str(tmp_path)]) == 2
