"""Campaign worker pool: concurrent jobs, timeouts, retry with backoff.

``WorkerPool.run`` drains a :class:`~repro.campaign.queue.JobQueue` with
N worker threads (the NumPy kernels release the GIL, so threads give
real concurrency at this scale).  Each job gets its mesh from the shared
content-addressed :class:`~repro.campaign.mesh_cache.MeshCache`, runs
under a per-job wall limit, and is retried with capped exponential
backoff on transient failures — injected faults, per-job timeouts, and
the launcher's typed :class:`~repro.parallel.launcher.RankFailedError`.
Every outcome lands in the :class:`~repro.campaign.store.ResultStore`
with full provenance.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..obs.tracer import maybe_tracer
from .errors import InjectedFailure, JobTimeoutError
from .mesh_cache import MeshCache, mesh_cache_key, params_hash
from .queue import JobQueue, JobSpec, JobStatus, RetryPolicy
from .store import JobRecord, ResultStore

__all__ = ["JobResult", "WorkerPool"]


@dataclass
class JobResult:
    """In-memory outcome of one job (the store holds the JSON twin)."""

    job: JobSpec
    status: str
    attempts: int = 1
    wall_s: float = 0.0
    seismograms: np.ndarray | None = None
    dt: float = 0.0
    mesh_hash: str = ""
    params_hash: str = ""
    cache_hit: bool = False
    segment_count: int = 1
    mesher_wall_s: float = 0.0
    solver_wall_s: float = 0.0
    error: str | None = None
    #: In-run rank-death recoveries executed by the supervisor
    #: (``job.supervise``); 0 for unsupervised jobs.  Distinct from
    #: ``retries``: a recovery resumes mid-run from checkpoints, a retry
    #: re-runs the whole job.
    recoveries: int = 0
    #: How the final failure was classified: "transient" | "fatal" |
    #: "permanent" (None for successes).
    failure_class: str | None = None
    #: Diagnostic state of a failed health check (``HealthSnapshot
    #: .to_dict()``), persisted into the manifest for post-mortems.
    health_snapshot: dict[str, Any] | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def succeeded(self) -> bool:
        return self.status == JobStatus.SUCCEEDED

    def to_record(self) -> JobRecord:
        return JobRecord(
            name=self.job.name,
            status=self.status,
            params_hash=self.params_hash,
            mesh_hash=self.mesh_hash,
            cache_hit=self.cache_hit,
            segment_count=self.segment_count,
            attempts=self.attempts,
            retries=self.retries,
            recoveries=self.recoveries,
            wall_s=self.wall_s,
            mesher_wall_s=self.mesher_wall_s,
            solver_wall_s=self.solver_wall_s,
            trace_path=self.payload.get("trace_path"),
            stream_path=self.payload.get("stream_path"),
            error=self.error,
            failure_class=self.failure_class,
            health_snapshot=self.health_snapshot,
            metadata=dict(self.job.metadata),
        )


def _default_runner(job: JobSpec, mesh, tracer, metrics) -> dict[str, Any]:
    """Execute one job body: a supervised or a merged serial run.

    A serial job is one ``run_global_simulation`` call, cut into
    ``job.n_segments`` checkpointed segments.

    A ``job.stream_path`` turns on per-step streaming telemetry for the
    job's solver loop; the stream is flushed and closed even when the
    body raises (crash tolerance is the point of the stream), and the
    path is returned in the payload so it lands in the job record.

    ``job.supervise`` routes the body through the resilience
    :class:`~repro.resilience.supervisor.RunSupervisor` on the virtual
    cluster: rank deaths are recovered in-run from per-rank checkpoints,
    and the payload carries ``recoveries`` plus the full recovery
    provenance.  Supervised jobs mesh their own world (the distributed
    partitioner, not the shared-mesh cache), and ``stream_path`` is a
    *directory* of per-rank streams.
    """
    if job.supervise:
        from ..resilience.supervisor import RecoveryPolicy, RunSupervisor

        supervisor = RunSupervisor(
            policy=RecoveryPolicy(max_recoveries=job.max_recoveries),
            tracer=tracer,
            metrics=metrics,
        )
        supervised = supervisor.run(
            job.params,
            sources=job.sources,
            stations=job.stations,
            n_steps=job.n_steps,
            timeout_s=job.timeout_s or 600.0,
            fault_plan=job.fault_plan,
            stream_dir=job.stream_path,
        )
        return {
            "seismograms": supervised.result.seismograms,
            "dt": supervised.result.dt,
            "segment_count": 1,
            "mesher_wall_s": 0.0,
            "solver_wall_s": 0.0,
            "stream_path": job.stream_path,
            "recoveries": supervised.n_recoveries,
            "resilience": supervised.provenance(),
        }
    stream = None
    if job.stream_path is not None:
        from ..obs.stream import StreamingTelemetry

        stream = StreamingTelemetry(
            job.stream_path,
            meta={"job": job.name, "segments": job.n_segments},
        )
    try:
        from ..apps.merged_app import run_global_simulation

        sim = run_global_simulation(
            job.params,
            sources=job.sources,
            stations=job.stations,
            n_steps=job.n_steps,
            mesh=mesh,
            tracer=tracer,
            metrics=metrics,
            stream=stream,
            n_segments=job.n_segments,
        )
        return {
            "seismograms": sim.seismograms,
            "dt": sim.dt,
            "segment_count": sim.n_segments,
            "mesher_wall_s": sim.mesher_wall_s,
            "solver_wall_s": sim.solver_wall_s,
            "stream_path": job.stream_path,
        }
    finally:
        if stream is not None:
            stream.close()


def _call_with_timeout(fn: Callable[[], Any], timeout_s: float | None, label: str):
    """Run ``fn`` with a wall limit; :class:`JobTimeoutError` on overrun.

    The body runs on a daemon helper thread so an overrunning simulation
    cannot wedge the worker (it is abandoned, exactly like a job the
    scheduler kills at the wall limit — restart happens from checkpoints).
    """
    if timeout_s is None:
        return fn()
    box: dict[str, Any] = {}
    done = threading.Event()

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # repro: disable=R5 - re-raised below
            box["error"] = exc
        finally:
            done.set()

    helper = threading.Thread(target=target, daemon=True, name=f"job-{label}")
    helper.start()
    if not done.wait(timeout_s):
        raise JobTimeoutError(
            f"job {label!r} exceeded its wall limit of {timeout_s}s"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


class WorkerPool:
    """N worker threads draining one campaign queue.

    Parameters
    ----------
    n_workers : concurrent jobs (threads; kernels release the GIL).
    retry_policy : backoff schedule and the transient exception set.
    mesh_cache : shared content-addressed cache (one is created if None).
    store : optional :class:`ResultStore` receiving a record per job.
    trace : record per-worker tracers (``pool.tracers``, one per worker
        thread, like the launcher's per-rank tracers) with
        ``campaign.job`` / ``campaign.segment`` spans.  Every tracer the
        pool hands out shares its ``epoch`` (the pool's construction
        time), so all of them sit on one timeline.
    metrics : optional shared registry; jobs emit ``campaign.jobs.*``
        counters (updates are serialised on a pool lock).
    sleep : injectable clock for tests (defaults to :func:`time.sleep`).
    runner : job-body hook ``(job, mesh, tracer, metrics) -> payload
        dict``; defaults to the supervised or merged serial runner.
    """

    def __init__(
        self,
        n_workers: int = 2,
        retry_policy: RetryPolicy | None = None,
        mesh_cache: MeshCache | None = None,
        store: ResultStore | None = None,
        trace: bool = False,
        metrics=None,
        sleep: Callable[[float], None] = time.sleep,
        runner: Callable[..., dict[str, Any]] | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.retry_policy = retry_policy or RetryPolicy()
        self.metrics = metrics
        # ``is not None``: an empty MeshCache is falsy (it has __len__).
        self.mesh_cache = (
            mesh_cache if mesh_cache is not None else MeshCache(metrics=metrics)
        )
        self.store = store
        self.trace = trace
        self.epoch = time.perf_counter()
        #: Per-worker tracers of the last :meth:`run` (empty when
        #: ``trace=False``); merge/export through :mod:`repro.obs`.
        self.tracers: list = []
        self.sleep = sleep
        self.runner = runner or _default_runner
        self.backoffs: list[float] = []  # observed delays (tests, reports)
        self._metrics_lock = threading.Lock()

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            with self._metrics_lock:
                self.metrics.counter(f"campaign.{name}").add(value)

    def _attempt(self, job: JobSpec, attempt: int, tracer) -> dict[str, Any]:
        """One attempt: injected faults fire first, then the real body."""
        if attempt <= job.inject_failures:
            raise InjectedFailure(
                f"job {job.name!r}: injected fault on attempt {attempt}"
            )

        def body() -> dict[str, Any]:
            if job.supervise:
                # Supervised jobs partition their own distributed world
                # (prepare_world) — the shared single-mesh cache does not
                # apply.
                payload = self.runner(job, None, tracer, self.metrics)
                payload.setdefault("cache_hit", False)
                return payload
            mesh, hit = self.mesh_cache.get(job.params, tracer=tracer)
            payload = self.runner(job, mesh, tracer, self.metrics)
            payload.setdefault("cache_hit", hit)
            return payload

        return _call_with_timeout(body, job.timeout_s, job.name)

    def _execute(self, job: JobSpec, queue: JobQueue, tracer=None) -> JobResult:
        policy = self.retry_policy
        max_attempts = job.max_attempts or policy.max_attempts
        tracer = maybe_tracer(tracer)
        result = JobResult(
            job=job,
            status=JobStatus.FAILED,
            params_hash=params_hash(job.params),
            mesh_hash=mesh_cache_key(job.params),
        )
        t0 = time.perf_counter()
        with tracer.span("campaign.job"):
            for attempt in range(1, max_attempts + 1):
                result.attempts = attempt
                try:
                    payload = self._attempt(job, attempt, tracer)
                except Exception as exc:  # noqa: BLE001 - classified below
                    kind = policy.classify(exc)
                    if kind == "transient" and attempt < max_attempts:
                        delay = policy.delay(attempt)
                        self.backoffs.append(delay)
                        self._count("jobs.retries")
                        queue.set_status(job.name, JobStatus.RETRYING)
                        self.sleep(delay)
                        queue.set_status(job.name, JobStatus.RUNNING)
                        continue
                    result.status = JobStatus.FAILED
                    result.failure_class = kind
                    if kind == "fatal":
                        # Fail fast, with diagnostics: a deterministic
                        # failure (diverged solution, corrupt artifact)
                        # keeps its health snapshot in the provenance
                        # record instead of burning the retry budget.
                        self._count("jobs.failed_fast")
                        snap = getattr(exc, "snapshot", None)
                        if snap is not None:
                            result.health_snapshot = snap.to_dict()
                    result.error = (
                        f"{type(exc).__name__}: {exc}"
                        if str(exc)
                        else traceback.format_exception_only(exc)[0].strip()
                    )
                    break
                result.status = JobStatus.SUCCEEDED
                result.payload = payload
                result.seismograms = payload.get("seismograms")
                result.dt = float(payload.get("dt", 0.0))
                result.cache_hit = bool(payload.get("cache_hit", False))
                result.segment_count = int(payload.get("segment_count", 1))
                result.mesher_wall_s = float(payload.get("mesher_wall_s", 0.0))
                result.solver_wall_s = float(payload.get("solver_wall_s", 0.0))
                result.recoveries = int(payload.get("recoveries", 0))
                break
            result.wall_s = time.perf_counter() - t0
            tracer.add(attempts=result.attempts)
        self._count(f"jobs.{result.status}")
        if self.metrics is not None:
            with self._metrics_lock:
                self.metrics.histogram("campaign.job.wall_s").observe(
                    result.wall_s
                )
        queue.set_status(job.name, result.status)
        if self.store is not None:
            self.store.record(result.to_record())
        return result

    # -- API ----------------------------------------------------------------

    def run(self, jobs: list[JobSpec]) -> list[JobResult]:
        """Execute a batch of jobs; results come back in submission order."""
        queue = JobQueue()
        for job in jobs:
            queue.submit(job)
        queue.close()
        n_threads = min(self.n_workers, max(1, len(jobs)))
        if self.trace:
            from ..obs.tracer import Tracer

            self.tracers = [
                Tracer(pid=i, epoch=self.epoch) for i in range(n_threads)
            ]
        else:
            self.tracers = []
        results: dict[str, JobResult] = {}
        results_lock = threading.Lock()
        errors: list[BaseException] = []

        def worker(index: int) -> None:
            tracer = self.tracers[index] if self.tracers else None
            while True:
                job = queue.pop()
                if job is None:
                    return
                try:
                    result = self._execute(job, queue, tracer=tracer)
                # repro: disable=R5 - re-raised on the joining thread
                except BaseException as exc:  # pragma: no cover - defensive
                    errors.append(exc)
                    return
                with results_lock:
                    results[job.name] = result

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"campaign-worker-{i}"
            )
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return [results[job.name] for job in jobs]

