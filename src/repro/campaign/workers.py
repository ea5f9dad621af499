"""Campaign worker pool: concurrent jobs, timeouts, retry with backoff.

The pool is the one executor of campaign jobs.  It drains a
:class:`~repro.campaign.queue.JobQueue` of *work items* with N worker
threads (the NumPy kernels release the GIL, so threads give real
concurrency at this scale).  A work item is a list of jobs that share
one solver run: a :func:`~repro.campaign.batching.plan_batches` group,
or one job (``WorkerPool.run`` makes every job an item of one).  Each
item gets its mesh from the shared content-addressed
:class:`~repro.campaign.mesh_cache.MeshCache` and runs on the worker's
own thread under a per-job wall limit that the run enforces itself, and
a one-job item is retried with capped exponential backoff on transient
failures — injected faults, wall-limit overruns, and the launcher's
typed :class:`~repro.parallel.launcher.RankFailedError`.
A batched item that fails re-runs its jobs as one-job items.  Every
job's outcome lands in the :class:`~repro.campaign.store.ResultStore`
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
from .batching import batch_key
from .errors import InjectedFailure, JobTimeoutError
from .mesh_cache import MeshCache, mesh_cache_key, params_hash
from .queue import JobQueue, JobSpec, JobStatus, RetryPolicy
from .store import JobRecord, ResultStore

__all__ = ["JobResult", "WorkerPool"]

#: Provenance a job of a batched work item carries in its payload and
#: record metadata: the item's size, the job's event index, the group key.
BATCH_FIELDS = ("batch_size", "batch_index", "batch_key")


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
            metadata={
                **self.job.metadata,
                **{k: self.payload[k] for k in BATCH_FIELDS if k in self.payload},
            },
        )


def _default_runner(
    jobs: list[JobSpec], mesh, tracer, metrics, deadline: float | None
) -> list[dict[str, Any]]:
    """Execute one work item: a supervised run or one merged serial run,
    whose ``timeout_s`` is what is left of ``deadline`` (None: no limit).

    The serial body is one ``run_global_simulation`` call whose
    ``event_sources`` hold every job's sources: B = ``len(jobs)`` events
    share one solver (docs/batching.md), cut into ``n_segments``
    checkpointed segments, and job b's payload carries the event-b slice
    of the seismograms.  Only the slices outlive the call, never the
    solver.

    A ``stream_path`` turns on per-step streaming telemetry for the
    job's solver loop; the stream is flushed and closed even when the
    body raises (crash tolerance is the point of the stream), and the
    path is returned in the payload so it lands in the job record.

    ``supervise`` routes the body through the resilience
    :class:`~repro.resilience.supervisor.RunSupervisor` on the virtual
    cluster: rank deaths are recovered in-run from per-rank checkpoints,
    and the payload carries ``recoveries`` plus the full recovery
    provenance.  A supervised job runs alone (``batch_key`` never packs
    one), meshes its own world (the distributed partitioner, not the
    shared-mesh cache), reports that world's set-up as
    ``mesher_wall_s``, and its ``stream_path`` is a *directory* of
    per-rank streams.
    """
    job = jobs[0]
    timeout_s = None if deadline is None else deadline - time.monotonic()
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
            timeout_s=timeout_s,
            fault_plan=job.fault_plan,
            stream_dir=job.stream_path,
        )
        return [{
            "seismograms": supervised.result.seismograms,
            "dt": supervised.result.dt,
            "segment_count": 1,
            "mesher_wall_s": supervised.mesher_wall_s,
            "solver_wall_s": supervised.solver_wall_s,
            "stream_path": job.stream_path,
            "recoveries": supervised.n_recoveries,
            "resilience": supervised.provenance(),
        }]
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
            event_sources=[list(j.sources or []) for j in jobs],
            stations=job.stations,
            n_steps=job.n_steps,
            mesh=mesh,
            tracer=tracer,
            metrics=metrics,
            stream=stream,
            n_segments=job.n_segments,
            timeout_s=timeout_s,
        )
        seismograms = sim.seismograms
        return [
            {
                "seismograms": (
                    seismograms[b] if seismograms is not None else None
                ),
                "dt": sim.dt,
                "segment_count": sim.n_segments,
                "mesher_wall_s": sim.mesher_wall_s,
                "solver_wall_s": sim.solver_wall_s,
                "stream_path": job.stream_path,
            }
            for b in range(len(jobs))
        ]
    finally:
        if stream is not None:
            stream.close()


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
        ``campaign.job`` / ``campaign.batch`` / ``campaign.segment``
        spans.  Every tracer the pool hands out shares its ``epoch``
        (the pool's construction time), so all of them sit on one
        timeline.
    metrics : optional shared registry; jobs emit ``campaign.jobs.*``
        counters (updates are serialised on a pool lock).
    sleep : injectable clock for tests (defaults to :func:`time.sleep`).
    runner : work-item hook ``(jobs, mesh, tracer, metrics, deadline)
        -> list of payload dicts``, one per job, run on the worker's
        thread (default: the supervised or merged serial runner).
        ``deadline`` is the attempt's ``time.monotonic()`` wall limit
        (None without ``timeout_s``), stamped before the mesh-cache
        lookup; a :class:`TimeoutError` past it is a :class:`JobTimeoutError`.
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
        runner: Callable[..., list[dict[str, Any]]] | None = None,
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
        #: Per-worker tracers of the last :meth:`run_items` (empty when
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

    def _attempt(
        self, item: list[JobSpec], attempt: int, tracer
    ) -> list[dict[str, Any]]:
        """One attempt: injected faults fire first, then the real body."""
        lead = item[0]
        if attempt <= lead.inject_failures:
            raise InjectedFailure(
                f"job {lead.name!r}: injected fault on attempt {attempt}"
            )
        limit = lead.timeout_s
        deadline = None if limit is None else time.monotonic() + limit
        # Supervised jobs partition their own distributed world
        # (prepare_world) — the shared single-mesh cache does not apply.
        mesh, hit = (
            (None, False)
            if lead.supervise
            else self.mesh_cache.get(lead.params, tracer=tracer)
        )
        try:
            payloads = self.runner(item, mesh, tracer, self.metrics, deadline)
        except TimeoutError as exc:
            if deadline is None or time.monotonic() < deadline:
                raise  # a receive deadline, not the wall limit
            raise JobTimeoutError(
                f"job {lead.name!r} exceeded its wall limit of {limit}s"
            ) from exc
        for payload in payloads:
            payload.setdefault("cache_hit", hit)
        return payloads

    def _execute(
        self, item: list[JobSpec], queue: JobQueue, tracer=None
    ) -> list[JobResult]:
        """Run one work item to one final result per job.

        A one-job item is one ``campaign.job`` span and retries
        transient failures with backoff.  A multi-job item is one
        ``campaign.batch`` span (counter ``events=B``) and one attempt:
        if it raises anything, its jobs re-run here as one-job items, so
        each is retried and classified on its own.
        """
        policy = self.retry_policy
        lead = item[0]
        batched = len(item) > 1
        max_attempts = 1 if batched else (lead.max_attempts or policy.max_attempts)
        tracer = maybe_tracer(tracer)
        for job in item[1:]:
            queue.set_status(job.name, JobStatus.RUNNING)
        span = (
            tracer.span("campaign.batch", events=len(item))
            if batched
            else tracer.span("campaign.job")
        )
        payloads, failure = None, {}
        t0 = time.perf_counter()
        with span:
            for attempt in range(1, max_attempts + 1):
                try:
                    payloads = self._attempt(item, attempt, tracer)
                except Exception as exc:  # noqa: BLE001 - classified below
                    if batched:
                        # One event diverged or the shared run failed
                        # otherwise: re-run the events alone below, so
                        # only the offending job's record fails.
                        break
                    kind = policy.classify(exc)
                    if kind == "transient" and attempt < max_attempts:
                        delay = policy.delay(attempt)
                        self.backoffs.append(delay)
                        self._count("jobs.retries")
                        queue.set_status(lead.name, JobStatus.RETRYING)
                        self.sleep(delay)
                        queue.set_status(lead.name, JobStatus.RUNNING)
                        continue
                    failure["failure_class"] = kind
                    if kind == "fatal":
                        # Fail fast, with diagnostics: a deterministic
                        # failure (diverged solution, corrupt artifact)
                        # keeps its health snapshot in the provenance
                        # record instead of burning the retry budget.
                        self._count("jobs.failed_fast")
                        # A diverged rank's snapshot is on its cause.
                        cause = getattr(exc, "cause", exc)
                        snap = getattr(cause, "snapshot", None)
                        if snap is not None:
                            failure["health_snapshot"] = snap.to_dict()
                    failure["error"] = (
                        f"{type(exc).__name__}: {exc}"
                        if str(exc)
                        else traceback.format_exception_only(exc)[0].strip()
                    )
                break
            wall_s = time.perf_counter() - t0
            tracer.add(attempts=attempt)
        if batched and payloads is None:
            self._count("batch.fallbacks")
            return [
                result
                for job in item
                for result in self._execute([job], queue, tracer=tracer)
            ]
        if batched:
            self._count("batch.groups")
            self._count("batch.events", len(item))
        status = JobStatus.FAILED if payloads is None else JobStatus.SUCCEEDED
        key = batch_key(lead) if batched else None
        results = []
        for b, (job, payload) in enumerate(
            zip(item, payloads or [{}], strict=True)
        ):
            if batched:
                payload.update(batch_size=len(item), batch_index=b, batch_key=key)
            result = JobResult(
                job=job,
                status=status,
                attempts=attempt,
                wall_s=wall_s,  # a batch's jobs share its wall
                seismograms=payload.get("seismograms"),
                dt=float(payload.get("dt", 0.0)),
                params_hash=params_hash(job.params),
                mesh_hash=mesh_cache_key(job.params),
                cache_hit=bool(payload.get("cache_hit", False)),
                segment_count=int(payload.get("segment_count", 1)),
                mesher_wall_s=float(payload.get("mesher_wall_s", 0.0)),
                solver_wall_s=float(payload.get("solver_wall_s", 0.0)),
                recoveries=int(payload.get("recoveries", 0)),
                payload=payload,
                **failure,
            )
            self._count(f"jobs.{status}")
            if self.metrics is not None:
                with self._metrics_lock:
                    self.metrics.histogram("campaign.job.wall_s").observe(wall_s)
            queue.set_status(job.name, status)
            if self.store is not None:
                self.store.record(result.to_record())
            results.append(result)
        return results

    # -- API ----------------------------------------------------------------

    def run(self, jobs: list[JobSpec]) -> list[JobResult]:
        """Execute jobs, one work item each; results in submission order."""
        return self.run_items([[job] for job in jobs])

    def run_items(self, items: list[list[JobSpec]]) -> list[JobResult]:
        """Execute work items: each a list of jobs that share one solver
        run (a :func:`~repro.campaign.batching.plan_batches` group, or one
        job).  Every job gets a queue status and a result; results come
        back in item order, an item's jobs in their order."""
        queue = JobQueue()
        for item in items:
            # The queue dispatches an item by its lead job; the others
            # share its fate, and their statuses, from here on.
            queue.submit(item[0])
            for job in item[1:]:
                if job.name in queue.status:
                    raise ValueError(f"duplicate job name {job.name!r}")
                queue.set_status(job.name, JobStatus.PENDING)
        queue.close()
        item_of = {item[0].name: item for item in items}
        n_threads = min(self.n_workers, max(1, len(items)))
        tracers = [None] * n_threads
        if self.trace:
            from ..obs.tracer import Tracer

            tracers = [Tracer(pid=i, epoch=self.epoch) for i in range(n_threads)]
        # Each worker gets its tracer as an argument: a concurrent run
        # replaces ``self.tracers`` (the last run's) while this one works.
        self.tracers = tracers if self.trace else []
        results: dict[str, list[JobResult]] = {}
        results_lock = threading.Lock()
        errors: list[BaseException] = []

        def worker(tracer) -> None:
            while True:
                lead = queue.pop()
                if lead is None:
                    return
                try:
                    done = self._execute(item_of[lead.name], queue, tracer)
                # repro: disable=R5 - re-raised on the joining thread
                except BaseException as exc:  # pragma: no cover - defensive
                    errors.append(exc)
                    return
                with results_lock:
                    results[lead.name] = done

        threads = [
            threading.Thread(
                target=worker, args=(tracer,), name=f"campaign-worker-{i}"
            )
            for i, tracer in enumerate(tracers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return [result for item in items for result in results[item[0].name]]
