"""Campaign batching scheduler: pack compatible jobs into batched runs.

The event-batched solver (docs/batching.md) runs B events through one
kernel sweep when they share a mesh and station set.  This module is the
campaign-side half of that optimisation: it inspects a campaign's
:class:`~repro.campaign.queue.JobSpec` list, packs *compatible* jobs —
same ``params_hash`` (so same mesh and physics), same stations, same
step count; only the sources differ — into batched groups, executes each
group as ONE ``run_global_simulation(event_sources=)`` call, and fans
the per-event seismograms back out as ordinary per-job
:class:`~repro.campaign.workers.JobResult` / store records, so
downstream provenance is unchanged (each record simply gains
``batch_size`` / ``batch_index`` / ``batch_key`` metadata).

Packing rules (see docs/batching.md for the rationale):

* batchable — ``n_segments == 1``, no injected failures, no per-job
  stream or timeout (those are per-run concepts that do not decompose
  across a shared solver);
* compatible — equal ``batch_key``: ``params_hash`` + station signature
  + ``n_steps``;
* groups are capped at ``max_batch`` events and preserve first-seen
  submission order; singletons (batchable or not) run through the
  normal worker pool.

Failure isolation: a batched run that dies with a
:class:`~repro.chaos.sentinel.NumericalHealthError` (one diverging event
poisons the shared health check) falls back to running the group's
events sequentially, in the pool's one run with the singletons, so
only the offending event's JobRecord fails — the healthy events
complete normally.  Bit-identity
(docs/batching.md) guarantees the fallback results equal what the
batched run would have produced for the healthy events.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from ..chaos.sentinel import NumericalHealthError
from ..obs.tracer import Tracer, maybe_tracer
from .mesh_cache import mesh_cache_key, params_hash
from .queue import JobSpec, JobStatus
from .store import ResultStore
from .workers import JobResult, WorkerPool

__all__ = ["batch_key", "plan_batches", "run_batched_campaign"]

#: Default cap on events per batched group.  Memory per group scales
#: linearly in B (fields, scratch, attenuation memory all gain the event
#: axis), so the cap bounds the peak footprint; see docs/batching.md for
#: B-selection guidance.
DEFAULT_MAX_BATCH = 8


def _station_signature(stations: list | None) -> str:
    sig = tuple(
        (s.name, tuple(float(c) for c in np.asarray(s.position)))
        for s in (stations or [])
    )
    return hashlib.sha1(repr(sig).encode()).hexdigest()[:16]


def batch_key(job: JobSpec) -> str | None:
    """Grouping key for batchable jobs; ``None`` if the job cannot batch.

    Two jobs with equal keys may share one batched solver run: they have
    the same mesh/physics (``params_hash`` covers every simulation
    parameter), the same stations in the same order, and the same step
    count — only their sources differ, and sources are exactly what the
    event axis carries.
    """
    if (
        job.n_segments != 1
        or job.inject_failures != 0
        or job.stream_path is not None
        or job.timeout_s is not None
    ):
        return None
    return (
        f"{params_hash(job.params)}|{_station_signature(job.stations)}"
        f"|{job.n_steps}"
    )


def plan_batches(
    jobs: list[JobSpec], max_batch: int = DEFAULT_MAX_BATCH
) -> list[list[JobSpec]]:
    """Partition a campaign into execution groups, preserving order.

    Returns a list of groups: each group of length >= 2 is a batched
    run; length-1 groups (non-batchable jobs, or batchable jobs with no
    compatible partner) run through the normal per-job path.  Groups
    appear in order of their first member's submission, and no group
    exceeds ``max_batch`` events.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: list[list[JobSpec]] = []
    open_group_of_key: dict[str, list[JobSpec]] = {}
    for job in jobs:
        key = batch_key(job)
        if key is None:
            groups.append([job])
            continue
        group = open_group_of_key.get(key)
        if group is None or len(group) >= max_batch:
            group = []
            groups.append(group)
            open_group_of_key[key] = group
        group.append(job)
    return groups


def _run_batched_group(
    group: list[JobSpec], pool: WorkerPool, tracer=None
) -> dict[str, JobResult] | None:
    """Execute one >=2-event group as a single batched solver run.

    Fans the batched result out into per-job :class:`JobResult`s (event
    b's seismograms are the leading-axis slice b) and records each into
    the pool's store with batch provenance metadata.  On
    :class:`NumericalHealthError` it returns None: the caller then runs
    the group's events sequentially, so only the offending event fails
    (see module docstring).  With a
    ``tracer`` the group is one ``campaign.batch`` span (counter
    ``events=B``) around the mesh lookup and the solver's spans.
    """
    from ..apps.merged_app import run_global_simulation

    first = group[0]
    key = batch_key(first)
    t0 = time.perf_counter()
    try:
        with maybe_tracer(tracer).span("campaign.batch", events=len(group)):
            mesh, hit = pool.mesh_cache.get(first.params, tracer=tracer)
            sim = run_global_simulation(
                first.params,
                event_sources=[list(job.sources or []) for job in group],
                stations=first.stations,
                n_steps=first.n_steps,
                mesh=mesh,
                tracer=tracer,
                metrics=pool.metrics,
            )
    except NumericalHealthError:
        # One event diverged and poisoned the shared run: fall back to
        # per-event sequential execution so the healthy events complete
        # and only the offending event's record fails (fatal, fail-fast
        # via the pool's retry policy).
        pool._count("batch.fallbacks")
        return None
    wall = time.perf_counter() - t0
    pool._count("batch.groups")
    pool._count("batch.events", len(group))
    out: dict[str, JobResult] = {}
    for b, job in enumerate(group):
        result = JobResult(
            job=job,
            status=JobStatus.SUCCEEDED,
            params_hash=params_hash(job.params),
            mesh_hash=mesh_cache_key(job.params),
            cache_hit=hit,
            wall_s=wall,  # the shared batched wall; see docs/batching.md
            seismograms=(
                sim.seismograms[b] if sim.seismograms is not None else None
            ),
            dt=sim.dt,
            mesher_wall_s=sim.mesher_wall_s,
            solver_wall_s=sim.solver_wall_s,
            payload={
                "batch_size": len(group),
                "batch_index": b,
                "batch_key": key,
            },
        )
        record = result.to_record()
        record.metadata.update(result.payload)
        if pool.store is not None:
            pool.store.record(record)
        pool._count(f"jobs.{result.status}")
        out[job.name] = result
    return out


def run_batched_campaign(
    jobs: list[JobSpec],
    n_workers: int = 2,
    store_dir=None,
    max_batch: int = DEFAULT_MAX_BATCH,
    metrics=None,
    store: ResultStore | None = None,
    **pool_kwargs,
) -> tuple[list[JobResult], WorkerPool]:
    """Run a campaign with the batching scheduler.

    Drop-in alternative to :func:`~repro.campaign.workers.run_campaign`:
    compatible jobs are packed into batched solver runs (one mesh, one
    kernel sweep, one halo message per neighbour per step for all B
    events), everything else drains through the normal worker pool.
    Results come back in submission order, exactly as ``run_campaign``
    returns them; batched results carry ``batch_size`` / ``batch_index``
    / ``batch_key`` in their payload and record metadata.

    With ``trace=True`` the batched groups record into one more tracer
    on the workers' epoch, left in ``pool.tracers`` after the workers'.
    """
    if store is None and store_dir is not None:
        store = ResultStore(store_dir)
    pool = WorkerPool(
        n_workers=n_workers, store=store, metrics=metrics, **pool_kwargs
    )
    tracer = Tracer(pid=n_workers, epoch=pool.epoch) if pool.trace else None
    results: dict[str, JobResult] = {}
    sequential: list[JobSpec] = []
    for group in plan_batches(jobs, max_batch=max_batch):
        batched = len(group) > 1 and _run_batched_group(group, pool, tracer)
        if batched:
            results.update(batched)
        else:
            sequential.extend(group)
    # One pool run for singletons and fallen-back groups keeps every span.
    if sequential:
        results.update(
            dict(zip((j.name for j in sequential), pool.run(sequential)))
        )
    if tracer is not None:
        pool.tracers.append(tracer)
    return [results[job.name] for job in jobs], pool
