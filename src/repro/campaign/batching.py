"""Campaign batching scheduler: pack compatible jobs into batched runs.

The event-batched solver (docs/batching.md) runs B events through one
kernel sweep when they share a mesh and station set.  This module is the
campaign-side half of that optimisation: it inspects a campaign's
:class:`~repro.campaign.queue.JobSpec` list and packs *compatible* jobs —
same ``params_hash`` (so same mesh and physics), same stations, same
step count; only the sources differ — into groups.
:func:`run_batched_campaign` hands every group to the
:class:`~repro.campaign.workers.WorkerPool` as one work item: a worker
runs it as ONE ``run_global_simulation(event_sources=)`` call and fans
the per-event seismograms back out as ordinary per-job results and
store records, so downstream provenance is unchanged (each record
simply gains ``batch_size`` / ``batch_index`` / ``batch_key``
metadata).

Packing rules (see docs/batching.md for the rationale):

* batchable — ``n_segments == 1``, not supervised, no injected
  failures, no per-job stream or timeout (those are per-run concepts
  that do not decompose across a shared solver; a supervised job runs
  on the virtual cluster with its own fault plan and recovery budget);
* compatible — equal ``batch_key``: ``params_hash`` + station signature
  + ``n_steps``;
* groups are capped at ``max_batch`` events and preserve first-seen
  submission order; singletons (batchable or not) are work items of
  one job.

Failure isolation: when a batched run raises — a
:class:`~repro.chaos.sentinel.NumericalHealthError` because one
diverging event poisoned the shared health check, or any other
exception — the worker re-runs the group's events one by one, each a
one-job item with its own retries and classification, so only the
offending event's JobRecord fails and the healthy events complete
normally.  Bit-identity (docs/batching.md) guarantees the fallback
results equal what the batched run would have produced for the healthy
events.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from .mesh_cache import params_hash
from .queue import JobSpec
from .store import ResultStore

if TYPE_CHECKING:  # workers imports batch_key from here
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
        or job.supervise
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

    Returns a list of groups, each one work item of the pool: a group
    of length >= 2 is a batched run; length-1 groups (non-batchable
    jobs, or batchable jobs with no compatible partner) run alone.  Groups
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


def run_batched_campaign(
    jobs: list[JobSpec],
    n_workers: int = 2,
    store_dir=None,
    max_batch: int = DEFAULT_MAX_BATCH,
    metrics=None,
    **pool_kwargs,
) -> tuple[list[JobResult], WorkerPool]:
    """Run a campaign: the package's one campaign entry.

    The jobs are packed by :func:`plan_batches` and every group drains
    through one :class:`~repro.campaign.workers.WorkerPool` built from
    ``pool_kwargs`` (``retry_policy``, ``mesh_cache``, ``trace``, ...)
    as one work item: a group of B compatible jobs is one batched solver
    run on a worker (one mesh, one kernel sweep, one halo message per
    neighbour per step for all B events).  Results come back in
    submission order; batched results carry ``batch_size`` /
    ``batch_index`` / ``batch_key`` in their payload and record
    metadata.  ``store_dir`` names the
    :class:`~repro.campaign.store.ResultStore` directory that receives
    one record per job.
    """
    from .workers import WorkerPool  # imported late: it imports batch_key

    store = ResultStore(store_dir) if store_dir is not None else None
    pool = WorkerPool(
        n_workers=n_workers, store=store, metrics=metrics, **pool_kwargs
    )
    results = {
        result.job.name: result
        for result in pool.run_items(plan_batches(jobs, max_batch=max_batch))
    }
    return [results[job.name] for job in jobs], pool
