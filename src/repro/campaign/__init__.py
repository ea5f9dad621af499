"""Campaign orchestration: job queue, mesh cache, batching, provenance.

The paper's production runs are week-long, 32K+-processor affairs that
no queue wall limit accommodates — real SPECFEM campaigns are chains of
checkpointed segments driven by an external workflow layer (the role
SeisFlows plays around SPECFEM3D_GLOBE).  This package is that layer for
the reproduction, turned toward the ROADMAP's many-concurrent-requests
north star:

* :mod:`~repro.campaign.queue` / :mod:`~repro.campaign.workers` — a job
  queue and worker pool running many simulations concurrently with
  per-job timeouts and retry-with-exponential-backoff over typed
  transient failures (including the launcher's rank failures); a job
  with ``n_segments > 1`` runs as a chain of checkpointed segments of
  :func:`~repro.apps.merged_app.run_global_simulation`, bit-identical
  to an uninterrupted run;
* :mod:`~repro.campaign.mesh_cache` — a content-addressed mesh cache
  (LRU + verified on-disk spill) so N events at one resolution build one
  mesh, not N;
* :mod:`~repro.campaign.batching` — :func:`run_batched_campaign`, the
  one campaign entry: it packs compatible jobs into one event-batched
  run and drains the rest through the worker pool;
* :mod:`~repro.campaign.store` — a JSON run manifest recording per-job
  provenance (parameter/mesh hashes, segments, retries, wall times).

``python -m repro.campaign run spec.json`` submits a campaign from a
JSON spec and prints the summary table; see the README's "Campaigns"
section and ``examples/campaign_demo.py``.
"""

from .batching import batch_key, plan_batches, run_batched_campaign
from .errors import (
    CampaignError,
    InjectedFailure,
    JobTimeoutError,
    TransientJobError,
)
from .mesh_cache import (
    MESH_KEY_FIELDS,
    MeshCache,
    load_mesh_spill,
    mesh_cache_key,
    params_hash,
    save_mesh_spill,
)
from .queue import JobQueue, JobSpec, JobStatus, RetryPolicy
from .store import JobRecord, ResultStore, render_campaign_table
from .workers import JobResult, WorkerPool

__all__ = [
    "CampaignError",
    "InjectedFailure",
    "JobTimeoutError",
    "TransientJobError",
    "MESH_KEY_FIELDS",
    "MeshCache",
    "load_mesh_spill",
    "mesh_cache_key",
    "params_hash",
    "save_mesh_spill",
    "JobQueue",
    "JobSpec",
    "JobStatus",
    "RetryPolicy",
    "JobRecord",
    "ResultStore",
    "render_campaign_table",
    "JobResult",
    "WorkerPool",
    "batch_key",
    "plan_batches",
    "run_batched_campaign",
]
