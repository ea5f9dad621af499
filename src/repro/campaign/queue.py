"""Campaign job queue: specs, states, retry policy, FIFO dispatch.

A *campaign* is a batch of simulation jobs — typically many seismic
events sharing a mesh resolution — executed by a worker pool against
queue-of-record semantics: every submitted job ends in exactly one of
``succeeded`` / ``failed``, with its full attempt history recorded.  The
retry policy implements capped exponential backoff over the *transient*
error types (see :mod:`repro.campaign.errors` and the launcher's
:class:`~repro.parallel.launcher.RankFailedError`); permanent errors
(bad parameters, mesh mismatches) fail the job on the first attempt.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..chaos.sentinel import NumericalHealthError
from ..config.parameters import ConfigError, SimulationParameters
from ..parallel.launcher import RankFailedError
from ..solver.checkpoint import CheckpointCorruptionError
from .errors import TransientJobError

__all__ = ["JobSpec", "JobStatus", "JobQueue", "RetryPolicy"]


class JobStatus:
    """Lifecycle states of a campaign job."""

    PENDING = "pending"
    RUNNING = "running"
    RETRYING = "retrying"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class JobSpec:
    """One simulation request: what to run and how to treat failures.

    ``n_segments > 1`` cuts the job's
    :func:`~repro.apps.merged_app.run_global_simulation` into that many
    checkpointed segments (the checkpoint–restart chain);
    ``inject_failures = k`` makes the first ``k`` attempts raise
    :class:`~repro.campaign.errors.InjectedFailure` — the standing fault
    drill that keeps the retry path honest.

    ``stream_path`` turns on per-step streaming telemetry for the job:
    the worker samples the solver loop into a
    :class:`~repro.obs.stream.StreamingTelemetry` ring buffer flushed to
    that JSONL path (the path lands in the job's provenance record, so
    the campaign aggregator can find it).

    ``supervise = True`` routes the job through the
    :class:`~repro.resilience.supervisor.RunSupervisor`: it runs on the
    virtual cluster with the failure detector armed, and a rank death
    mid-run is recovered *in-run* from per-rank checkpoints (up to
    ``max_recoveries`` times) instead of burning a whole-job retry —
    the recovery count lands in the job's provenance record.
    ``fault_plan`` (a :class:`~repro.chaos.faults.FaultPlan`) injects
    faults into a supervised job, the standing rank-death drill.
    """

    name: str
    params: SimulationParameters
    sources: list | None = None
    stations: list | None = None
    n_steps: int | None = None
    n_segments: int = 1
    timeout_s: float | None = None
    max_attempts: int | None = None  # None = the pool policy's default
    inject_failures: int = 0
    stream_path: str | None = None
    supervise: bool = False
    fault_plan: Any = None
    max_recoveries: int = 2
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.n_segments < 1:
            raise ValueError(f"n_segments must be >= 1, got {self.n_segments}")
        if self.inject_failures < 0:
            raise ValueError("inject_failures must be >= 0")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.supervise and self.n_segments > 1:
            raise ValueError(
                "supervise runs on the distributed cluster with its own "
                "epoch checkpointing; n_segments must be 1"
            )
        if self.fault_plan is not None and not self.supervise:
            raise ValueError("fault_plan requires supervise=True")


@dataclass
class RetryPolicy:
    """Capped exponential backoff over transient failures.

    ``delay(attempt)`` is the sleep before re-running attempt number
    ``attempt`` (1-based; the first retry waits ``base_delay_s``).

    :meth:`classify` sorts failures into three bins with distinct
    handling:

    * ``"transient"`` (``retry_on``) — lost ranks, timeouts, dropped
      messages: re-running may succeed, so retry with backoff;
    * ``"fatal"`` (``no_retry_on``) — deterministic failures such as a
      diverged solution (:class:`~repro.chaos.sentinel
      .NumericalHealthError`) or a corrupt checkpoint the segmented
      executor could not route around, also as the ``cause`` of a
      :class:`RankFailedError` (a rank that diverged): fail fast on the
      first attempt, persisting the diagnostic snapshot, instead of
      burning the whole retry budget re-deriving the same NaN;
    * ``"permanent"`` — everything else (bad parameters, code bugs).

    ``no_retry_on`` wins when an exception type matches both (e.g. a
    subclass crafted to be both transient and fatal): fail-fast is the
    conservative reading.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 5.0
    retry_on: tuple[type[BaseException], ...] = (
        TransientJobError,  # JobTimeoutError and InjectedFailure too
        RankFailedError,
    )
    no_retry_on: tuple[type[BaseException], ...] = (
        NumericalHealthError,
        CheckpointCorruptionError,
        ConfigError,
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.base_delay_s * self.factor ** (attempt - 1), self.max_delay_s
        )

    def classify(self, exc: BaseException) -> str:
        """``"fatal"`` | ``"transient"`` | ``"permanent"`` (see class doc)."""
        if isinstance(exc, RankFailedError):
            if isinstance(exc.cause, self.no_retry_on):
                return "fatal"
        if isinstance(exc, self.no_retry_on):
            return "fatal"
        if isinstance(exc, self.retry_on):
            return "transient"
        return "permanent"

    def is_retryable(self, exc: BaseException) -> bool:
        return self.classify(exc) == "transient"


class JobQueue:
    """Thread-safe FIFO of :class:`JobSpec` with per-job status tracking.

    Workers ``pop()`` jobs; ``None`` means the queue is closed and
    drained.  Retries back off inside the owning worker (see
    :class:`~repro.campaign.workers.WorkerPool`), surfacing here as the
    ``retrying`` status.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[JobSpec] = deque()
        self._closed = False
        self.status: dict[str, str] = {}

    def submit(self, job: JobSpec) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if job.name in self.status:
                raise ValueError(f"duplicate job name {job.name!r}")
            self.status[job.name] = JobStatus.PENDING
            self._queue.append(job)
            self._not_empty.notify()

    def close(self) -> None:
        """No further submits; ``pop`` returns None once drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def pop(self) -> JobSpec | None:
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                self._not_empty.wait()
            job = self._queue.popleft()
            self.status[job.name] = JobStatus.RUNNING
            return job

    def set_status(self, name: str, status: str) -> None:
        with self._lock:
            self.status[name] = status

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)
