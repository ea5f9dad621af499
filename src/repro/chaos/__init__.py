"""Chaos engineering for the virtual cluster.

Production-scale runs of the paper's class ("about 1 week ... of
dedicated 32K or more processor supercomputer time") fail in three
characteristic ways: the machine loses messages or ranks, the numerics
diverge, and long-lived artifacts rot on disk.  This package makes all
three *testable* on the virtual cluster, as three coupled layers:

* **injection** (:mod:`~repro.chaos.faults`) — seeded, deterministic,
  serializable :class:`FaultPlan`\\ s consulted by the communicator on
  every send and receive, so both halo schedules are attackable
  unmodified;
* **detection** (:mod:`~repro.chaos.sentinel`,
  :mod:`~repro.chaos.integrity`) — the periodic numerical
  :class:`HealthSentinel` in the solver loop, and the one verified
  record every checkpoint, mesh-cache spill and stored run is read
  through;
* **containment** — typed-error classification in the campaign
  :class:`~repro.campaign.queue.RetryPolicy` (transient comm faults
  retry; deterministic numerical/corruption faults fail fast with a
  diagnostic snapshot in the job manifest) and the segmented executor's
  fallback to the last *verified* checkpoint.

:mod:`~repro.chaos.drill` closes the loop: end-to-end drills that
inject, recover, and assert the recovered seismograms are bit-identical
to an undisturbed run.
"""

from .drill import (
    DrillReport,
    run_checkpoint_drill,
    run_comm_drill,
    run_rank_death_drill,
    run_service_drill,
)
from .faults import (
    COMM_FAULT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedRankCrash,
)
from .integrity import (
    CacheCorruptionError,
    IntegrityError,
    array_checksums,
    flip_bit,
)
from .sentinel import HealthSentinel, HealthSnapshot, NumericalHealthError

__all__ = [
    "COMM_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedRankCrash",
    "HealthSentinel",
    "HealthSnapshot",
    "NumericalHealthError",
    "IntegrityError",
    "CacheCorruptionError",
    "CheckpointCorruptionError",
    "array_checksums",
    "flip_bit",
    "DrillReport",
    "run_comm_drill",
    "run_checkpoint_drill",
    "run_service_drill",
    "run_rank_death_drill",
]


def __getattr__(name: str):
    # Lazy re-export: checkpoint.py imports chaos.integrity, so an eager
    # import here would be circular whenever the solver package pulls in
    # checkpointing during chaos's own initialisation.
    if name == "CheckpointCorruptionError":
        from ..solver.checkpoint import CheckpointCorruptionError

        return CheckpointCorruptionError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
