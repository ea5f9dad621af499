"""Elastic rank-failure recovery for the virtual cluster.

The paper's 62K-processor runs live in a regime where losing a single
rank during a multi-hour campaign is routine; this package assembles the
repo's existing ingredients — the chaos seam's crash/stall faults, the
CRC-verified checkpoints, and the launcher's typed failure errors — into
ULFM-style in-run recovery, so a distributed run survives rank loss
instead of restarting from zero:

* :mod:`.detector` — a failure detector at the communicator seam:
  per-rank heartbeats piggybacked on existing traffic, plus a
  recv-deadline escalation path that distinguishes *hung* ranks
  (:class:`~repro.parallel.errors.RankDeathError`) from *stragglers*
  (plain :class:`~repro.parallel.errors.RankTimeoutError`) and emits
  :class:`.detector.RankDeathReport`\\ s.
* :mod:`.remap` — shrink-and-redistribute state transfer: every array
  a solver declares (global-point fields, per-element attenuation
  memory, seismogram buffers) is remapped from a dead world's
  checkpoints onto any smaller world's partition by quantized
  coordinates, the same matching rule the halo builder uses.
* :mod:`.supervisor` — :class:`.supervisor.RunSupervisor`, wrapping
  :func:`~repro.parallel.launcher.run_distributed_simulation` with a
  bounded recovery budget: on a detected death it restores every rank
  from the last *commonly available* CRC-verified checkpoint and resumes
  the time loop, either respawning to the original world size
  (bit-identical to an uninterrupted run) or shrinking to the surviving
  world (tolerance-validated, world-size change recorded in the
  manifest).

See ``docs/resilience.md`` for the detector design, the recovery state
machine, and the bit-identity argument.
"""

from .detector import FailureDetector, RankDeathReport
from .supervisor import (
    RecoveryEvent,
    RecoveryPolicy,
    RunSupervisor,
    SupervisedResult,
)

__all__ = [
    "FailureDetector",
    "RankDeathReport",
    "RecoveryPolicy",
    "RecoveryEvent",
    "RunSupervisor",
    "SupervisedResult",
]
