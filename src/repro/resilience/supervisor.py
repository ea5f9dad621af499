"""The run supervisor: bounded in-run recovery from rank death.

A supervised run is a sequence of *epochs*.  Epoch 0 starts at step 0
over the requested world; every epoch checkpoints each rank at fixed
step boundaries through a per-rank
:class:`~repro.solver.checkpoint.CheckpointManager`.  When a rank dies
mid-epoch — an injected crash, a hung peer escalated to ``unresponsive``
by the failure detector, or any real exception — the surviving ranks'
epoch is abandoned, and the supervisor:

1. *classifies* the failure with the campaign's three-bin
   :class:`~repro.campaign.queue.RetryPolicy` and fails fast on the
   non-recoverable bin (a diverged solution re-derives the same NaN on
   any world);
2. checks the *recovery budget* (``max_recoveries``), backing off
   between recoveries;
3. finds the newest step for which **every** rank holds a CRC-verified
   checkpoint (corrupt files are quarantined and older steps tried);
4. rebuilds the world — either *respawn* (same size, every rank reloads
   its own checkpoint: bit-identical to an uninterrupted run, see
   docs/resilience.md) or *shrink* (the next smaller valid
   ``nproc_xi``: the cached-mesh re-partition is rebuilt via
   ``mesh/partition`` inside :func:`~repro.parallel.launcher
   .prepare_world`, and state crosses partitions through
   :mod:`repro.resilience.remap`, validated by tolerance);
5. resumes the time loop from the common step with dt pinned to the
   first world's value (attenuation coefficients depend on dt).

Everything is observable: each recovery is a ``resilience.recover``
tracer span and increments ``resilience.*`` counters, and the
:class:`SupervisedResult` carries the full
:class:`RecoveryEvent`/:class:`~repro.resilience.detector
.RankDeathReport` history that campaign workers thread into job
provenance (``recoveries`` in the manifest record).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..parallel.errors import RankFailedError
from ..parallel.launcher import (
    DistributedResult,
    EpochPlan,
    prepare_world,
    run_distributed_simulation,
    segment_boundaries,
)
from ..solver.checkpoint import CheckpointError, CheckpointManager
from .detector import FailureDetector, RankDeathReport
from .remap import apply_rank_state, remap_world_state

__all__ = [
    "RecoveryPolicy",
    "RecoveryEvent",
    "SupervisedResult",
    "RunSupervisor",
]


@dataclass
class RecoveryPolicy:
    """Knobs of the recovery loop.

    ``mode``: ``"respawn"`` restarts on the original world size (the
    bit-exact path); ``"shrink"`` restarts on the surviving world — the
    next smaller ``nproc_xi`` that divides the mesh.  ``keep``
    bounds per-rank checkpoint retention; note ``keep=1`` can leave
    ranks with disjoint checkpoint sets mid-epoch (rank A pruned the
    step rank B is still on), forcing recovery back to step 0 — use
    ``keep >= 2`` (or None, keep-all) when recovery matters more than
    disk.
    """

    max_recoveries: int = 2
    backoff_s: float = 0.05
    mode: str = "respawn"
    #: Checkpoint interval count: the run is cut into this many spans
    #: and every internal boundary is a checkpoint step.
    n_checkpoint_segments: int = 4
    keep: int | None = None
    suspect_after_s: float = FailureDetector.DEFAULT_SUSPECT_AFTER_S
    probe_interval_s: float = FailureDetector.DEFAULT_PROBE_INTERVAL_S

    def __post_init__(self) -> None:
        if self.mode not in ("respawn", "shrink"):
            raise ValueError(
                f"mode must be 'respawn' or 'shrink', got {self.mode!r}"
            )
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.n_checkpoint_segments < 1:
            raise ValueError("n_checkpoint_segments must be >= 1")


@dataclass
class RecoveryEvent:
    """One executed recovery (who died, where the run resumed)."""

    failed_rank: int
    kind: str
    error: str
    resume_step: int
    old_world_size: int
    new_world_size: int
    wall_s: float

    def to_dict(self) -> dict:
        return {
            "failed_rank": self.failed_rank,
            "kind": self.kind,
            "error": self.error,
            "resume_step": self.resume_step,
            "old_world_size": self.old_world_size,
            "new_world_size": self.new_world_size,
            "wall_s": self.wall_s,
        }


@dataclass
class SupervisedResult:
    """A completed supervised run plus its recovery history."""

    result: DistributedResult
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    reports: list[RankDeathReport] = field(default_factory=list)
    #: World size of each epoch, first to last — more than one entry
    #: means recoveries happened; a changed final entry means a shrink.
    world_sizes: list[int] = field(default_factory=list)

    @property
    def n_recoveries(self) -> int:
        return len(self.recoveries)

    @property
    def final_world_size(self) -> int:
        return self.world_sizes[-1] if self.world_sizes else 0

    def provenance(self) -> dict:
        """The manifest payload campaign workers record per job."""
        return {
            "recoveries": self.n_recoveries,
            "world_sizes": list(self.world_sizes),
            "recovery_events": [e.to_dict() for e in self.recoveries],
            "death_reports": [r.to_dict() for r in self.reports],
        }


class RunSupervisor:
    """Wrap :func:`run_distributed_simulation` with rank-death recovery.

    One supervisor instance supervises one run at a time (``run`` may be
    called repeatedly; checkpoint directories are per-call).
    """

    def __init__(
        self,
        policy: RecoveryPolicy | None = None,
        checkpoint_dir: str | Path | None = None,
        tracer=None,
        metrics=None,
    ):
        self.policy = policy or RecoveryPolicy()
        self.checkpoint_dir = checkpoint_dir
        self.tracer = tracer
        self.metrics = metrics

    # -- internals -----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).add(value)

    def _managers(
        self, directory: Path, size: int
    ) -> dict[int, CheckpointManager]:
        # Checkpoint layout is keyed by world size: a shrunk world must
        # never load another partition's per-rank files by accident.
        return {
            rank: CheckpointManager(
                directory / f"n{size}" / f"rank{rank:04d}",
                keep=self.policy.keep,
                metrics=self.metrics,
            )
            for rank in range(size)
        }

    def _common_resume_step(
        self, managers: dict[int, CheckpointManager], total: int
    ) -> int:
        """Newest step at which EVERY rank holds a verified checkpoint.

        Candidate steps are verified rank by rank; a checkpoint failing
        CRC is quarantined and the next-older common step is tried.
        Returns 0 (cold restart) when no common verified step exists.
        """
        common: set[int] | None = None
        for manager in managers.values():
            steps = {s for s in manager.steps() if s < total}
            common = steps if common is None else (common & steps)
        for step in sorted(common or (), reverse=True):
            ok = True
            for manager in managers.values():
                try:
                    manager.arrays(step)
                except CheckpointError:
                    manager.quarantine(step)
                    self._count("resilience.checkpoint_rejections")
                    ok = False
            if ok:
                return step
        return 0

    def _shrunk_params(self, params):
        """The next smaller valid ``nproc_xi`` for this mesh."""
        for npx in range(params.nproc_xi - 1, 0, -1):
            try:
                candidate = replace(params, nproc_xi=npx)
            except Exception:
                continue
            if params.nex_xi % npx == 0:
                return candidate
        raise RankFailedError(
            -1,
            RuntimeError(
                f"no smaller world available below nproc_xi="
                f"{params.nproc_xi} for nex_xi={params.nex_xi}"
            ),
        )

    # -- the epoch loop ------------------------------------------------------

    def run(
        self,
        params,
        sources: list | None = None,
        stations: list | None = None,
        n_steps: int | None = None,
        timeout_s: float = 600.0,
        recv_timeout_s: float | None = None,
        fault_plan=None,
        overlap: bool | None = None,
        combine_solid_messages: bool = True,
        stream_dir=None,
    ) -> SupervisedResult:
        """Run to completion, recovering from up to ``max_recoveries``
        rank deaths; raises the underlying error when the failure is
        non-recoverable or the budget is exhausted."""
        from ..campaign.queue import RetryPolicy
        from ..obs.tracer import maybe_tracer

        policy = self.policy
        classifier = RetryPolicy()
        tr = maybe_tracer(self.tracer)
        own_dir = self.checkpoint_dir is None
        directory = Path(
            tempfile.mkdtemp(prefix="repro-resilience-")
            if own_dir
            else self.checkpoint_dir
        )
        try:
            world = prepare_world(
                params, sources=sources, stations=stations, overlap=overlap
            )
            dt_pin = world.dt_global
            if n_steps is not None:
                total = int(n_steps)
            elif params.nstep_override is not None:
                total = int(params.nstep_override)
            else:
                import math

                total = max(1, int(math.ceil(params.record_length_s / dt_pin)))
            bounds = segment_boundaries(
                total, min(policy.n_checkpoint_segments, total)
            )
            checkpoint_steps = tuple(stop for _start, stop in bounds[:-1])

            managers = self._managers(directory, world.size)
            start_step = 0
            restore = None
            recoveries: list[RecoveryEvent] = []
            reports: list[RankDeathReport] = []
            world_sizes = [world.size]
            while True:
                detector = FailureDetector(
                    world.size,
                    suspect_after_s=policy.suspect_after_s,
                    probe_interval_s=policy.probe_interval_s,
                )
                epoch_managers = managers

                def save(rank: int, solver, step: int) -> None:
                    epoch_managers[rank].save(solver, step)

                plan = EpochPlan(
                    start_step=start_step,
                    checkpoint_steps=checkpoint_steps,
                    save=save,
                    restore=restore,
                    dt_pin=dt_pin,
                )
                self._count("resilience.epochs")
                try:
                    result = run_distributed_simulation(
                        world.params,
                        n_steps=total,
                        timeout_s=timeout_s,
                        recv_timeout_s=recv_timeout_s,
                        combine_solid_messages=combine_solid_messages,
                        fault_plan=fault_plan,
                        stream_dir=stream_dir,
                        failure_detector=detector,
                        world=world,
                        epoch_plan=plan,
                    )
                    return SupervisedResult(
                        result=result,
                        recoveries=recoveries,
                        reports=reports,
                        world_sizes=world_sizes,
                    )
                except RankFailedError as exc:
                    t_recover = time.perf_counter()
                    root = getattr(exc, "cause", None) or exc
                    if (
                        classifier.classify(exc) == "fatal"
                        or classifier.classify(root) == "fatal"
                    ):
                        # Non-recoverable bin: the same failure would
                        # re-derive on any world.
                        raise
                    self._count("resilience.deaths")
                    failed_rank = int(
                        getattr(exc, "rank", getattr(exc, "failed_rank", -1))
                    )
                    report = detector.report_of(failed_rank)
                    if report is None:
                        report = RankDeathReport(
                            rank=failed_rank, kind="crash", cause=str(root)
                        )
                    reports.append(report)
                    reports.extend(
                        r for r in detector.reports if r is not report
                    )
                    if len(recoveries) >= policy.max_recoveries:
                        raise
                    if policy.backoff_s > 0:
                        time.sleep(policy.backoff_s)
                    with tr.span(
                        "resilience.recover",
                        failed_rank=failed_rank,
                        mode=policy.mode,
                    ) as span:
                        resume = self._common_resume_step(managers, total)
                        if policy.mode == "shrink" and world.size > 6:
                            old_world = world
                            shrunk = self._shrunk_params(world.params)
                            world = prepare_world(
                                shrunk,
                                sources=sources,
                                stations=stations,
                                overlap=overlap,
                            )
                            if resume > 0:
                                old_arrays = {
                                    r: managers[r].arrays(resume)
                                    for r in range(old_world.size)
                                }
                                states = remap_world_state(
                                    old_world.slices,
                                    old_arrays,
                                    world.slices,
                                    old_station_names={
                                        r: [s.name for s in names]
                                        for r, names in
                                        old_world.station_assignment.items()
                                    },
                                    new_station_names={
                                        r: [s.name for s in names]
                                        for r, names in
                                        world.station_assignment.items()
                                    },
                                )

                                def restore(rank: int, solver) -> None:
                                    apply_rank_state(solver, states[rank])

                            else:
                                restore = None
                            managers = self._managers(directory, world.size)
                            world_sizes.append(world.size)
                        else:
                            # Respawn to the original size: each rank
                            # reloads its OWN checkpoint — the bit-exact
                            # path (docs/resilience.md).
                            world_sizes.append(world.size)
                            if resume > 0:
                                resume_managers = managers

                                def restore(rank: int, solver) -> None:
                                    resume_managers[rank].load(solver, resume)

                            else:
                                restore = None
                        start_step = resume
                        span.add(resume_step=resume, world_size=world.size)
                    event = RecoveryEvent(
                        failed_rank=failed_rank,
                        kind=report.kind,
                        error=str(exc),
                        resume_step=resume,
                        old_world_size=world_sizes[-2],
                        new_world_size=world_sizes[-1],
                        wall_s=time.perf_counter() - t_recover,
                    )
                    recoveries.append(event)
                    self._count("resilience.recoveries")
                    self._count(
                        "resilience.steps_resumed", max(0, total - resume)
                    )
        finally:
            if own_dir:
                shutil.rmtree(directory, ignore_errors=True)
