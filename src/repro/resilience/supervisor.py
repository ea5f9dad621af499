"""The run supervisor: bounded in-run recovery from rank death.

A supervised run is a sequence of *epochs*.  Epoch 0 starts at step 0
over the requested world; every epoch checkpoints each rank at fixed
step boundaries through a per-rank
:class:`~repro.solver.checkpoint.CheckpointManager`.  When a rank dies
mid-epoch — an injected crash, a hung peer escalated to ``unresponsive``
by the failure detector, or any real exception — or a receive expires
on a live peer (a lost message: recovered alike, but no death is filed
and its event's kind is ``timeout``), the surviving ranks' epoch is
abandoned, and the supervisor:

1. *classifies* the failure with the campaign's three-bin
   :class:`~repro.campaign.queue.RetryPolicy` and fails fast on the
   non-recoverable bin (a diverged solution re-derives the same NaN on
   any world);
2. checks the *recovery budget* (``max_recoveries``), backing off
   between recoveries;
3. walks back (:func:`~repro.solver.checkpoint.walk_back`) to the
   newest checkpoint step for which **every** rank holds a CRC-verified
   record (corrupt files are quarantined and older steps tried), reading
   each rank's record once;
4. rebuilds the world from those verified arrays — either *respawn*
   (same size, every rank restores its own record: bit-identical to an
   uninterrupted run, see docs/resilience.md) or *shrink* (the next
   smaller valid ``nproc_xi``: the cached-mesh re-partition is rebuilt
   via ``mesh/partition`` inside :func:`~repro.parallel.launcher
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

from ..config.parameters import ParameterError
from ..parallel.comm import VirtualCluster
from ..parallel.errors import RankFailedError, RankTimeoutError
from ..parallel.launcher import (
    DistributedResult,
    EpochPlan,
    prepare_world,
    run_distributed_simulation,
    segment_boundaries,
)
from ..solver.checkpoint import CheckpointManager, restore_state, walk_back
from .detector import FailureDetector, RankDeathReport
from .remap import WorldRemap

__all__ = [
    "RecoveryPolicy",
    "RecoveryEvent",
    "SupervisedResult",
    "RunSupervisor",
]

#: Checkpoint interval count: a supervised run is cut into this many
#: spans and every internal boundary is a checkpoint step.
CHECKPOINT_SEGMENTS = 4
#: Pause before each recovery, seconds.
BACKOFF_S = 0.05


@dataclass
class RecoveryPolicy:
    """Knobs of the recovery loop.

    ``mode``: ``"respawn"`` restarts on the original world size (the
    bit-exact path); ``"shrink"`` restarts on the surviving world — the
    next smaller ``nproc_xi`` that divides the mesh.
    """

    max_recoveries: int = 2
    mode: str = "respawn"
    suspect_after_s: float = FailureDetector.DEFAULT_SUSPECT_AFTER_S

    def __post_init__(self) -> None:
        if self.mode not in ("respawn", "shrink"):
            raise ValueError(
                f"mode must be 'respawn' or 'shrink', got {self.mode!r}"
            )
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")


@dataclass
class RecoveryEvent:
    """One executed recovery (who failed, where the run resumed).

    ``kind`` is the failed rank's report kind (``crash``,
    ``unresponsive``), or ``timeout`` when ``failed_rank``'s own receive
    expired on a live peer: a lost message or a straggler, no death.
    """

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
    #: Wall of every ``prepare_world`` (the first world and each shrink
    #: re-partition) and of every epoch's time loop, failed ones included.
    mesher_wall_s: float = 0.0
    solver_wall_s: float = 0.0

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
    called repeatedly; each call checkpoints into its own temporary
    directory, removed when it returns).
    """

    def __init__(
        self,
        policy: RecoveryPolicy | None = None,
        tracer=None,
        metrics=None,
    ):
        self.policy = policy or RecoveryPolicy()
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
                metrics=self.metrics,
            )
            for rank in range(size)
        }

    def _shrunk_params(self, params):
        """The next smaller valid ``nproc_xi`` for this mesh."""
        for npx in range(params.nproc_xi - 1, 0, -1):
            try:
                return replace(params, nproc_xi=npx)
            except ParameterError:
                continue
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
        timeout_s: float | None = None,
        recv_timeout_s: float | None = None,
        fault_plan=None,
        overlap: bool | None = None,
        stream_dir=None,
    ) -> SupervisedResult:
        """Run to completion, recovering from up to ``max_recoveries``
        rank deaths; raises the underlying error when the failure is
        non-recoverable or the budget is exhausted.

        ``timeout_s`` (default :data:`VirtualCluster.DEFAULT_TIMEOUT_S`)
        is one deadline over all epochs; an epoch failing past it is
        re-raised, not recovered: an expired deadline is not a death."""
        from ..campaign.queue import RetryPolicy
        from ..obs.tracer import maybe_tracer

        policy = self.policy
        classifier = RetryPolicy()
        tr = maybe_tracer(self.tracer)
        deadline = time.monotonic() + (
            VirtualCluster.DEFAULT_TIMEOUT_S if timeout_s is None else timeout_s
        )
        directory = Path(tempfile.mkdtemp(prefix="repro-resilience-"))
        try:
            t_mesh = time.perf_counter()
            world = prepare_world(
                params, sources=sources, stations=stations, overlap=overlap
            )
            mesher_s = time.perf_counter() - t_mesh
            solver_s = 0.0
            dt_pin = world.dt_global
            total = int(n_steps) if n_steps is not None else params.step_count(dt_pin)
            bounds = segment_boundaries(total, min(CHECKPOINT_SEGMENTS, total))
            checkpoint_steps = tuple(stop for _start, stop in bounds[:-1])

            managers = self._managers(directory, world.size)
            start_step = 0
            restore = None
            recoveries: list[RecoveryEvent] = []
            reports: list[RankDeathReport] = []
            world_sizes = [world.size]
            while True:
                detector = FailureDetector(
                    world.size, suspect_after_s=policy.suspect_after_s
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
                t_epoch = time.perf_counter()
                try:
                    result = run_distributed_simulation(
                        world.params,
                        n_steps=total,
                        timeout_s=deadline - time.monotonic(),
                        recv_timeout_s=recv_timeout_s,
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
                        mesher_wall_s=mesher_s,
                        solver_wall_s=solver_s
                        + time.perf_counter() - t_epoch,
                    )
                except RankFailedError as exc:
                    t_recover = time.perf_counter()
                    solver_s += t_recover - t_epoch
                    if time.monotonic() >= deadline:
                        raise
                    if classifier.classify(exc) == "fatal":
                        # Non-recoverable bin: the same failure would
                        # re-derive on any world.
                        raise
                    failed_rank = exc.rank
                    report = detector.report_of(failed_rank)
                    if report is None and not isinstance(exc, RankTimeoutError):
                        report = RankDeathReport(
                            rank=failed_rank, kind="crash", cause=str(exc.cause)
                        )
                    # A receive that expired on a live peer is no death:
                    # nothing is filed, and the recovery says "timeout".
                    kind = "timeout" if report is None else report.kind
                    if report is not None:
                        self._count("resilience.deaths")
                        reports.append(report)
                    reports.extend(
                        r for r in detector.reports if r is not report
                    )
                    if len(recoveries) >= policy.max_recoveries:
                        raise
                    time.sleep(BACKOFF_S)
                    with tr.span(
                        "resilience.recover",
                        failed_rank=failed_rank,
                        mode=policy.mode,
                    ) as span:
                        found = walk_back(
                            list(managers.values()),
                            checkpoint_steps,
                            on_reject=lambda _path, _exc: self._count(
                                "resilience.checkpoint_rejections"
                            ),
                        )
                        resume, arrays, restore = 0, {}, None
                        if found is not None:
                            resume, records = found
                            arrays = dict(zip(managers, records))
                        if policy.mode == "shrink" and world.size > 6:
                            old_world = world
                            shrunk = self._shrunk_params(world.params)
                            t_mesh = time.perf_counter()
                            world = prepare_world(
                                shrunk,
                                sources=sources,
                                stations=stations,
                                overlap=overlap,
                            )
                            mesher_s += time.perf_counter() - t_mesh
                            if arrays:
                                remap = WorldRemap(
                                    old_world.slices,
                                    arrays,
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
                                    restore_state(
                                        solver, remap.arrays_for(rank, solver)
                                    )

                            managers = self._managers(directory, world.size)
                        elif arrays:
                            # Respawn to the original size: each rank
                            # restores its OWN verified record — the
                            # bit-exact path (docs/resilience.md).  Bound
                            # here (a later recovery rebinds ``arrays``)
                            # and popped, so a restored record is freed.
                            def restore(rank: int, solver, arrays=arrays) -> None:
                                restore_state(solver, arrays.pop(rank))

                        world_sizes.append(world.size)
                        start_step = resume
                        span.add(resume_step=resume, world_size=world.size)
                    event = RecoveryEvent(
                        failed_rank=failed_rank,
                        kind=kind,
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
            shutil.rmtree(directory, ignore_errors=True)
