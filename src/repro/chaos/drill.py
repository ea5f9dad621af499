"""End-to-end chaos drills: inject faults, recover, prove bit-identity.

A *drill* is the full loop the chaos subsystem exists for: run a
simulation undisturbed, run it again under a seeded
:class:`~repro.chaos.faults.FaultPlan` (and/or deliberate checkpoint
corruption), let the containment machinery recover — retries for
transient comm faults, last-verified-checkpoint fallback for corrupt
restarts — and assert the recovered seismograms are **bit-identical** to
the undisturbed run.  Determinism is the property under test: recovery
that changes the physics is not recovery.

Three drills cover the three failure surfaces:

* :func:`run_comm_drill` — message drops / rank crashes during a
  distributed run, recovered by the retry loop (works in both the
  blocking and the overlapped halo schedule);
* :func:`run_checkpoint_drill` — a bit flipped in a mid-run checkpoint,
  recovered by the segmented executor's fallback to the last verified
  checkpoint;
* :func:`run_service_drill` — a transient backend fault plus a
  corrupted cache payload behind the serving tier, both absorbed by the
  campaign retry loop and the store's quarantine-and-recompute without
  the client ever seeing an error;
* :func:`run_rank_death_drill` — a rank killed mid-epoch under the
  :class:`~repro.resilience.supervisor.RunSupervisor`, recovered
  *in-run* from per-rank checkpoints: respawn recovery must be
  bit-identical, shrink recovery (state remapped onto a smaller world)
  must match within a floating-point assembly tolerance.

Each returns a :class:`DrillReport` whose :meth:`~DrillReport.to_dict`
is what the CI chaos step writes as its artifact.  All four are
runnable from the command line: ``python -m repro.chaos drill <name>``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .faults import FaultPlan

__all__ = [
    "DrillReport",
    "run_comm_drill",
    "run_checkpoint_drill",
    "run_service_drill",
    "run_rank_death_drill",
]

#: Relative tolerance for shrink-recovery seismogram comparison; shrink
#: crosses partitions where multi-owner global points can differ in the
#: last ulps of the floating-point assembly order (see
#: repro/resilience/remap.py), so bit-identity is not the contract.
SHRINK_RTOL = 1e-9


@dataclass
class DrillReport:
    """Outcome of one chaos drill (the CI artifact payload)."""

    drill: str
    passed: bool
    bit_identical: bool
    attempts: int
    faults_fired: int
    fault_events: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "drill": self.drill,
            "passed": self.passed,
            "bit_identical": self.bit_identical,
            "attempts": self.attempts,
            "faults_fired": self.faults_fired,
            "fault_events": list(self.fault_events),
            "errors": list(self.errors),
            "detail": dict(self.detail),
            "wall_s": self.wall_s,
        }


def _bit_identical(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and bool(np.array_equal(a, b))


def run_comm_drill(
    params,
    plan: FaultPlan,
    sources: list | None = None,
    stations: list | None = None,
    n_steps: int | None = None,
    overlap: bool | None = None,
    max_attempts: int = 3,
    recv_timeout_s: float = 2.0,
    timeout_s: float = 120.0,
) -> DrillReport:
    """Drop/crash faults during a distributed run, recovered by retry.

    Runs the simulation once undisturbed (the reference), then under the
    fault plan with up to ``max_attempts`` attempts: transient failures
    (per the campaign :class:`~repro.campaign.queue.RetryPolicy`) are
    retried against the *same* plan, whose exhausted ``max_fires``
    budgets keep the faults from re-firing — the transient-recovery
    model.  Passes when a retried attempt succeeds with seismograms
    bit-identical to the reference.
    """
    from ..campaign.queue import RetryPolicy
    from ..parallel.launcher import run_distributed_simulation

    policy = RetryPolicy(max_attempts=max_attempts)
    t0 = time.perf_counter()
    reference = run_distributed_simulation(
        params,
        sources=sources,
        stations=stations,
        n_steps=n_steps,
        overlap=overlap,
        timeout_s=timeout_s,
    )
    report = DrillReport(
        drill="comm",
        passed=False,
        bit_identical=False,
        attempts=0,
        faults_fired=0,
        detail={"overlap": bool(overlap), "max_attempts": max_attempts},
    )
    disturbed = None
    for attempt in range(1, max_attempts + 1):
        report.attempts = attempt
        try:
            disturbed = run_distributed_simulation(
                params,
                sources=sources,
                stations=stations,
                n_steps=n_steps,
                overlap=overlap,
                timeout_s=timeout_s,
                fault_plan=plan,
                recv_timeout_s=recv_timeout_s,
            )
        except Exception as exc:  # noqa: BLE001 - classified below
            report.errors.append(f"attempt {attempt}: {type(exc).__name__}: {exc}")
            if policy.classify(exc) == "transient" and attempt < max_attempts:
                continue
            break
        break
    report.faults_fired = plan.total_fired
    report.fault_events = list(plan.events)
    if disturbed is not None:
        report.bit_identical = _bit_identical(
            reference.seismograms, disturbed.seismograms
        )
        report.passed = report.bit_identical and plan.total_fired > 0
    report.wall_s = time.perf_counter() - t0
    return report


def run_checkpoint_drill(
    params,
    sources: list | None = None,
    stations: list | None = None,
    n_steps: int | None = None,
    n_segments: int = 3,
    corrupt_segment: int = 0,
) -> DrillReport:
    """Flip a bit in a mid-run checkpoint; recover via verified fallback.

    Runs the segmented executor twice over one shared mesh: once clean,
    once with the ``corrupt_segment``-th checkpoint corrupted right
    after it is written (through the ``on_checkpoint`` hook).  The
    corrupted restore must be rejected by the v3 CRC32 verification and
    the run must fall back to the last verified checkpoint (or step 0),
    re-march the lost span, and still produce bit-identical seismograms.
    """
    from ..campaign.segments import run_segmented_simulation
    from ..mesh.mesher import build_global_mesh
    from ..obs.metrics import MetricsRegistry
    from .integrity import flip_bit

    t0 = time.perf_counter()
    mesh = build_global_mesh(params)
    clean = run_segmented_simulation(
        params,
        sources=sources,
        stations=stations,
        n_steps=n_steps,
        n_segments=n_segments,
        mesh=mesh,
    )
    corrupted: list[str] = []

    def corrupt(index: int, path) -> None:
        if index == corrupt_segment:
            # Flip a bit in the middle of the file: array data, past
            # the record header.
            size = path.stat().st_size
            flip_bit(path, bit=8 * (size // 2))
            corrupted.append(str(path))

    metrics = MetricsRegistry()
    report = DrillReport(
        drill="checkpoint",
        passed=False,
        bit_identical=False,
        attempts=1,
        faults_fired=0,
        detail={"n_segments": n_segments, "corrupt_segment": corrupt_segment},
    )
    import warnings as _warnings

    try:
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")  # the fallback warns by design
            disturbed = run_segmented_simulation(
                params,
                sources=sources,
                stations=stations,
                n_steps=n_steps,
                n_segments=n_segments,
                mesh=mesh,
                metrics=metrics,
                on_checkpoint=corrupt,
            )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.errors.append(f"{type(exc).__name__}: {exc}")
        report.wall_s = time.perf_counter() - t0
        return report
    fallbacks = metrics.counter("campaign.checkpoint_corruptions").value
    report.faults_fired = len(corrupted)
    report.fault_events = [
        {"kind": "checkpoint_corruption", "path": p} for p in corrupted
    ]
    report.bit_identical = _bit_identical(
        clean.seismograms, disturbed.seismograms
    )
    report.detail["fallbacks"] = int(fallbacks)
    report.passed = (
        report.bit_identical and bool(corrupted) and fallbacks >= 1
    )
    report.wall_s = time.perf_counter() - t0
    return report


def run_service_drill(
    params,
    source: dict | None = None,
    stations: list | None = None,
    n_steps: int | None = None,
    inject_failures: int = 1,
    max_attempts: int = 3,
) -> DrillReport:
    """Fault the serving tier twice; the client must never see it.

    Two injections against one :class:`~repro.service.frontend
    .SimulationService`:

    1. the first request's backend solve raises ``inject_failures``
       transient faults (the campaign queue's injection hook) — the
       worker pool's retry loop must absorb them and the client must
       get a normal ``computed`` answer;
    2. the stored payload record then has one bit flipped — the next
       identical request must quarantine the corrupt bundle, recompute,
       and still answer bit-identically to an undisturbed reference.

    Passes when both faults fired, both answers match the undisturbed
    reference bit-for-bit, and no request raised.
    """
    import asyncio
    import tempfile

    from ..config.parameters import ConfigError
    from ..service.frontend import ServiceError, SimulationService
    from ..service.keys import SimulationRequest
    from ..solver.receivers import Station
    from .integrity import flip_bit

    t0 = time.perf_counter()
    stations = list(stations) if stations else [
        Station("POLE", (0.0, 0.0, 6371.0))
    ]
    report = DrillReport(
        drill="service",
        passed=False,
        bit_identical=False,
        attempts=0,
        faults_fired=0,
        detail={
            "inject_failures": inject_failures,
            "max_attempts": max_attempts,
        },
    )
    clean = SimulationRequest(
        params=params,
        stations=tuple(stations),
        source=source,
        n_steps=n_steps,
    )
    faulty = SimulationRequest(
        params=params,
        stations=tuple(stations),
        source=source,
        n_steps=n_steps,
        # Execution options are not part of the content key, so the
        # faulty request addresses the same cache entry as the clean one.
        job_options={
            "inject_failures": inject_failures,
            "max_attempts": max_attempts,
        },
    )

    async def _drill() -> None:
        with tempfile.TemporaryDirectory() as ref_dir, \
                tempfile.TemporaryDirectory() as svc_dir:
            ref_service = SimulationService(store=ref_dir,
                                            n_backend_workers=1)
            try:
                reference = await ref_service.handle(clean)
            finally:
                ref_service.close()
            service = SimulationService(store=svc_dir, n_backend_workers=1)
            try:
                # Injection 1: transient backend faults, retried away.
                report.attempts += 1
                first = await service.handle(faulty)
                report.fault_events.append({
                    "kind": "backend_transient",
                    "count": inject_failures,
                    "status": first.status,
                })
                report.faults_fired += inject_failures
                # Injection 2: corrupt the cached payload mid-file.
                run = service.store.find_exact(first.key)
                size = run.path.stat().st_size
                flip_bit(run.path, bit=8 * (size // 2))
                report.attempts += 1
                second = await service.handle(clean)
                report.fault_events.append({
                    "kind": "cache_corruption",
                    "path": str(run.path),
                    "status": second.status,
                })
                report.faults_fired += 1
                report.detail["statuses"] = [first.status, second.status]
                report.detail["corruptions"] = service.counts["corruptions"]
                report.detail["solver_runs"] = service.solver_runs
                report.bit_identical = (
                    _bit_identical(reference.seismograms, first.seismograms)
                    and _bit_identical(
                        reference.seismograms, second.seismograms
                    )
                )
                report.passed = (
                    report.bit_identical
                    and service.counts["errors"] == 0
                    and service.counts["corruptions"] >= 1
                )
            finally:
                service.close()

    try:
        asyncio.run(_drill())
    except (ServiceError, ConfigError, OSError) as exc:
        report.errors.append(f"{type(exc).__name__}: {exc}")
    report.wall_s = time.perf_counter() - t0
    return report


def run_rank_death_drill(
    params,
    sources: list | None = None,
    stations: list | None = None,
    n_steps: int | None = None,
    crash_rank: int = 2,
    crash_step: int | None = None,
    mode: str = "respawn",
    overlap: bool | None = None,
    max_recoveries: int = 2,
    recv_timeout_s: float = 5.0,
    timeout_s: float = 300.0,
    suspect_after_s: float = 1.0,
    probe_interval_s: float = 0.02,
) -> DrillReport:
    """Kill a rank mid-epoch; the supervisor must recover *in-run*.

    Runs the simulation once undisturbed (the reference), then under a
    :class:`~repro.resilience.supervisor.RunSupervisor` with a
    step-pinned crash injected into ``crash_rank`` (defaulting to the
    middle of the run).  Unlike the comm drill's whole-job retry, the
    supervisor resumes from the ranks' own mid-run checkpoints, so the
    drill passes only if:

    * exactly the planned crash fired and one recovery was executed;
    * ``mode="respawn"``: the recovered seismograms are **bit-identical**
      to the reference (each rank reloaded its own checkpoint on an
      identical world — determinism is the contract);
    * ``mode="shrink"``: the recovered world is *smaller*, and the
      seismograms — re-keyed by station name, since ownership moved —
      match the reference within :data:`SHRINK_RTOL` (cross-partition
      state remap tolerates last-ulp assembly differences).

    The report's ``detail`` carries the measured recovery latency and
    the steps re-executed, the numbers quoted in EXPERIMENTS.md.
    """
    from ..parallel.launcher import run_distributed_simulation
    from ..resilience import RecoveryPolicy, RunSupervisor
    from .faults import FaultPlan, FaultSpec

    t0 = time.perf_counter()
    reference = run_distributed_simulation(
        params,
        sources=sources,
        stations=stations,
        n_steps=n_steps,
        overlap=overlap,
        timeout_s=timeout_s,
    )
    total = reference.n_steps
    if crash_step is None:
        crash_step = max(1, total // 2)
    plan = FaultPlan(
        [FaultSpec(kind="crash", rank=crash_rank, step=crash_step)]
    )
    report = DrillReport(
        drill="rank-death",
        passed=False,
        bit_identical=False,
        attempts=1,
        faults_fired=0,
        detail={
            "mode": mode,
            "overlap": bool(overlap),
            "crash_rank": crash_rank,
            "crash_step": crash_step,
        },
    )
    supervisor = RunSupervisor(
        policy=RecoveryPolicy(
            mode=mode,
            max_recoveries=max_recoveries,
            suspect_after_s=suspect_after_s,
            probe_interval_s=probe_interval_s,
        )
    )
    try:
        supervised = supervisor.run(
            params,
            sources=sources,
            stations=stations,
            n_steps=n_steps,
            overlap=overlap,
            timeout_s=timeout_s,
            recv_timeout_s=recv_timeout_s,
            fault_plan=plan,
        )
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.errors.append(f"{type(exc).__name__}: {exc}")
        report.wall_s = time.perf_counter() - t0
        return report
    report.faults_fired = plan.total_fired
    report.fault_events = list(plan.events)
    report.detail.update(supervised.provenance())
    if supervised.recoveries:
        report.detail["recovery_latency_s"] = [
            e.wall_s for e in supervised.recoveries
        ]
        report.detail["steps_reexecuted"] = [
            crash_step - e.resume_step for e in supervised.recoveries
        ]
    names_ref = list(reference.station_names)
    names_new = list(supervised.result.station_names)
    if sorted(names_ref) != sorted(names_new):
        report.errors.append(
            f"station sets differ: {names_ref} vs {names_new}"
        )
        report.wall_s = time.perf_counter() - t0
        return report
    order = [names_new.index(n) for n in names_ref]
    recovered = supervised.result.seismograms[order]
    report.bit_identical = _bit_identical(reference.seismograms, recovered)
    if mode == "respawn":
        matched = report.bit_identical
        report.detail["final_world_size"] = supervised.final_world_size
    else:
        scale = float(np.max(np.abs(reference.seismograms))) or 1.0
        rel = float(
            np.max(np.abs(reference.seismograms - recovered)) / scale
        )
        report.detail["rel_max_diff"] = rel
        report.detail["rtol"] = SHRINK_RTOL
        report.detail["final_world_size"] = supervised.final_world_size
        matched = rel <= SHRINK_RTOL and (
            supervised.final_world_size < supervised.world_sizes[0]
        )
    report.passed = (
        matched
        and plan.total_fired >= 1
        and supervised.n_recoveries >= 1
    )
    report.wall_s = time.perf_counter() - t0
    return report
