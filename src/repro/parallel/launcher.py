"""Distributed simulation launcher: SPMD solver runs on the virtual cluster.

Reproduces the structure of a real SPECFEM3D_GLOBE run: every rank meshes
its own slice, assembles its mass matrix across slice boundaries, agrees
on a global time step (min-allreduce), marches the same time loop, and
exchanges halo contributions after every force evaluation.  Seismograms
are gathered at rank 0.

With ``overlap=True`` (or ``params.overlap_comm``) each rank classifies
its elements into halo-touching and interior sets up front and hands the
solver that split: boundary forces first, non-blocking halo post, interior
forces while the messages are in flight, then wait — bit-identical to the
blocking reference, which is the same schedule with no split and so
nothing left to compute after the post.

The per-rank communication statistics collected by the virtual
communicators are returned alongside the results — they are the raw
measurements behind the Figure 6/7 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..config.parameters import SimulationParameters
from ..cubed_sphere.topology import SliceGrid
from ..mesh.mesher import build_slice_mesh
from ..mesh.partition import split_slice_elements
from ..model.perturbations import SyntheticTomography
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..solver.receivers import Station
from ..solver.solver import GlobalSolver
from .comm import CommStats, VirtualCluster, VirtualComm
from .errors import RankDeathError, RankFailedError, RankTimeoutError
from .halo import HaloExchanger, build_halos

__all__ = [
    "DistributedResult",
    "EpochPlan",
    "RankDeathError",
    "RankFailedError",
    "RankTimeoutError",
    "WorldSetup",
    "prepare_world",
    "run_distributed_simulation",
    "segment_boundaries",
]


@dataclass
class DistributedResult:
    """Outcome of a distributed run.

    ``seismograms`` is (n_stations, n_steps, 3) for a ``sources=`` run and
    (B, n_stations, n_steps, 3) for an ``event_sources=`` run.
    """

    seismograms: np.ndarray | None
    station_names: list[str]
    times: np.ndarray
    dt: float
    n_steps: int
    comm_stats: list[CommStats]
    rank_compute_s: list[float]
    rank_compute_cpu_s: list[float]
    rank_elements: list[int]
    #: Per-rank tracers and metrics registries when the run was traced
    #: (``trace=True``), else None.  ``tracers[rank].records`` carries the
    #: mesher/solver/halo spans of that virtual rank.
    tracers: list[Tracer] | None = None
    metrics: list[MetricsRegistry] | None = None
    #: Comm-sanitizer report when the run was sanitized
    #: (``sanitize=True``), else None.  Clean runs have
    #: ``sanitizer_report.clean`` true.
    sanitizer_report: "object | None" = None

    @property
    def total_comm_time_s(self) -> float:
        return sum(s.comm_time_s for s in self.comm_stats)

    @property
    def total_bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.comm_stats)

    def merged_metrics(self) -> MetricsRegistry | None:
        """All ranks' metrics folded into one registry."""
        if self.metrics is None:
            return None
        return MetricsRegistry.merged(self.metrics)


def _assign_stations(
    stations: list[Station], slices: list
) -> dict[int, list[Station]]:
    """Give each station to the single rank owning the nearest mesh point.

    Mirrors the paper's observation that "some mesh slices carry more
    seismic stations than others": assignment is by geometry, so uneven
    station sets load ranks unevenly.
    """
    from ..model.prem import RegionCode

    assignment: dict[int, list[Station]] = {}
    for station in stations:
        target = np.asarray(station.position)
        best_rank, best_d = -1, np.inf
        for rank, sl in enumerate(slices):
            mesh = sl.regions[RegionCode.CRUST_MANTLE]
            d = np.min(np.linalg.norm(mesh.xyz.reshape(-1, 3) - target, axis=1))
            if d < best_d - 1e-12:
                best_rank, best_d = rank, d
        assignment.setdefault(best_rank, []).append(station)
    return assignment


@dataclass
class WorldSetup:
    """Everything rank programs need that is derived *before* the cluster
    starts: the partition, halos, station/source assignment, and the
    globally agreed time step.

    Built by :func:`prepare_world`.  The run supervisor
    (:mod:`repro.resilience.supervisor`) builds one per world size and
    reuses it across recovery epochs, so a respawn restarts the time
    loop without re-meshing and a shrink re-partitions exactly once.
    """

    params: SimulationParameters
    grid: SliceGrid
    slices: list
    halos: dict
    splits: list | None
    station_assignment: dict[int, list[Station]]
    #: rank -> B-long list of per-event source lists (ranks owning no
    #: source are absent).
    event_sources_of_rank: dict[int, list[list]]
    nbatch: int
    #: The caller passed ``sources=``: the run is the ``B = 1`` case and
    #: its result is presented without the event axis.
    single_event: bool
    dt_global: float
    overlap: bool

    @property
    def size(self) -> int:
        return self.grid.nproc_total


def prepare_world(
    params: SimulationParameters,
    sources: list | None = None,
    stations: list[Station] | None = None,
    overlap: bool | None = None,
    event_sources: list[list] | None = None,
    tracer_of: "Callable[[int], Tracer | None] | None" = None,
) -> WorldSetup:
    """Mesh, partition, and assign one world (see :class:`WorldSetup`).

    Deterministic for fixed inputs: slice meshing, halo construction,
    element splits, nearest-point station/source assignment, and the
    min-allreduced time step all depend only on ``params`` and the
    geometry — which is the foundation of the respawn bit-identity
    argument (docs/resilience.md).
    """
    if event_sources is not None and sources is not None:
        raise ValueError("pass either sources or event_sources, not both")
    single_event = event_sources is None
    if event_sources is None:
        event_sources = [sources or []]
    nbatch = len(event_sources)
    if overlap is None:
        overlap = params.overlap_comm
    grid = SliceGrid(params.nproc_xi)
    tomography = (
        SyntheticTomography(seed=params.seed) if params.use_3d_model else None
    )

    def _tracer(rank: int):
        return tracer_of(rank) if tracer_of is not None else None

    # Mesh all slices up front (the merged-application mode of Section 4.1:
    # mesher output stays in memory and is handed to the solver directly).
    slices = [
        build_slice_mesh(
            params,
            grid.address_of(rank),
            tomography=tomography,
            tracer=_tracer(rank),
        )
        for rank in range(grid.nproc_total)
    ]
    halos = build_halos(slices)
    # Interior/boundary element classification for the overlapped schedule,
    # precomputed per rank from the same halos the exchanger will use.
    splits = (
        [split_slice_elements(slices[r], halos[r]) for r in range(grid.nproc_total)]
        if overlap
        else None
    )
    station_assignment = _assign_stations(stations or [], slices)
    # Sources must be injected by exactly one rank (the halo assembly then
    # propagates shared-point contributions); assign each event's sources
    # like stations, by the nearest-point rule, giving every owning rank a
    # B-long list of per-event source lists — empty lists for events with
    # no source in that rank's slice.
    event_sources_of_rank: dict[int, list[list]] = {}
    for b, ev_srcs in enumerate(event_sources):
        pseudo_b = [
            Station(f"__src{i}", tuple(np.asarray(s.position)))
            for i, s in enumerate(ev_srcs)
        ]
        for rank, plist in _assign_stations(pseudo_b, slices).items():
            per_rank = event_sources_of_rank.setdefault(
                rank, [[] for _ in range(nbatch)]
            )
            for p in plist:
                per_rank[b].append(ev_srcs[int(p.name[5:])])
    # Agree on the global time step before building any solver: attenuation
    # coefficients depend on dt, so it must be fixed up front.
    from ..mesh.quality import estimate_time_step
    from ..solver.solver import LENGTH_SCALE

    dt_global = min(
        estimate_time_step(
            list(sl.regions.values()),
            courant=params.courant,
            length_scale=LENGTH_SCALE,
        )
        for sl in slices
    )
    return WorldSetup(
        params=params,
        grid=grid,
        slices=slices,
        halos=halos,
        splits=splits,
        station_assignment=station_assignment,
        event_sources_of_rank=event_sources_of_rank,
        nbatch=nbatch,
        single_event=single_event,
        dt_global=dt_global,
        overlap=overlap,
    )


def segment_boundaries(n_steps: int, n_segments: int) -> list[tuple[int, int]]:
    """Split ``n_steps`` into ``n_segments`` near-equal [start, stop) spans."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not 1 <= n_segments <= n_steps:
        raise ValueError(
            f"n_segments must be in [1, {n_steps}], got {n_segments}"
        )
    cuts = [round(i * n_steps / n_segments) for i in range(n_segments + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(n_segments)]


@dataclass
class EpochPlan:
    """Checkpoint/restore instructions for one supervised epoch.

    The run supervisor marches a run as a sequence of *epochs*: each
    epoch starts at ``start_step`` (0 for the first), restores solver
    state through ``restore`` (checkpoint load for respawn, remapped
    in-memory state for shrink), saves a checkpoint through ``save``
    whenever the time loop crosses a step in ``checkpoint_steps``, and
    pins the time step to ``dt_pin`` so every epoch's attenuation
    coefficients — which depend on dt — match the first world's.
    """

    start_step: int = 0
    checkpoint_steps: tuple[int, ...] = ()
    #: ``save(rank, solver, step)`` — called after the loop reaches
    #: ``step`` (exclusive stop), with all state at exactly that step.
    save: "Callable[[int, GlobalSolver, int], None] | None" = None
    #: ``restore(rank, solver)`` — called once per rank before marching,
    #: must leave the solver consistent with ``start_step``.
    restore: "Callable[[int, GlobalSolver], None] | None" = None
    dt_pin: float | None = None

    def boundaries(self, total_steps: int) -> list[tuple[int, int]]:
        """Sub-spans of [start_step, total_steps) cut at checkpoints — one
        empty span when nothing is left to march, so every epoch runs."""
        start = min(self.start_step, total_steps)
        cuts = sorted(
            {s for s in self.checkpoint_steps if start < s < total_steps}
        )
        edges = [start, *cuts, total_steps]
        return list(zip(edges, edges[1:]))


def run_distributed_simulation(
    params: SimulationParameters,
    sources: list | None = None,
    stations: list[Station] | None = None,
    n_steps: int | None = None,
    timeout_s: float = 600.0,
    combine_solid_messages: bool = True,
    trace: bool = False,
    overlap: bool | None = None,
    n_segments: int = 1,
    fault_plan=None,
    recv_timeout_s: float | None = None,
    sanitize: bool = False,
    stream_dir: str | Path | None = None,
    event_sources: list[list] | None = None,
    failure_detector=None,
    world: WorldSetup | None = None,
    epoch_plan: EpochPlan | None = None,
) -> DistributedResult:
    """Run one simulation over 6 * NPROC_XI^2 virtual MPI ranks.

    All ranks execute the same program on threads; the returned result
    contains rank-0-gathered seismograms plus per-rank communication and
    compute accounting.  With ``trace=True`` every rank records mesher/
    solver/halo spans into its own tracer (``result.tracers``), merged
    into one report by :mod:`repro.obs.report`.

    ``overlap`` selects the non-blocking overlapped halo schedule
    (default: ``params.overlap_comm``); ``timeout_s`` bounds both the
    whole run and every individual blocking receive (a hung peer raises
    :class:`RankTimeoutError` rather than deadlocking).  ``n_segments``
    splits the marching into that many back-to-back ``solver.run``
    segments over one shared time grid (the campaign restart pattern),
    exercising state carry-over without changing the results — an
    :class:`EpochPlan` cut at the segment boundaries that saves nothing;
    an explicit ``epoch_plan`` takes precedence.

    ``fault_plan`` (a :class:`~repro.chaos.faults.FaultPlan`) is consulted
    by every rank's communicator on each send and receive — the chaos
    drills run this very function unchanged under injected message drops
    and rank crashes.  ``recv_timeout_s`` shortens the per-receive (and
    barrier) deadline below ``timeout_s``, so a dropped message surfaces
    as :class:`RankTimeoutError` quickly instead of after the full
    program timeout.  When ``params.health_check_every`` is set, every
    rank's solver runs a :class:`~repro.chaos.sentinel.HealthSentinel`
    labelled with its own rank.

    ``sanitize=True`` has every rank's communicator report its traffic
    to one :class:`~repro.analysis.sanitizer.CommSanitizer`; the finalized
    :class:`~repro.analysis.sanitizer.SanitizerReport` (unmatched sends,
    leaked requests, double-waits, tag collisions) is returned as
    ``result.sanitizer_report``.

    ``stream_dir`` turns on live streaming telemetry: every rank writes
    per-step samples (wall/compute/comm split, halo-wait, health values)
    to ``<stream_dir>/rank<NNNN>.stream.jsonl`` through a
    :class:`~repro.obs.stream.StreamingTelemetry` ring buffer, flushed
    periodically so a long run can be watched with ``tail -f``.

    ``event_sources`` (mutually exclusive with ``sources``) runs B events
    at once through one solver per rank: entry b is event b's source
    list.  All B events share ONE halo message per neighbour per step
    (docs/batching.md), and the returned ``seismograms`` gain a leading
    event axis (B, n_stations, n_steps, 3) — event slice b bit-identical
    to a separate run with ``sources=event_sources[b]``, which is the
    ``B = 1`` case returned without that axis.

    The three resilience hooks (all used by
    :class:`~repro.resilience.supervisor.RunSupervisor`):
    ``failure_detector`` (a
    :class:`~repro.resilience.detector.FailureDetector`) is fed heartbeats
    by every rank's communicator and probed by its blocked receives, so
    peer deaths surface as fast typed :class:`RankDeathError`\\ s; ``world`` supplies a
    prebuilt :class:`WorldSetup` so a recovery epoch skips re-meshing;
    ``epoch_plan`` (an :class:`EpochPlan`) makes the run start mid-loop
    from restored state and save checkpoints at chosen steps.
    """
    import time as _time

    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    if event_sources is not None:
        if sources is not None:
            raise ValueError("pass either sources or event_sources, not both")
        if len(event_sources) == 0:
            raise ValueError("event_sources must contain at least one event")

    # One epoch for every rank's tracer so merged timelines align.
    tracer_epoch = _time.perf_counter() if trace else None
    nproc_total = (
        world.size if world is not None else SliceGrid(params.nproc_xi).nproc_total
    )
    tracers: list[Tracer] | None = (
        [Tracer(pid=rank, epoch=tracer_epoch) for rank in range(nproc_total)]
        if trace
        else None
    )
    metrics: list[MetricsRegistry] | None = (
        [MetricsRegistry(rank=rank) for rank in range(nproc_total)]
        if trace
        else None
    )

    def _tracer(rank: int):
        return tracers[rank] if tracers is not None else None

    if world is None:
        world = prepare_world(
            params,
            sources=sources,
            stations=stations,
            overlap=overlap,
            event_sources=event_sources,
            tracer_of=_tracer if trace else None,
        )
    # The world fixes partition, schedule, and batching; per-call arguments
    # must not silently disagree with a prebuilt one.
    if overlap is not None and overlap != world.overlap:
        raise ValueError(
            f"overlap={overlap} disagrees with the prebuilt world "
            f"(overlap={world.overlap}); the world fixes the schedule"
        )
    # The supervisor pins dt across recovery epochs (attenuation
    # coefficients depend on it); an unsupervised run uses the world's
    # min-allreduced step.
    dt_global = world.dt_global
    if epoch_plan is not None and epoch_plan.dt_pin is not None:
        dt_global = epoch_plan.dt_pin

    def program(comm: VirtualComm):
        rank = comm.rank
        rank_tracer = _tracer(rank)
        rank_metrics = metrics[rank] if metrics is not None else None
        exchanger = HaloExchanger(comm, world.halos[rank], tracer=rank_tracer)
        exchanger.merge_regions = combine_solid_messages
        my_stations = world.station_assignment.get(rank, [])
        sentinel = None
        if params.health_check_every is not None:
            from ..chaos.sentinel import HealthSentinel

            sentinel = HealthSentinel(
                check_every=params.health_check_every, rank=rank
            )
        stream = None
        if stream_dir is not None:
            from ..obs.stream import StreamingTelemetry

            stream = StreamingTelemetry(
                Path(stream_dir) / f"rank{rank:04d}.stream.jsonl",
                meta={"rank": rank, "nex_xi": params.nex_xi},
                comm_time_fn=lambda: comm.stats.comm_time_s,
                halo_wait_fn=lambda: exchanger.wait_s,
            )
        solver = GlobalSolver(
            world.slices[rank],
            params,
            stations=my_stations or None,
            exchanger=exchanger,
            element_splits=world.splits[rank] if world.overlap else None,
            event_sources=world.event_sources_of_rank.get(rank)
            or [[] for _ in range(world.nbatch)],
            dt_override=dt_global,
            tracer=rank_tracer,
            metrics=rank_metrics,
            health_sentinel=sentinel,
            stream=stream,
        )
        # The allreduce a real run would perform (a no-op on equal values,
        # but it exercises and accounts the collective).
        solver.dt = comm.allreduce(solver.dt, op="min")
        steps = n_steps if n_steps is not None else solver.n_steps
        steps = int(comm.allreduce(steps, op="min"))
        # Solver-side faults (poison, crash-at-step) fire through the
        # plan's step callback — None when no plan is armed, so the
        # common path pays nothing.
        run_callbacks = (
            [fault_plan.solver_callback(rank)] if fault_plan is not None else None
        )
        plan = epoch_plan
        if plan is None:
            cuts = segment_boundaries(steps, n_segments) if n_segments > 1 else []
            plan = EpochPlan(
                checkpoint_steps=tuple(stop for _start, stop in cuts[:-1])
            )
        try:
            if plan.restore is not None:
                plan.restore(rank, solver)
            for seg_start, seg_stop in plan.boundaries(steps):
                result = solver.run(
                    n_steps=steps,
                    start_step=seg_start,
                    stop_step=seg_stop,
                    callbacks=run_callbacks,
                )
                if plan.save is not None and seg_stop in plan.checkpoint_steps:
                    plan.save(rank, solver, seg_stop)
        finally:
            if stream is not None:
                stream.close()
        if rank_metrics is not None:
            s = comm.stats
            rank_metrics.counter("comm.messages").add(
                s.messages_sent + s.messages_received
            )
            rank_metrics.counter("comm.bytes").add(
                s.bytes_sent + s.bytes_received
            )
            denom = s.comm_time_s + result.timings.compute_s
            rank_metrics.gauge("comm.fraction").set(
                s.comm_time_s / denom if denom > 0 else 0.0, rank=rank
            )
        payload = {
            "names": [s.name for s in my_stations],
            "data": result.seismograms,
            "compute_s": result.timings.compute_s,
            "compute_cpu_s": result.timings.compute_cpu_s,
            "elements": world.slices[rank].nspec_total,
            "dt": solver.dt,
        }
        return comm.gather(payload, root=0)

    cluster = VirtualCluster(
        world.size,
        recv_timeout_s=recv_timeout_s,
        fault_plan=fault_plan,
        sanitize=sanitize,
        failure_detector=failure_detector,
    )
    try:
        results = cluster.run(program, timeout=timeout_s)
    # Order matters: RankTimeoutError is both a RankFailedError and a
    # TimeoutError, and an in-program one already names the failing rank —
    # re-raise it untouched instead of re-wrapping it rank-less.
    except RankFailedError:
        raise
    except TimeoutError as exc:
        raise RankTimeoutError(getattr(exc, "failed_rank", -1), exc) from exc
    except Exception as exc:
        raise RankFailedError(getattr(exc, "failed_rank", -1), exc) from exc
    gathered = results[0]
    names: list[str] = []
    data_blocks: list[np.ndarray] = []
    compute_s: list[float] = []
    compute_cpu_s: list[float] = []
    elements: list[int] = []
    dt = 0.0
    for payload in gathered:
        compute_s.append(payload["compute_s"])
        compute_cpu_s.append(payload["compute_cpu_s"])
        elements.append(payload["elements"])
        dt = payload["dt"]
        if payload["data"] is not None:
            names.extend(payload["names"])
            data_blocks.append(payload["data"])
    # Rank blocks are (B, nrec_rank, steps, 3): ranks concatenate along the
    # receiver axis.  A source in a slice-boundary element is legitimately
    # owned by several ranks; the solver injects it in each, but
    # seismograms are recorded once per station (stations are assigned
    # uniquely), so plain concatenation is correct.
    steps = data_blocks[0].shape[2] if data_blocks else (n_steps or 0)
    seismograms = np.concatenate(data_blocks, axis=1) if data_blocks else None
    if seismograms is not None and world.single_event:
        seismograms = seismograms[0]
    return DistributedResult(
        seismograms=seismograms,
        station_names=names,
        times=np.arange(steps) * dt,
        dt=dt,
        n_steps=steps,
        comm_stats=cluster.stats,
        rank_compute_s=compute_s,
        rank_compute_cpu_s=compute_cpu_s,
        rank_elements=elements,
        tracers=tracers,
        metrics=metrics,
        sanitizer_report=cluster.sanitizer_report,
    )
