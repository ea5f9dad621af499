"""The merged application: mesher + solver in one process (Section 4.1).

``run_global_simulation`` is the package's one serial runner: it meshes
the globe, hands the mesh to the solver through memory (no intermediate
files — the paper's fix), runs the time loop, and returns seismograms and
accounting.  A long run is the same call cut into a chain of checkpointed
segments (``n_segments``), the way the paper's week-long production runs
outlive any queue wall limit.  The legacy two-program mode (mesh -> files
-> solve) lives in :func:`run_legacy_two_program` for the A-IO ablation.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config.parameters import MESH, SimulationParameters
from ..io.meshfiles import (
    DiskUsage,
    read_slice_database,
    rebuild_region_mesh,
    write_slice_database,
)
from ..mesh.mesher import GlobalMesh, build_global_mesh
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, maybe_tracer
from ..parallel.launcher import segment_boundaries
from ..solver.checkpoint import CheckpointManager, restore_state, walk_back
from ..solver.receivers import Station
from ..solver.solver import GlobalSolver, SolverResult

__all__ = [
    "GlobalSimulationResult",
    "SegmentInfo",
    "run_global_simulation",
    "run_legacy_two_program",
]


@dataclass
class SegmentInfo:
    """Accounting of one executed segment."""

    index: int
    start_step: int
    stop_step: int
    wall_s: float
    checkpoint: Path | None  # written at the segment's end (None for last)

    @property
    def steps(self) -> int:
        return self.stop_step - self.start_step


@dataclass
class GlobalSimulationResult:
    """Seismograms plus the stage accounting of one merged run."""

    solver_result: SolverResult
    mesh: GlobalMesh
    mesher_wall_s: float
    solver_wall_s: float
    disk: DiskUsage
    #: The live solver (final wavefields, mass matrices) for post-processing.
    solver: GlobalSolver | None = None
    #: Telemetry of a traced run (``trace=True``): the span tracer and the
    #: per-timestep metrics registry; both None for untraced runs.
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    #: The chain log, one entry per segment (one for an unsegmented run).
    segments: list[SegmentInfo] = field(default_factory=list)

    @property
    def seismograms(self) -> np.ndarray | None:
        return self.solver_result.seismograms

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def dt(self) -> float:
        return self.solver_result.dt

    def seismogram(self, name: str) -> np.ndarray:
        return self.solver_result.receivers.seismogram(name)

    def export_trace(self, directory: str | Path, stem: str = "trace"):
        """Write ``<stem>.jsonl`` and ``<stem>.chrome.json`` for this run.

        Returns the two paths.  Raises if the run was not traced.
        """
        from ..obs.export import write_chrome_trace, write_jsonl

        if self.tracer is None:
            raise ValueError("run was not traced; pass trace=True")
        directory = Path(directory)
        jsonl = write_jsonl(
            directory / f"{stem}.jsonl", [self.tracer], metrics=self.metrics
        )
        chrome = write_chrome_trace(
            directory / f"{stem}.chrome.json", [self.tracer]
        )
        return jsonl, chrome


def run_global_simulation(
    params: SimulationParameters,
    sources: list | None = None,
    stations: list[Station] | None = None,
    n_steps: int | None = None,
    track_energy: bool = False,
    trace: bool = False,
    mesh: GlobalMesh | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    stream=None,
    event_sources: list[list] | None = None,
    n_segments: int = 1,
    checkpoint_dir: str | Path | None = None,
    on_checkpoint=None,
    timeout_s: float | None = None,
) -> GlobalSimulationResult:
    """Mesh and solve in one process with in-memory handoff.

    With ``trace=True`` the whole pipeline records into one tracer and
    metrics registry (returned on the result; see
    :meth:`GlobalSimulationResult.export_trace`).  Tracing is off by
    default and the disabled path is a no-op tracer.  An existing
    ``tracer``/``metrics`` pair (e.g. a campaign's shared registry) may be
    passed instead and implies tracing into it.

    ``mesh`` short-circuits the mesher with a pre-built global mesh — the
    campaign layer's content-addressed cache uses this to amortise one
    expensive mesh across many events.  The mesh must have been built from
    mesh-equivalent parameters; a mismatch is rejected.

    ``stream`` (a :class:`~repro.obs.stream.StreamingTelemetry`) samples
    the solver loop per step; the caller owns and closes it.

    ``event_sources`` (instead of ``sources``) runs B events through ONE
    solver on the shared mesh (docs/batching.md): the ``seismograms``
    gain a leading event axis, ``solver_result.receivers[b]`` is event
    b's, and both are bit-identical to a ``sources=event_sources[b]`` run.

    ``n_segments > 1`` marches the run as a chain of checkpointed
    segments (:func:`~repro.parallel.launcher.segment_boundaries`), the
    state flow of chained queue jobs: every later segment builds a
    *fresh* solver over the shared mesh, restores the previous
    segment's checkpoint, marches to its boundary and checkpoints.  The
    seismograms are bit-identical to a one-segment run (the checkpoint
    carries the partially recorded buffers).  On a mesh the
    :class:`~repro.campaign.mesh_cache.MeshCache` serves, every segment's
    solver shares the mesh's :class:`~repro.solver.prepared.PreparedMesh`,
    so a restart builds only its event state.  Each segment is a
    ``campaign.segment`` span and adds 1 to ``campaign.segments``; a
    one-segment run writes no checkpoint and records neither.
    ``track_energy`` needs one segment: each segment's solver would
    cover only its own span.

    Restores fall back to the *last verified checkpoint*: each segment
    walks back (:func:`~repro.solver.checkpoint.walk_back`) over the
    checkpoints this call wrote, newest first.  One that fails to load
    (a checkpoint is one ``CKPTREC1`` verified record with a CRC32 per
    array) is quarantined with a warning and the next-older one is
    tried, down to a cold restart from step 0.  The marching is
    deterministic, so re-running the lost span reproduces the exact same
    state: corruption costs wall time, not correctness.  Each fallback
    adds 1 to ``campaign.checkpoint_corruptions``.  Files this call did
    not write — a reused ``checkpoint_dir``'s ``step_*.ckpt`` from
    another run — are never restore candidates.  ``checkpoint_dir``
    defaults to a temp directory removed afterwards.
    ``on_checkpoint(index, path)`` is called after segment ``index``'s
    checkpoint is written (the chaos drills corrupt it there).

    A ``stream`` is shared by the whole chain, so it is one continuous
    per-step log: steps re-executed after a fallback appear twice, and
    readers collapse them with :func:`~repro.obs.stream.dedupe_steps`.

    ``timeout_s`` (None: no limit) is a wall limit from this call over
    every segment: the first step observer raises :class:`TimeoutError`
    at the first step boundary past it.
    """
    if n_segments > 1 and track_energy:
        raise ValueError(
            "track_energy needs one segment: each of n_segments="
            f"{n_segments} solvers would cover only its own span"
        )
    deadline = None if timeout_s is None else time.monotonic() + timeout_s

    def check_deadline(step: int, _solver) -> None:
        if time.monotonic() >= deadline:
            raise TimeoutError(f"run exceeded its wall limit of {timeout_s}s")

    if tracer is None and trace:
        tracer = Tracer(pid=0)
    if metrics is None and trace:
        metrics = MetricsRegistry()
    t0 = time.perf_counter()
    if mesh is None:
        mesh = build_global_mesh(params, tracer=tracer)
    else:
        if mesh.params.key_payload(MESH) != params.key_payload(MESH):
            raise ValueError(
                "pre-built mesh was generated from mesh-incompatible "
                "parameters; rebuild or fix the cache key"
            )
        if metrics is not None:
            metrics.counter("mesher.reused").add(1)
    mesher_s = time.perf_counter() - t0
    t1 = time.perf_counter()

    def new_solver() -> GlobalSolver:
        return GlobalSolver(
            mesh,
            params,
            sources=sources,
            stations=stations,
            tracer=tracer,
            metrics=metrics,
            stream=stream,
            event_sources=event_sources,
        )

    solver = new_solver()
    total = int(n_steps) if n_steps is not None else solver.n_steps
    bounds = segment_boundaries(total, n_segments)
    chained = len(bounds) > 1
    tr = maybe_tracer(tracer)
    own_dir = chained and checkpoint_dir is None
    if chained:
        directory = Path(
            tempfile.mkdtemp(prefix="repro-segments-")
            if own_dir
            else checkpoint_dir
        )
        directory.mkdir(parents=True, exist_ok=True)
        manager = CheckpointManager(directory, tracer=tr, metrics=metrics)

    def on_reject(path, exc):
        warnings.warn(
            f"checkpoint {path} rejected ({exc}); falling back to the last "
            f"verified checkpoint",
            stacklevel=4,  # the caller of run_global_simulation
        )
        if metrics is not None:
            metrics.counter("campaign.checkpoint_corruptions").add(1)

    segments: list[SegmentInfo] = []
    try:
        for index, (start, stop) in enumerate(bounds):
            ts = time.perf_counter()
            span = (
                tr.span("campaign.segment", index=index, steps=stop - start)
                if chained
                else nullcontext()
            )
            with span:
                resume = start
                if index > 0:
                    solver = new_solver()
                    # Every earlier segment wrote the checkpoint at its
                    # stop; determinism makes a re-run from an older one
                    # (or from 0) bit-identical.
                    found = walk_back(
                        [manager],
                        (done for _start, done in bounds[:index]),
                        on_reject=on_reject,
                    )
                    resume = 0
                    if found is not None:
                        resume, (arrays,) = found
                        restore_state(solver, arrays)
                # ``metrics_from_step=start`` is the double-count guard:
                # after a corrupt-checkpoint fallback ``resume`` can lie
                # *before* this segment's planned boundary, and the span
                # [resume, start) re-executes steps whose metrics earlier
                # segments already emitted.  Gating emission at the planned
                # boundary keeps ``solver.steps``, ``io.seismogram_bytes``
                # and the series equal to an unsegmented run's.
                # ``health.checks`` is not: every segment checks its last
                # step, which guards the checkpoint written next.
                result = solver.run(
                    n_steps=total, track_energy=track_energy,
                    start_step=resume, stop_step=stop,
                    metrics_from_step=start,
                    callbacks=None if deadline is None else [check_deadline],
                )
                ckpt: Path | None = None
                if index < len(bounds) - 1:
                    ckpt = manager.save(solver, stop)
                    if on_checkpoint is not None:
                        on_checkpoint(index, ckpt)
            segments.append(
                SegmentInfo(
                    index=index, start_step=start, stop_step=stop,
                    wall_s=time.perf_counter() - ts, checkpoint=ckpt,
                )
            )
            if chained and metrics is not None:
                metrics.counter("campaign.segments").add(1)
    finally:
        if own_dir:
            shutil.rmtree(directory, ignore_errors=True)
    solver_s = time.perf_counter() - t1
    if metrics is not None:
        metrics.gauge("mesher.wall_s").set(mesher_s)
        metrics.gauge("solver.wall_s").set(solver_s)
        if event_sources is not None:
            metrics.gauge("batch.events").set(float(len(event_sources)))
    return GlobalSimulationResult(
        solver_result=result,
        mesh=mesh,
        mesher_wall_s=mesher_s,
        solver_wall_s=solver_s,
        disk=DiskUsage(files=0, bytes=0, wall_s=0.0),
        solver=solver,
        tracer=tracer,
        metrics=metrics,
        segments=segments,
    )


def run_legacy_two_program(
    params: SimulationParameters,
    directory: str | Path,
    sources: list | None = None,
    stations: list[Station] | None = None,
    n_steps: int | None = None,
) -> GlobalSimulationResult:
    """Legacy v4.0 mode: mesher writes databases, solver reads them back.

    Runs per-slice databases through the real filesystem, then rebuilds a
    merged mesh from the files for the serial solver — every byte of the
    handoff hits disk, as it did before the merge.
    """
    from ..cubed_sphere.topology import SliceGrid
    from ..mesh.mesher import build_slice_mesh
    from ..mesh.numbering import build_global_numbering
    from ..mesh.element import RegionMesh
    from ..model.prem import RegionCode

    directory = Path(directory)
    grid = SliceGrid(params.nproc_xi)
    disk = DiskUsage()
    t0 = time.perf_counter()
    for rank in range(grid.nproc_total):
        slice_mesh = build_slice_mesh(params, grid.address_of(rank))
        disk += write_slice_database(slice_mesh, rank, directory)
    mesher_s = time.perf_counter() - t0

    # Solver phase: read every database back, merge, renumber, solve.
    t1 = time.perf_counter()
    per_region: dict[int, list] = {r: [] for r in RegionCode.NAMES}
    for rank in range(grid.nproc_total):
        payloads, usage = read_slice_database(rank, directory)
        disk += usage
        for region, data in payloads.items():
            per_region[region].append(rebuild_region_mesh(region, data))
    regions: dict[int, RegionMesh] = {}
    owners: dict[int, np.ndarray] = {}
    for region, meshes in per_region.items():
        xyz = np.concatenate([m.xyz for m in meshes], axis=0)
        ibool, nglob = build_global_numbering(xyz)
        regions[region] = RegionMesh(
            region=region,
            xyz=xyz,
            ibool=ibool,
            nglob=nglob,
            rho=np.concatenate([m.rho for m in meshes], axis=0),
            kappa=np.concatenate([m.kappa for m in meshes], axis=0),
            mu=np.concatenate([m.mu for m in meshes], axis=0),
            q_mu=np.concatenate([m.q_mu for m in meshes], axis=0),
        )
        owners[region] = np.concatenate(
            [np.full(m.nspec, r, dtype=np.int64) for r, m in enumerate(meshes)]
        )
    mesh = GlobalMesh(params=params, regions=regions, slice_of_element=owners)
    solver = GlobalSolver(mesh, params, sources=sources, stations=stations)
    result = solver.run(n_steps=n_steps)
    solver_s = time.perf_counter() - t1
    return GlobalSimulationResult(
        solver_result=result,
        mesh=mesh,
        mesher_wall_s=mesher_s,
        solver_wall_s=solver_s,
        disk=disk,
        solver=solver,
        segments=[SegmentInfo(0, 0, result.n_steps, solver_s, None)],
    )
