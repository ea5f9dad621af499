"""The merged application: mesher + solver in one process (Section 4.1).

``run_global_simulation`` is the package's one-call entry point: it meshes
the globe, hands the mesh to the solver through memory (no intermediate
files — the paper's fix), runs the time loop, and returns seismograms and
accounting.  The legacy two-program mode (mesh -> files -> solve) lives in
:func:`run_legacy_two_program` for the A-IO ablation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config.parameters import SimulationParameters
from ..io.meshfiles import (
    DiskUsage,
    read_slice_database,
    rebuild_region_mesh,
    write_slice_database,
)
from ..mesh.mesher import GlobalMesh, build_global_mesh
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..solver.receivers import Station
from ..solver.solver import GlobalSolver, SolverResult

__all__ = [
    "GlobalSimulationResult",
    "run_global_simulation",
    "run_batched_simulation",
    "run_legacy_two_program",
]


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

    @property
    def seismograms(self) -> np.ndarray | None:
        return self.solver_result.seismograms

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

    ``event_sources`` (instead of ``sources``) runs B events through the
    one solver; see :func:`run_batched_simulation`.
    """
    if tracer is None and trace:
        tracer = Tracer(pid=0)
    if metrics is None and trace:
        metrics = MetricsRegistry()
    t0 = time.perf_counter()
    if mesh is None:
        mesh = build_global_mesh(params, tracer=tracer)
    else:
        # Lazy import: campaign sits above apps in the layer diagram.
        from ..campaign.mesh_cache import mesh_cache_key

        if mesh_cache_key(mesh.params) != mesh_cache_key(params):
            raise ValueError(
                "pre-built mesh was generated from mesh-incompatible "
                "parameters; rebuild or fix the cache key"
            )
        if metrics is not None:
            metrics.counter("mesher.reused").add(1)
    mesher_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    solver = GlobalSolver(
        mesh,
        params,
        sources=sources,
        stations=stations,
        tracer=tracer,
        metrics=metrics,
        stream=stream,
        event_sources=event_sources,
    )
    result = solver.run(n_steps=n_steps, track_energy=track_energy)
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
    )


def run_batched_simulation(
    params: SimulationParameters,
    event_sources: list[list],
    stations: list[Station] | None = None,
    n_steps: int | None = None,
    trace: bool = False,
    mesh: GlobalMesh | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    stream=None,
) -> GlobalSimulationResult:
    """Run B events through ONE solver on a shared mesh.

    ``event_sources[b]`` is event b's source list; every other argument
    is :func:`run_global_simulation`'s.  The mesh is built (or reused via
    ``mesh``) once and the solver's fields carry a leading event axis, so
    the mesh, geometry factors and — distributed — the halo messages are
    shared B ways (docs/batching.md).  The result's ``seismograms`` are
    ``(B, n_stations, n_steps, 3)``; ``result.solver_result.receivers[b]``
    is event b's :class:`~repro.solver.receivers.ReceiverSet`, and both
    are bit-identical to B separate :func:`run_global_simulation` calls
    with ``sources=event_sources[b]``.
    """
    return run_global_simulation(
        params, stations=stations, n_steps=n_steps, trace=trace, mesh=mesh,
        tracer=tracer, metrics=metrics, stream=stream,
        event_sources=event_sources,
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
    )
