"""Segmented checkpoint–restart execution of one long simulation.

The paper's production runs ("about 1 week ... of dedicated 32K or more
processor supercomputer time") dwarf any queue wall limit, so a real
campaign runs them as a *chain of segments*: each segment restores the
previous checkpoint, marches until its wall boundary, checkpoints, and
exits; the workflow layer resubmits the next segment.  This module is
that executor in miniature — each segment even rebuilds the solver from
scratch (as a freshly scheduled job would) and restores state purely
from the checkpoint file, so the test for bit-identity against an
uninterrupted run exercises exactly what production restarts rely on.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config.parameters import SimulationParameters
from ..mesh.mesher import GlobalMesh, build_global_mesh
from ..obs.tracer import maybe_tracer
from ..parallel.launcher import segment_boundaries
from ..solver.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from ..solver.solver import GlobalSolver, SolverResult

__all__ = ["SegmentInfo", "SegmentedResult", "segment_boundaries",
           "run_segmented_simulation"]


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
class SegmentedResult:
    """Outcome of a segmented run: final solver state plus the chain log."""

    solver_result: SolverResult
    mesh: GlobalMesh
    segments: list[SegmentInfo] = field(default_factory=list)
    solver: GlobalSolver | None = None

    @property
    def seismograms(self) -> np.ndarray | None:
        return self.solver_result.seismograms

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_s for s in self.segments)


def run_segmented_simulation(
    params: SimulationParameters,
    sources: list | None = None,
    stations: list | None = None,
    n_steps: int | None = None,
    n_segments: int = 3,
    mesh: GlobalMesh | None = None,
    checkpoint_dir: str | Path | None = None,
    keep_checkpoints: bool = False,
    tracer=None,
    metrics=None,
    on_checkpoint=None,
    stream=None,
    retain: int | None = None,
) -> SegmentedResult:
    """Run one simulation as ``n_segments`` checkpointed segments.

    Every segment constructs a *fresh* solver over the (shared) mesh,
    restores the previous segment's checkpoint, marches to its boundary,
    and checkpoints — the same state flow as chained queue jobs.  The
    result's seismograms are bit-identical to an unsegmented run (the
    checkpoint carries the partially-recorded buffers).  On a mesh the
    :class:`~repro.campaign.mesh_cache.MeshCache` serves, the solvers of
    every segment share the mesh's
    :class:`~repro.solver.prepared.PreparedMesh`: geometry, mass,
    coupling operators and the Courant bound are prepared once for the
    whole chain, and each restart builds only its event state.

    Restores fall back to the *last verified checkpoint*: when the
    newest checkpoint fails to load (a checkpoint is one ``CKPTREC1``
    verified record with a CRC32 per array, so on-disk corruption is
    caught on load), it is dropped with a warning and the next-older one is
    tried, down to a cold restart from step 0.  Because the marching is
    deterministic, re-running the lost span reproduces the exact same
    state, so the final seismograms stay bit-identical — corruption
    costs wall time, not correctness.  Each fallback increments the
    ``campaign.checkpoint_corruptions`` metrics counter.

    ``on_checkpoint(index, path)`` is called after each segment's
    checkpoint is written — the chaos drills use it to corrupt a
    checkpoint mid-run and prove the fallback path end-to-end.

    ``checkpoint_dir`` defaults to a temp directory removed afterwards
    unless ``keep_checkpoints`` is set.

    ``retain`` bounds disk for long chains: after each checkpoint write,
    all but the newest ``retain`` checkpoint files are deleted (default
    ``None`` keeps every segment's checkpoint, the historical
    behaviour).  The walk-back window shrinks accordingly — with
    ``retain=1`` a corrupt newest checkpoint forces a cold restart.
    Step-addressed per-rank retention for supervised distributed runs
    lives in :class:`repro.solver.checkpoint.CheckpointManager`.

    ``stream`` (a :class:`~repro.obs.stream.StreamingTelemetry`) is
    shared across the whole chain: every segment's fresh solver samples
    into the same ring buffer, so the stream is one continuous per-step
    log of the run.  Steps re-executed after a corrupt-checkpoint
    fallback appear twice — by design, the stream is an honest record of
    what actually executed; readers collapse duplicates with
    :func:`~repro.obs.stream.dedupe_steps`.  The caller closes it.
    """
    tr = maybe_tracer(tracer)
    if retain is not None and retain < 1:
        raise ValueError(f"retain must be >= 1 (or None for all), got {retain}")
    if mesh is None:
        mesh = build_global_mesh(params, tracer=tracer)
    own_dir = checkpoint_dir is None
    directory = Path(
        tempfile.mkdtemp(prefix="repro-segments-")
        if own_dir
        else checkpoint_dir
    )
    directory.mkdir(parents=True, exist_ok=True)
    segments: list[SegmentInfo] = []
    try:
        # Total step count comes from a throwaway probe of the parameters
        # when not given explicitly (solvers are rebuilt per segment).
        solver = _fresh_solver(
            mesh, params, sources, stations, tr, metrics, stream
        )
        total = int(n_steps) if n_steps is not None else solver.n_steps
        bounds = segment_boundaries(total, n_segments)
        result: SolverResult | None = None
        # Checkpoints that were written, newest last; restores walk this
        # list backwards past any entry that fails verification.
        checkpoints: list[tuple[int, Path]] = []
        for index, (start, stop) in enumerate(bounds):
            t0 = time.perf_counter()
            with tr.span("campaign.segment", index=index, steps=stop - start):
                resume = start
                if index > 0:
                    solver = _fresh_solver(
                        mesh, params, sources, stations, tr, metrics, stream
                    )
                    resume = 0
                    while checkpoints:
                        step_at, path = checkpoints[-1]
                        try:
                            resumed = load_checkpoint(
                                solver, path, tracer=tr, metrics=metrics
                            )
                        except CheckpointError as exc:
                            # Corrupt/unreadable: quarantine it from the
                            # chain and fall back to the next-older one
                            # (or a cold restart).  Determinism makes the
                            # re-run bit-identical, so only wall time is
                            # lost.
                            checkpoints.pop()
                            warnings.warn(
                                f"checkpoint {path} rejected ({exc}); "
                                f"falling back to the last verified "
                                f"checkpoint",
                                stacklevel=2,
                            )
                            if metrics is not None:
                                metrics.counter(
                                    "campaign.checkpoint_corruptions"
                                ).add(1)
                            # A failed restore may have partially written
                            # solver state; rebuild before the next try.
                            solver = _fresh_solver(
                                mesh, params, sources, stations, tr, metrics,
                                stream,
                            )
                            continue
                        if resumed != step_at:
                            raise RuntimeError(
                                f"checkpoint {path} resumes at step "
                                f"{resumed}, expected {step_at}"
                            )
                        resume = resumed
                        break
                # ``metrics_from_step=start`` is the double-count guard:
                # after a corrupt-checkpoint fallback ``resume`` can lie
                # *before* this segment's planned boundary, and the span
                # [resume, start) re-executes steps whose metrics earlier
                # segments already emitted.  Gating emission at the planned
                # boundary keeps counters (``solver.steps``,
                # ``health.checks``, ...) equal to an unsegmented run's.
                result = solver.run(
                    n_steps=total, start_step=resume, stop_step=stop,
                    metrics_from_step=start,
                )
                ckpt: Path | None = None
                if index < len(bounds) - 1:
                    ckpt = save_checkpoint(
                        solver, directory / f"segment_{index:03d}.ckpt",
                        step=stop, tracer=tr, metrics=metrics,
                    )
                    checkpoints.append((stop, ckpt))
                    if retain is not None and len(checkpoints) > retain:
                        for _old_step, old_path in checkpoints[:-retain]:
                            old_path.unlink(missing_ok=True)
                        del checkpoints[:-retain]
                    if on_checkpoint is not None:
                        on_checkpoint(index, ckpt)
            segments.append(
                SegmentInfo(
                    index=index, start_step=start, stop_step=stop,
                    wall_s=time.perf_counter() - t0, checkpoint=ckpt,
                )
            )
            if metrics is not None:
                metrics.counter("campaign.segments").add(1)
        return SegmentedResult(
            solver_result=result, mesh=mesh, segments=segments, solver=solver
        )
    finally:
        if own_dir and not keep_checkpoints:
            shutil.rmtree(directory, ignore_errors=True)


def _fresh_solver(mesh, params, sources, stations, tracer, metrics,
                  stream=None):
    return GlobalSolver(
        mesh,
        params,
        sources=sources,
        stations=stations,
        tracer=tracer if getattr(tracer, "enabled", False) else None,
        metrics=metrics,
        stream=stream,
    )
