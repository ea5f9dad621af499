"""Checkpoint / restart of solver state.

The paper's production runs take "about 1 week ... of dedicated 32K or
more processor supercomputer time" — far beyond any queue's wall limit, so
runs of that class live and die by checkpointing.  This module saves and
restores the complete dynamic state of a :class:`GlobalSolver` — every
array its :meth:`~repro.solver.solver.GlobalSolver.dynamic_state`
declares (fields of every region, attenuation memory variables, the
partially-recorded seismogram buffers) plus the step counter and the
recording cursor — so a run split into segments is bit-identical to an
uninterrupted one *including its seismograms*, the property the tests
verify.  Save and load iterate the declaration and name no state array.

A checkpoint is one verified record (:mod:`repro.chaos.integrity`,
magic ``CKPTREC1``): every state array plus the scalars as 0-d arrays,
each with its own CRC32.  Writes are crash-safe — the record goes to a
temporary file in the target directory and is atomically renamed into
place, so a job killed mid-checkpoint never leaves a truncated file that
would block restart.  Integrity is verified end to end on load, so
silent on-disk corruption — a flipped bit, a truncation, a file of
another kind — surfaces as the typed :class:`CheckpointCorruptionError`
instead of garbage state.  The retry policy treats that error as
fail-fast for the artifact (re-running the same load cannot fix the
file).

A run's checkpoints live in a step-addressed :class:`CheckpointManager`
(one per solver, or one per rank), and :func:`walk_back` is the one way
back past corruption: a segmented ``run_global_simulation`` calls it
with one manager, the run supervisor's recovery with one manager per rank.
It returns the newest step at which every manager holds a verified
record, with those records, so each file is read once per restore.

Format v5 is the only one read or written: every state array is
event-leading (docs/batching.md) — fields ``(B, nglob[, 3])``, ``zeta``
``(B, n_sls, nspec, 6, n, n, n)`` (six-component memory; v4 stored nine),
``seis_data`` ``(B, nrec, n_steps, 3)`` — with
``B = 1`` for a single-event run, and the shape checks enforce that a
checkpoint restores into a solver with the same number of events.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..chaos.integrity import IntegrityError, quarantine, read_record, write_record

__all__ = [
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "walk_back",
    "save_checkpoint",
    "load_checkpoint",
    "read_verified_arrays",
    "restore_state",
]

_FORMAT_VERSION = 5
_MAGIC = b"CKPTREC1"


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, truncated, or otherwise unreadable."""


class CheckpointCorruptionError(CheckpointError, IntegrityError):
    """A checkpoint failed integrity verification (corrupt on disk).

    Raised when the file is not a checkpoint record or any of its CRC32
    checks fails (a flipped bit, a truncation).  Typed so the
    campaign layer can fall back to the last *verified* checkpoint and
    the retry policy can fail fast instead of re-reading a bad file.
    """


def save_checkpoint(
    solver, path: str | Path, step: int, tracer=None, metrics=None
) -> Path:
    """Write the solver's dynamic state to one verified record.

    The write is atomic (:func:`~repro.chaos.integrity.atomic_write`):
    readers never see a partially-written checkpoint and a crash
    mid-write leaves any previous checkpoint at ``path`` intact.

    With a ``tracer``/``metrics`` pair the write is recorded as a
    ``checkpoint.save`` span (with a ``bytes`` counter) plus
    ``checkpoint.saves``/``io.checkpoint_bytes_written`` counters — the
    hot I/O path the campaign rollups account for.
    """
    from ..obs.tracer import maybe_tracer

    path = Path(path)
    with maybe_tracer(tracer).span("checkpoint.save", step=step) as span:
        out = _save_checkpoint_body(solver, path, step)
        nbytes = path.stat().st_size
        span.add(bytes=nbytes)
        if metrics is not None:
            metrics.counter("checkpoint.saves").add(1)
            metrics.counter("io.checkpoint_bytes_written").add(nbytes)
    return out


def _save_checkpoint_body(solver, path: Path, step: int) -> Path:
    arrays: dict[str, np.ndarray] = {
        "version": np.asarray(_FORMAT_VERSION),
        "step": np.asarray(int(step)),
        "dt": np.asarray(solver.dt),
        "solid_codes": np.asarray(sorted(solver.solid_codes)),
    }
    arrays.update((state.name, state.array) for state in solver.dynamic_state())
    # The recording cursor and horizon travel with the seismogram buffers,
    # so a segmented run's seismograms match an uninterrupted run exactly.
    if solver.receiver_sets:
        arrays["seis_step"] = np.asarray(int(solver.receiver_sets[0].step_cursor))
        arrays["seis_n_steps"] = np.asarray(int(solver.receiver_sets[0].n_steps))
    return write_record(path, _MAGIC, arrays)


def load_checkpoint(solver, path: str | Path, tracer=None, metrics=None) -> int:
    """Restore a solver's dynamic state; returns the checkpointed step.

    The solver must have been constructed with the identical mesh,
    parameters and number of events; shape mismatches are rejected loudly.

    With a ``tracer``/``metrics`` pair the read (not the copy into the
    solver) is recorded as a ``checkpoint.load`` span plus
    ``checkpoint.loads``/``io.checkpoint_bytes_read`` counters.
    """
    return restore_state(solver, _read_checkpoint(Path(path), tracer, metrics))


def _read_checkpoint(path: Path, tracer, metrics) -> dict[str, np.ndarray]:
    """:func:`read_verified_arrays` under the ``checkpoint.load`` span and
    the ``checkpoint.loads``/``io.checkpoint_bytes_read`` counters."""
    from ..obs.tracer import maybe_tracer

    with maybe_tracer(tracer).span("checkpoint.load") as span:
        nbytes = path.stat().st_size if path.exists() else 0
        span.add(bytes=nbytes)
        if metrics is not None:
            metrics.counter("checkpoint.loads").add(1)
            metrics.counter("io.checkpoint_bytes_read").add(nbytes)
        return read_verified_arrays(path)


def read_verified_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint's raw arrays with full integrity verification.

    The solver-independent half of :func:`load_checkpoint`: the record's
    CRC32 checks plus the header and version checks, without applying the
    state to any solver.  This is what shrink-and-redistribute recovery
    (:mod:`repro.resilience.remap`) uses to harvest a dead world's state
    before any new-world solver exists.
    """
    try:
        f, _meta = read_record(path, _MAGIC)
    except (OSError, IntegrityError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed integrity verification: {exc}"
        ) from exc
    if "version" not in f or "step" not in f:
        raise CheckpointError(f"checkpoint {path} lacks the version/step header")
    version = int(f["version"])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    return f


#: Record entries that are not state arrays: the header, and the
#: recording cursor and horizon that travel with the seismogram buffers.
_NOT_STATE = frozenset(
    ("version", "step", "dt", "solid_codes", "seis_step", "seis_n_steps")
)


def restore_state(solver, arrays: Mapping[str, np.ndarray]) -> int:
    """Write checkpoint-shaped ``arrays`` into ``solver``; returns the step.

    The one way state enters a solver — a checkpoint load, and a shrink
    recovery's remapped arrays (:mod:`repro.resilience.remap`).  The
    whole record is checked against the solver's declared state
    (:meth:`~repro.solver.solver.GlobalSolver.dynamic_state`) before any
    array is written: a declared array the record lacks is a
    :class:`CheckpointError`, and a state array the solver does not
    declare (an attenuated record on an elastic solver), a shape, dt or
    region mismatch are a ``ValueError`` — the solver is wrong for the
    record, so nothing is quarantined.
    """
    for name in ("step", "dt", "solid_codes"):
        if name not in arrays:
            raise CheckpointError(f"checkpoint lacks the {name} header")
    saved_dt = float(arrays["dt"])
    # Relative comparison via math.isclose: tolerates the dt == 0 edge
    # (both zero compares equal; zero vs. non-zero is rejected) instead of
    # the old ``abs(diff) > 1e-12 * solver.dt`` which degenerated at 0.
    if not math.isclose(saved_dt, solver.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"checkpoint dt {saved_dt} does not match solver dt {solver.dt}"
        )
    saved_codes = set(int(c) for c in arrays["solid_codes"])
    if saved_codes != set(solver.solid_codes):
        raise ValueError(
            f"checkpoint regions {saved_codes} do not match solver "
            f"regions {set(solver.solid_codes)}"
        )
    declared = list(solver.dynamic_state())
    undeclared = sorted(
        set(arrays) - _NOT_STATE - {state.name for state in declared}
    )
    if undeclared:
        raise ValueError(
            f"checkpoint carries state array(s) {undeclared} that the solver "
            f"does not declare; rebuild the solver with the same physics "
            f"and stations"
        )
    for state in declared:
        if state.name not in arrays:
            hint = (
                ": it has no seismogram buffers but the solver records receivers"
                if state.kind == "receiver"
                else ""
            )
            raise CheckpointError(f"checkpoint lacks state array {state.name!r}{hint}")
        data = arrays[state.name]
        if state.kind == "receiver":
            _check_seismograms(data, arrays, state.array.shape)
        elif data.shape != state.array.shape:
            raise ValueError(
                f"checkpoint array {state.name} has shape {data.shape}, "
                f"solver expects {state.array.shape}"
            )
    for state in declared:
        if state.kind == "receiver":
            solver.restore_seismograms(
                arrays[state.name], int(arrays["seis_step"])
            )
        else:
            state.array[:] = arrays[state.name]
    return int(arrays["step"])


def _check_seismograms(data: np.ndarray, arrays, expected: tuple) -> None:
    """A ``(B, nrec, n_steps, 3)`` buffer for ``expected``'s events and
    receivers, of any horizon (the restored run keeps the checkpointed
    one), with a cursor and a horizon that agrees with it."""
    if data.ndim != 4 or data.shape[:2] != expected[:2] or data.shape[-1] != 3:
        raise ValueError(
            f"checkpoint seismogram buffer {data.shape} does not match "
            f"the solver's {expected[0]} events x {expected[1]} receivers"
        )
    if "seis_step" not in arrays:
        raise CheckpointError("checkpoint lacks the seismogram cursor seis_step")
    # ``seis_n_steps`` was once written but never read back, so a
    # truncated buffer silently passed as a shorter recording;
    # cross-check it against the buffer's actual step extent.
    if "seis_n_steps" in arrays:
        declared = int(arrays["seis_n_steps"])
        if declared != data.shape[2]:
            raise ValueError(
                f"checkpoint seismogram buffer carries "
                f"{data.shape[2]} steps but declares "
                f"seis_n_steps={declared}; the file is inconsistent"
            )


class CheckpointManager:
    """Step-addressed checkpoint store.

    One directory holds one solver's (or one rank's) checkpoints, named
    ``step_<NNNNNNNN>.ckpt`` so the step is recoverable from a directory
    scan alone.  A checkpoint that :func:`walk_back` rejects is renamed
    aside (suffix ``.quarantined``): it stops being a restore candidate,
    while the evidence survives for post-mortem.
    """

    #: Active checkpoint filename pattern (quarantined files get an
    #: extra suffix and no longer match).
    FILE_PREFIX = "step_"
    FILE_SUFFIX = ".ckpt"

    def __init__(self, directory: str | Path, tracer=None, metrics=None):
        self.directory = Path(directory)
        self.tracer = tracer
        self.metrics = metrics

    def path_of(self, step: int) -> Path:
        return self.directory / f"{self.FILE_PREFIX}{int(step):08d}{self.FILE_SUFFIX}"

    def steps(self) -> list[int]:
        """Steps with an active (non-quarantined) checkpoint, ascending."""
        if not self.directory.is_dir():
            return []
        out = []
        for p in self.directory.iterdir():
            name = p.name
            if not (
                name.startswith(self.FILE_PREFIX)
                and name.endswith(self.FILE_SUFFIX)
            ):
                continue
            digits = name[len(self.FILE_PREFIX):-len(self.FILE_SUFFIX)]
            if digits.isdigit():
                out.append(int(digits))
        return sorted(out)

    def save(self, solver, step: int) -> Path:
        """Checkpoint ``solver`` at ``step``."""
        return save_checkpoint(
            solver, self.path_of(step), step,
            tracer=self.tracer, metrics=self.metrics,
        )

    def quarantine(self, step: int) -> Path | None:
        """Move the checkpoint at ``step`` aside (evidence, not a candidate)."""
        path = self.path_of(step)
        if not path.exists():
            return None
        target = quarantine(path)
        if self.metrics is not None:
            self.metrics.counter("checkpoint.quarantined").add(1)
        return target


def walk_back(
    managers: Sequence[CheckpointManager],
    steps: Iterable[int],
    on_reject: Callable[[Path, CheckpointError], None] | None = None,
) -> tuple[int, list[dict[str, np.ndarray]]] | None:
    """The newest of ``steps`` at which every manager holds a verified
    record; returns it with each manager's arrays, in ``managers`` order.

    Candidates are read newest first, each file under the
    ``checkpoint.load`` span and counters of its manager.  A file that
    fails verification, or whose header step is not the step its name
    carries, is quarantined and reported through ``on_reject(path,
    exc)``, and the next-older step is tried.  A step that some manager
    no longer lists (a file quarantined by an earlier walk) is skipped
    without a second rejection.  Returns ``None`` when no step
    qualifies: the caller starts cold.

    Only corruption walks back.  A verified record that does not fit the
    solver raises from :func:`restore_state`: the chain's own solvers
    write these records, so a misfit is a bug that an older step would
    not fix.
    """
    common = set(steps).intersection(*(m.steps() for m in managers))
    for step in sorted(common, reverse=True):
        records = []
        for manager in managers:
            path = manager.path_of(step)
            try:
                arrays = _read_checkpoint(path, manager.tracer, manager.metrics)
                if int(arrays["step"]) != step:
                    raise CheckpointError(
                        f"checkpoint {path} carries step "
                        f"{int(arrays['step'])}, expected {step}"
                    )
            except CheckpointError as exc:
                quarantined = manager.quarantine(step)
                if on_reject is not None:
                    on_reject(quarantined or path, exc)
                break
            records.append(arrays)
        else:
            return step, records
    return None
