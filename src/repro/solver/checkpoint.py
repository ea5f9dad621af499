"""Checkpoint / restart of solver state.

The paper's production runs take "about 1 week ... of dedicated 32K or
more processor supercomputer time" — far beyond any queue's wall limit, so
runs of that class live and die by checkpointing.  This module saves and
restores the complete dynamic state of a :class:`GlobalSolver` (fields of
every region, attenuation memory variables, step counter, and the
partially-recorded seismogram buffers with their step cursor) so a run
split into segments is bit-identical to an uninterrupted one *including
its seismograms* — the property the tests verify.

A checkpoint is one verified record (:mod:`repro.chaos.integrity`,
magic ``CKPTREC1``): every state array plus the scalars as 0-d arrays,
each with its own CRC32.  Writes are crash-safe — the record goes to a
temporary file in the target directory and is atomically renamed into
place, so a job killed mid-checkpoint never leaves a truncated file that
would block restart.  Integrity is verified end to end on load, so
silent on-disk corruption — a flipped bit, a truncation, a file of
another kind — surfaces as the typed :class:`CheckpointCorruptionError`
instead of garbage state.  The campaign's segmented executor treats that
error as "fall back to the last *verified* checkpoint"; the retry policy
treats it as fail-fast for the artifact (re-running the same load cannot
fix the file).

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

import numpy as np

from ..chaos.integrity import IntegrityError, quarantine, read_record, write_record

__all__ = [
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "save_checkpoint",
    "load_checkpoint",
    "read_verified_arrays",
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
    for code in solver.solid_codes:
        f = solver.solid[code]
        arrays[f"displ_{code}"] = f.displ
        arrays[f"veloc_{code}"] = f.veloc
        arrays[f"accel_{code}"] = f.accel
    if solver.fluid is not None:
        arrays["chi"] = solver.fluid.chi
        arrays["chi_dot"] = solver.fluid.chi_dot
        arrays["chi_ddot"] = solver.fluid.chi_ddot
    for code, atten in solver.attenuation.items():
        arrays[f"zeta_{code}"] = atten.zeta
    # Partially-recorded seismograms plus the recording cursor, so a
    # segmented run's seismograms match an uninterrupted run exactly.
    if solver.receiver_sets:
        sets = solver.receiver_sets
        arrays["seis_data"] = np.stack([rs.data for rs in sets])
        arrays["seis_step"] = np.asarray(int(sets[0].step_cursor))
        arrays["seis_n_steps"] = np.asarray(int(sets[0].n_steps))
    return write_record(path, _MAGIC, arrays)


def load_checkpoint(solver, path: str | Path, tracer=None, metrics=None) -> int:
    """Restore a solver's dynamic state; returns the checkpointed step.

    The solver must have been constructed with the identical mesh,
    parameters and number of events; shape mismatches are rejected loudly.

    With a ``tracer``/``metrics`` pair the read is recorded as a
    ``checkpoint.load`` span plus ``checkpoint.loads``/
    ``io.checkpoint_bytes_read`` counters.
    """
    from ..obs.tracer import maybe_tracer

    path = Path(path)
    with maybe_tracer(tracer).span("checkpoint.load") as span:
        nbytes = path.stat().st_size if path.exists() else 0
        span.add(bytes=nbytes)
        if metrics is not None:
            metrics.counter("checkpoint.loads").add(1)
            metrics.counter("io.checkpoint_bytes_read").add(nbytes)
        return _load_checkpoint_body(solver, path)


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


def _load_checkpoint_body(solver, path: Path) -> int:
    f = read_verified_arrays(path)
    saved_dt = float(f["dt"])
    # Relative comparison via math.isclose: tolerates the dt == 0 edge
    # (both zero compares equal; zero vs. non-zero is rejected) instead of
    # the old ``abs(diff) > 1e-12 * solver.dt`` which degenerated at 0.
    if not math.isclose(saved_dt, solver.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"checkpoint dt {saved_dt} does not match solver dt {solver.dt}"
        )
    saved_codes = set(int(c) for c in f["solid_codes"])
    if saved_codes != set(solver.solid_codes):
        raise ValueError(
            f"checkpoint regions {saved_codes} do not match solver "
            f"regions {set(solver.solid_codes)}"
        )
    for code in solver.solid_codes:
        field = solver.solid[code]
        for name, target in (
            (f"displ_{code}", field.displ),
            (f"veloc_{code}", field.veloc),
            (f"accel_{code}", field.accel),
        ):
            if name not in f:
                raise CheckpointError(f"checkpoint lacks array {name}")
            data = f[name]
            if data.shape != target.shape:
                raise ValueError(
                    f"checkpoint array {name} has shape {data.shape}, "
                    f"solver expects {target.shape}"
                )
            target[:] = data
    if solver.fluid is not None:
        if "chi" not in f:
            raise ValueError("checkpoint lacks the fluid state")
        solver.fluid.chi[:] = f["chi"]
        solver.fluid.chi_dot[:] = f["chi_dot"]
        solver.fluid.chi_ddot[:] = f["chi_ddot"]
    for code, atten in solver.attenuation.items():
        name = f"zeta_{code}"
        if name not in f:
            raise ValueError(
                f"checkpoint lacks attenuation memory for region {code}"
            )
        atten.zeta[:] = f[name]
    # -- Seismogram buffers -------------------------------------------------
    if "seis_data" in f:
        if not solver.receiver_sets:
            raise ValueError(
                "checkpoint carries seismogram buffers but the solver has "
                "no receivers; rebuild the solver with the same stations"
            )
        data = f["seis_data"]  # (B, nrec, n_steps, 3)
        sets = solver.receiver_sets
        expected = (len(sets), len(sets[0].receivers))
        if data.ndim != 4 or data.shape[:2] != expected or data.shape[-1] != 3:
            raise ValueError(
                f"checkpoint seismogram buffer {data.shape} does not match "
                f"the solver's {expected[0]} events x {expected[1]} receivers"
            )
        # The restored run keeps the checkpointed recording horizon.
        # ``seis_n_steps`` was once written but never read back, so a
        # truncated buffer silently passed as a shorter recording;
        # cross-check it against the buffer's actual step extent.
        if "seis_n_steps" in f:
            declared = int(f["seis_n_steps"])
            if declared != data.shape[2]:
                raise ValueError(
                    f"checkpoint seismogram buffer carries "
                    f"{data.shape[2]} steps but declares "
                    f"seis_n_steps={declared}; the file is inconsistent"
                )
        solver.restore_seismograms(data, int(f["seis_step"]))
    elif solver.receiver_sets:
        raise ValueError(
            "checkpoint has no seismogram buffers but the solver records "
            "receivers; the segmented seismograms would be wrong"
        )
    return int(f["step"])


class CheckpointManager:
    """Step-addressed checkpoint store with bounded retention.

    One directory holds one solver's (or one rank's) checkpoints, named
    ``step_<NNNNNNNN>.ckpt`` so the step is recoverable from a directory
    scan alone.  ``keep=K`` bounds disk for long campaigns: after every
    save, all but the newest K *active* checkpoints are pruned.

    Corruption interacts with retention through *quarantine*, not
    deletion: a checkpoint that fails verification during
    :meth:`restore_latest` is renamed aside (suffix
    ``.quarantined``) so it stops counting against ``keep`` and stops
    being a restore candidate, while the evidence survives for
    post-mortem.  Pruning only ever removes the *oldest* active files,
    so walking back past a corrupt newest checkpoint always finds the
    next-newest verified one if any exists — the prune-past-corruption
    property the unit tests pin down.
    """

    #: Active checkpoint filename pattern (quarantined files get an
    #: extra suffix and no longer match).
    FILE_PREFIX = "step_"
    FILE_SUFFIX = ".ckpt"

    def __init__(
        self,
        directory: str | Path,
        keep: int | None = None,
        tracer=None,
        metrics=None,
    ):
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1 (or None for all), got {keep}")
        self.directory = Path(directory)
        self.keep = keep
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
        """Checkpoint ``solver`` at ``step``, then apply retention."""
        path = save_checkpoint(
            solver, self.path_of(step), step,
            tracer=self.tracer, metrics=self.metrics,
        )
        self.prune()
        return path

    def load(self, solver, step: int) -> int:
        """Restore ``solver`` from the checkpoint at exactly ``step``."""
        path = self.path_of(step)
        if not path.exists():
            raise CheckpointError(
                f"no checkpoint for step {step} in {self.directory}"
            )
        loaded = load_checkpoint(
            solver, path, tracer=self.tracer, metrics=self.metrics
        )
        if loaded != int(step):
            raise CheckpointError(
                f"checkpoint {path} carries step {loaded}, expected {step}"
            )
        return loaded

    def arrays(self, step: int) -> dict[str, np.ndarray]:
        """Raw verified arrays of the checkpoint at ``step`` (no solver)."""
        return read_verified_arrays(self.path_of(step))

    def quarantine(self, step: int) -> Path | None:
        """Move the checkpoint at ``step`` aside (evidence, not a candidate)."""
        path = self.path_of(step)
        if not path.exists():
            return None
        target = quarantine(path)
        if self.metrics is not None:
            self.metrics.counter("checkpoint.quarantined").add(1)
        return target

    def prune(self) -> list[int]:
        """Delete the oldest active checkpoints beyond ``keep``; returns
        the pruned steps."""
        if self.keep is None:
            return []
        active = self.steps()
        doomed = active[:-self.keep] if len(active) > self.keep else []
        for step in doomed:
            try:
                self.path_of(step).unlink()
            except OSError:
                pass
        if doomed and self.metrics is not None:
            self.metrics.counter("checkpoint.pruned").add(len(doomed))
        return doomed

    def restore_latest(self, solver, on_reject=None) -> int | None:
        """Restore from the newest verified checkpoint, walking back past
        corruption.

        Each checkpoint that fails to load is quarantined and reported
        through ``on_reject(path, exc)`` before the next-newest is
        tried.  Returns the restored step, or ``None`` when no loadable
        checkpoint exists (the caller restarts from scratch).
        """
        for step in reversed(self.steps()):
            path = self.path_of(step)
            try:
                return self.load(solver, step)
            # Only corruption/unreadability walks back; a shape or dt
            # mismatch (ValueError) means the *solver* is wrong for this
            # store and quarantining intact files would not help.
            except CheckpointError as exc:
                quarantined = self.quarantine(step)
                if on_reject is not None:
                    on_reject(quarantined or path, exc)
        return None
