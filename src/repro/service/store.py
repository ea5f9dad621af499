"""Content-addressed seismogram store: NPZ payloads + manifest provenance.

The service's cache of record.  Each stored *run* is one NPZ bundle —
the (n_stations, n_steps, 3) seismogram array in canonical station
order, the station names and positions, the time step — addressed by
the :func:`~repro.service.keys.request_key` of the request that
produced it, with a CRC32 map of every array embedded via
:mod:`repro.chaos.integrity` (the same format v3 discipline the
checkpoints and mesh spills follow).  Provenance lands in an
append-only ``manifest.jsonl`` exactly like
:class:`~repro.campaign.store.ResultStore`, and warm-up scans read it
through the torn-line-tolerant :func:`~repro.campaign.store
.read_manifest` — a crash mid-append costs one line, never the store.

Corruption is self-healing: a payload whose zip layer or checksums
reject is quarantined (renamed ``*.quarantined``) and deregistered, so
the service re-computes instead of serving garbage — the
quarantine-and-recompute drill in ``tests/test_service.py`` proves the
full loop.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..chaos.integrity import (
    INTEGRITY_KEY,
    CacheCorruptionError,
    IntegrityError,
    checksum_payload,
    parse_checksum_payload,
    verify_checksums,
)
from ..campaign.store import read_manifest
from ..solver.receivers import Station

__all__ = ["StoredRun", "SeismogramStore"]

RUN_RECORD_TYPE = "seismogram_run"


@dataclass(frozen=True)
class StoredRun:
    """Index entry of one stored seismogram bundle (not the data)."""

    key: str
    physics_key: str
    params_hash: str
    stations: tuple[Station, ...]  # canonical order = NPZ row order
    n_steps: int
    dt: float
    path: Path

    @property
    def station_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stations)


class SeismogramStore:
    """Directory-backed, content-addressed store of seismogram runs.

    Layout::

        <directory>/runs/run-<key>.npz   # payload, CRC32-verified on load
        <directory>/manifest.jsonl       # append-only provenance stream

    The in-memory index (key -> :class:`StoredRun`, physics key ->
    candidate runs) is built by :meth:`scan` from the manifest and kept
    current by :meth:`put`; all mutating operations are serialised on
    one lock because the service's backend executor threads and its
    event loop both touch the store.
    """

    def __init__(self, directory: str | Path, metrics=None):
        self.directory = Path(directory)
        self.runs_dir = self.directory / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / "manifest.jsonl"
        self.metrics = metrics
        self._lock = threading.Lock()
        #: One payload parse at a time.  ``np.load`` reads each array header
        #: with ``ast.literal_eval``, and CPython 3.11 counts the AST
        #: builder's recursion depth per interpreter, not per thread: when
        #: a garbage collection inside one thread's parse runs a finalizer
        #: that yields the GIL to another thread's parse, the first fails
        #: with ``SystemError: AST constructor recursion depth mismatch``.
        self._load_lock = threading.Lock()
        self._runs: dict[str, StoredRun] = {}
        self._by_physics: dict[str, list[str]] = {}
        self.corruptions = 0
        self.scan()

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"service.store.{name}").add(value)

    def _run_path(self, key: str) -> Path:
        return self.runs_dir / f"run-{key}.npz"

    def _register(self, run: StoredRun) -> None:
        # Called with the lock held; last write wins, like ResultStore.
        self._runs[run.key] = run
        siblings = self._by_physics.setdefault(run.physics_key, [])
        if run.key not in siblings:
            siblings.append(run.key)

    def _deregister(self, run: StoredRun) -> None:
        with self._lock:
            self._runs.pop(run.key, None)
            siblings = self._by_physics.get(run.physics_key, [])
            if run.key in siblings:
                siblings.remove(run.key)

    def _quarantine(self, run: StoredRun) -> None:
        """Move a corrupt payload aside and forget it ever existed."""
        self._deregister(run)
        self.corruptions += 1
        self._count("corruptions")
        target = run.path.with_suffix(run.path.suffix + ".quarantined")
        try:
            os.replace(run.path, target)
        except OSError:
            try:
                run.path.unlink()
            except OSError:
                pass

    # -- scan / index -------------------------------------------------------

    def scan(self) -> int:
        """(Re)build the index from the manifest; returns runs indexed.

        The warm-up path of a restarted service: manifest lines whose
        payload file has since vanished (or was quarantined) are
        skipped, torn lines are tolerated by :func:`read_manifest`.
        """
        records, info = read_manifest(
            self.manifest_path, record_type=RUN_RECORD_TYPE
        )
        self.manifest_bad_lines = info["bad_lines"]
        # One directory listing, not one stat per manifest record.
        with os.scandir(self.runs_dir) as entries:
            present = {entry.name for entry in entries}
        with self._lock:
            self._runs.clear()
            self._by_physics.clear()
            for rec in records:
                try:
                    run = StoredRun(
                        key=str(rec["key"]),
                        physics_key=str(rec["physics_key"]),
                        params_hash=str(rec.get("params_hash", "")),
                        stations=tuple(
                            Station(
                                name=str(name),
                                position=(float(x), float(y), float(z)),
                            )
                            for name, x, y, z in rec["stations"]
                        ),
                        n_steps=int(rec["n_steps"]),
                        dt=float(rec["dt"]),
                        path=self.runs_dir / str(rec["file"]),
                    )
                except (KeyError, TypeError, ValueError):
                    self.manifest_bad_lines += 1
                    continue
                if run.path.name in present:
                    self._register(run)
            return len(self._runs)

    def find_exact(self, key: str) -> StoredRun | None:
        """The stored run addressed by exactly this request key."""
        with self._lock:
            return self._runs.get(key)

    def find_candidates(self, physics_key: str) -> list[StoredRun]:
        """Every stored run sharing a wavefield with the request.

        Candidates for answering by slicing: same physics key, possibly
        a different (larger) station set.  Insertion order — older,
        already-proven runs first.
        """
        with self._lock:
            return [
                self._runs[k]
                for k in self._by_physics.get(physics_key, [])
                if k in self._runs
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)

    # -- put / load ---------------------------------------------------------

    def put(
        self,
        key: str,
        physics_key: str,
        stations: tuple[Station, ...],
        data: np.ndarray,
        dt: float,
        params_hash: str = "",
        extra: dict | None = None,
    ) -> StoredRun:
        """Persist one run (atomic NPZ write + manifest append)."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != len(stations):
            raise ValueError(
                f"seismogram array shape {data.shape} does not match "
                f"{len(stations)} stations"
            )
        path = self._run_path(key)
        arrays: dict[str, np.ndarray] = {
            "data": data,
            "dt": np.asarray(float(dt)),
            "station_names": np.asarray([s.name for s in stations]),
            "station_positions": np.asarray(
                [s.position for s in stations], dtype=np.float64
            ),
            "meta_json": np.asarray(
                json.dumps(
                    {
                        "key": key,
                        "physics_key": physics_key,
                        "params_hash": params_hash,
                        **(extra or {}),
                    },
                    sort_keys=True,
                )
            ),
        }
        arrays[INTEGRITY_KEY] = checksum_payload(arrays)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        run = StoredRun(
            key=key,
            physics_key=physics_key,
            params_hash=params_hash,
            stations=tuple(stations),
            n_steps=int(data.shape[1]),
            dt=float(dt),
            path=path,
        )
        record = {
            "record_type": RUN_RECORD_TYPE,
            "key": key,
            "physics_key": physics_key,
            "params_hash": params_hash,
            "stations": [
                [s.name, *[float(v) for v in s.position]] for s in stations
            ],
            "n_steps": run.n_steps,
            "dt": run.dt,
            "file": path.name,
        }
        with self._lock:
            with open(self.manifest_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._register(run)
        self._count("puts")
        return run

    def load(self, run: StoredRun) -> np.ndarray:
        """The verified (n_stations, n_steps, 3) array of a stored run.

        Every array is re-checked against the embedded CRC32 map; a
        payload the zip layer rejects or whose checksums mismatch is
        quarantined and raises :class:`~repro.chaos.integrity
        .CacheCorruptionError` — the caller treats that as a miss and
        recomputes.
        """
        try:
            with self._load_lock, np.load(run.path, allow_pickle=False) as raw:
                loaded = {name: np.array(raw[name]) for name in raw.files}
        except (
            OSError,
            ValueError,
            KeyError,
            zipfile.BadZipFile,
            json.JSONDecodeError,
        ) as exc:
            self._quarantine(run)
            raise CacheCorruptionError(
                f"seismogram run {run.path} is corrupt or truncated: {exc}"
            ) from exc
        try:
            if INTEGRITY_KEY not in loaded:
                raise IntegrityError("integrity map missing")
            verify_checksums(
                {k: v for k, v in loaded.items() if k != INTEGRITY_KEY},
                parse_checksum_payload(loaded[INTEGRITY_KEY]),
            )
        except IntegrityError as exc:
            self._quarantine(run)
            raise CacheCorruptionError(
                f"seismogram run {run.path} failed integrity "
                f"verification: {exc}"
            ) from exc
        self._count("loads")
        return loaded["data"]

    def stats(self) -> dict:
        """Index snapshot (what the CLI ``stats`` table prints)."""
        with self._lock:
            return {
                "runs": len(self._runs),
                "physics_groups": len(
                    [k for k, v in self._by_physics.items() if v]
                ),
                "corruptions": self.corruptions,
                "manifest_bad_lines": getattr(self, "manifest_bad_lines", 0),
            }
