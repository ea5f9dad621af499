"""Content-addressed seismogram store: flat verified records + manifest.

The service's cache of record.  Each stored *run* is one verified record
(:mod:`repro.chaos.integrity`, magic ``SEISREC1``) — the
(n_stations, n_steps, 3) seismogram array in canonical station order,
the station positions, and header metadata carrying the station names,
the time step and the keys — addressed by the
:func:`~repro.service.keys.request_key` of the request that produced it.
A warm hit is this store's hot path, so the record is read with one
``readinto``, one ``json.loads`` and one ``np.frombuffer`` per array: no
zip directory, no per-member header parse, no inflate.  Provenance lands
in an append-only ``manifest.jsonl`` exactly like
:class:`~repro.campaign.store.ResultStore`, and warm-up scans read it
through the torn-line-tolerant
:func:`~repro.chaos.integrity.read_manifest` — a crash mid-append costs
one line, never the store.

Every byte of a record is verified on load, so every single-bit flip,
every truncation and every stray trailing byte is caught.  Corruption is
self-healing: a record that fails verification is quarantined (renamed
``*.quarantined``) and deregistered, so the service re-computes instead
of serving garbage — the quarantine-and-recompute drill in
``tests/test_service.py`` proves the full loop.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..chaos.integrity import (
    CacheCorruptionError,
    IntegrityError,
    append_manifest,
    quarantine,
    read_manifest,
    read_record,
    write_record,
)
from ..solver.receivers import Station

__all__ = ["StoredRun", "SeismogramStore"]

RUN_RECORD_TYPE = "seismogram_run"
PAYLOAD_SUFFIX = ".seis"
_MAGIC = b"SEISREC1"


@dataclass(frozen=True)
class StoredRun:
    """Index entry of one stored seismogram bundle (not the data)."""

    key: str
    physics_key: str
    params_hash: str
    stations: tuple[Station, ...]  # canonical order = payload row order
    n_steps: int
    dt: float
    path: Path

    @property
    def station_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stations)


class SeismogramStore:
    """Directory-backed, content-addressed store of seismogram runs.

    Layout::

        <directory>/runs/run-<key>.seis  # flat record, CRC32-verified on load
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
        self._runs: dict[str, StoredRun] = {}
        self._by_physics: dict[str, list[str]] = {}
        self.corruptions = 0
        self.scan()

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"service.store.{name}").add(value)

    def _run_path(self, key: str) -> Path:
        return self.runs_dir / f"run-{key}{PAYLOAD_SUFFIX}"

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
        quarantine(run.path)

    # -- scan / index -------------------------------------------------------

    def scan(self) -> int:
        """(Re)build the index from the manifest; returns runs indexed.

        The warm-up path of a restarted service: manifest lines whose
        payload file has since vanished (or was quarantined) are
        skipped, torn lines are tolerated by :func:`read_manifest`.
        Records of an older payload format (any suffix but
        ``PAYLOAD_SUFFIX``) are not indexed: their requests recompute.
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
                if (run.path.suffix == PAYLOAD_SUFFIX
                        and run.path.name in present):
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
        """Persist one run (one atomic record write + manifest append).

        A reader sees the whole old record, the whole new one, or none.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != len(stations):
            raise ValueError(
                f"seismogram array shape {data.shape} does not match "
                f"{len(stations)} stations"
            )
        path = self._run_path(key)
        write_record(
            path,
            _MAGIC,
            {
                "data": data,
                "station_positions": np.asarray(
                    [s.position for s in stations], dtype=np.float64
                ),
            },
            {
                "key": key,
                "physics_key": physics_key,
                "params_hash": params_hash,
                "dt": float(dt),
                "station_names": [s.name for s in stations],
                **(extra or {}),
            },
        )
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
            append_manifest(self.manifest_path, record)
            self._register(run)
        self._count("puts")
        return run

    def load(self, run: StoredRun) -> np.ndarray:
        """The verified (n_stations, n_steps, 3) array of a stored run.

        One read, one header parse, one CRC32 per array; a record that
        cannot be read or fails any check is quarantined and raises
        :class:`~repro.chaos.integrity.CacheCorruptionError` — the
        caller treats that as a miss and recomputes.  The array returned
        is the caller's own, writable.
        """
        try:
            data = read_record(run.path, _MAGIC)[0]["data"]
        except (OSError, KeyError, IntegrityError) as exc:
            self._quarantine(run)
            raise CacheCorruptionError(
                f"seismogram run {run.path} is corrupt or truncated: {exc}"
            ) from exc
        self._count("loads")
        return data

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
