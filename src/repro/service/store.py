"""Content-addressed seismogram store: flat verified records + manifest.

The service's cache of record.  Each stored *run* is one flat record
file — the (n_stations, n_steps, 3) seismogram array in canonical
station order, the station positions, and a JSON header carrying the
station names, the time step and the keys — addressed by the
:func:`~repro.service.keys.request_key` of the request that produced
it.  A warm hit is this store's hot path, so the record is read with
one ``read``, one ``json.loads`` and one ``np.frombuffer`` per array:
no zip directory, no per-member header parse, no inflate.  Provenance
lands in an append-only ``manifest.jsonl`` exactly like
:class:`~repro.campaign.store.ResultStore`, and warm-up scans read it
through the torn-line-tolerant :func:`~repro.campaign.store
.read_manifest` — a crash mid-append costs one line, never the store.

Record layout (little-endian)::

    preamble   magic b"SEISREC1", header length (u32), header CRC32 (u32)
    header     JSON: {"arrays": [{name, dtype, shape, offset, nbytes,
                                   crc32}, ...], "meta": {...}}
    arrays     each array's raw bytes, ``offset`` bytes past the header

Every byte of the file is covered: the magic is compared, the header by
its CRC32, each array by its own CRC32 and the length must come out
exact — so every single-bit flip, every truncation and every stray
trailing byte is caught.  Corruption is self-healing: a record that
fails verification is quarantined (renamed ``*.quarantined``) and
deregistered, so the service re-computes instead of serving garbage —
the quarantine-and-recompute drill in ``tests/test_service.py`` proves
the full loop.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..chaos.integrity import CacheCorruptionError, IntegrityError
from ..campaign.store import read_manifest
from ..solver.receivers import Station

__all__ = ["StoredRun", "SeismogramStore"]

RUN_RECORD_TYPE = "seismogram_run"
PAYLOAD_SUFFIX = ".seis"
_MAGIC = b"SEISREC1"
_PREAMBLE = struct.Struct("<8sII")  # magic, header length, header CRC32


def _pack_record(arrays: dict[str, np.ndarray], meta: dict) -> bytes:
    """One flat record: preamble, JSON header, each array's raw bytes."""
    arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    entries, offset = [], 0
    for name, a in arrays.items():
        entries.append({"name": name, "dtype": a.dtype.str,
                        "shape": list(a.shape), "offset": offset,
                        "nbytes": a.nbytes, "crc32": zlib.crc32(a)})
        offset += a.nbytes
    header = json.dumps({"arrays": entries, "meta": meta},
                        sort_keys=True).encode("utf-8")
    preamble = _PREAMBLE.pack(_MAGIC, len(header), zlib.crc32(header))
    return b"".join([preamble, header, *arrays.values()])


def _unpack_record(raw: bytes) -> dict[str, np.ndarray]:
    """The verified arrays of one record (read-only views of ``raw``)."""
    if len(raw) < _PREAMBLE.size:
        raise IntegrityError(f"{len(raw)} bytes is shorter than a preamble")
    magic, header_len, header_crc = _PREAMBLE.unpack_from(raw)
    start = _PREAMBLE.size + header_len
    view = memoryview(raw)
    if (magic != _MAGIC or start > len(raw)
            or zlib.crc32(view[_PREAMBLE.size:start]) != header_crc):
        raise IntegrityError("bad magic or header CRC32")
    arrays, end = {}, start
    for entry in json.loads(raw[_PREAMBLE.size:start])["arrays"]:
        lo = start + entry["offset"]
        end = lo + entry["nbytes"]
        if end > len(raw) or zlib.crc32(view[lo:end]) != entry["crc32"]:
            raise IntegrityError(f"CRC32 mismatch for array {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(
            view[lo:end], dtype=entry["dtype"]
        ).reshape(entry["shape"])
    if end != len(raw):
        raise IntegrityError(f"{len(raw) - end} bytes past the last array")
    return arrays


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

        The record is written with one ``write`` to a temp file that
        ``os.replace`` moves into place, so a reader sees the whole old
        file, the whole new one, or none.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != len(stations):
            raise ValueError(
                f"seismogram array shape {data.shape} does not match "
                f"{len(stations)} stations"
            )
        path = self._run_path(key)
        payload = _pack_record(
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
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
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

        One read, one header parse, one CRC32 per array; a record that
        cannot be read or fails any check is quarantined and raises
        :class:`~repro.chaos.integrity.CacheCorruptionError` — the
        caller treats that as a miss and recomputes.  The array returned
        is the caller's own writable copy.
        """
        try:
            with open(run.path, "rb") as fh:
                data = _unpack_record(fh.read())["data"].copy()
        except (OSError, KeyError, TypeError, ValueError) as exc:
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
