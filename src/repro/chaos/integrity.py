"""End-to-end integrity: the one verified-record codec every artifact uses.

Restart files, mesh-cache spills and stored seismogram runs are the
long-lived state of a campaign; a bit flipped on disk or a partial write
must be *detected at load time*, not discovered as garbage seismograms a
week later.  Every such artifact is one flat *record*, written by
:func:`write_record` and verified by :func:`read_record`; the consumers
(:mod:`repro.solver.checkpoint`, :mod:`repro.campaign.mesh_cache`,
:mod:`repro.service.store`) are schemas over it — an 8-byte magic and
the names of their arrays — so a file offered to the wrong loader fails
its magic check instead of half-loading.

Record layout (little-endian)::

    preamble   magic (8 bytes), header length (u32), header CRC32 (u32)
    header     JSON: {"arrays": [{name, dtype, shape, offset, nbytes,
                                   crc32}, ...], "meta": {...}}
    arrays     each array's raw bytes, ``offset`` bytes past the header

Every byte is covered: the magic is compared, the header by its CRC32,
each array by its own CRC32 (:func:`array_checksums`), and the length
must come out exact — so every single-bit flip, every truncation and
every stray trailing byte is caught.  The record is uncompressed: arrays
are streamed to disk from their own buffers and read back with one
``readinto``, so a load returns writable arrays without a copy.

The module also holds the rest of the artifact life cycle, once:
:func:`atomic_write` (temp file + ``os.replace``, so a reader sees the
whole old file, the whole new one, or none), :func:`quarantine` (a
corrupt file is renamed ``*.quarantined`` — evidence, never a candidate
again), and the append-only ``manifest.jsonl`` provenance stream
(:func:`append_manifest`, torn-line-tolerant :func:`read_manifest`).

Failures are typed per consumer: a corrupt checkpoint raises
``CheckpointCorruptionError`` (defined next to ``CheckpointError`` in
:mod:`repro.solver.checkpoint`, subclassing both it and
:class:`IntegrityError`); a corrupt cache spill or stored run raises
:class:`CacheCorruptionError`, which the cache quarantines and treats as
a miss.  :func:`flip_bit` is the drill-side tool: deterministic
single-bit file corruption for tests and the CI chaos drill.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Any, Iterable

import numpy as np

__all__ = [
    "IntegrityError",
    "CacheCorruptionError",
    "array_checksums",
    "write_record",
    "read_record",
    "atomic_write",
    "quarantine",
    "append_manifest",
    "read_manifest",
    "flip_bit",
]

_PREAMBLE = struct.Struct("<8sII")  # magic, header length, header CRC32


class IntegrityError(ValueError):
    """Stored data does not match its recorded checksum."""


class CacheCorruptionError(IntegrityError):
    """A mesh-cache spill or stored run is corrupt (quarantined, a miss)."""


def _contiguous(array) -> np.ndarray:
    # Not np.ascontiguousarray: it turns a 0-d array into shape (1,).
    array = np.asarray(array)
    return array if array.flags.c_contiguous else array.copy(order="C")


def array_checksums(arrays: dict[str, np.ndarray]) -> dict[str, int]:
    """CRC32 of every array's raw C-order bytes (the record's per-array CRC).

    Hashes the array's own buffer; only a non-contiguous input is copied.
    """
    return {name: zlib.crc32(_contiguous(a)) for name, a in arrays.items()}


def atomic_write(path: str | Path, chunks: Iterable) -> Path:
    """Write ``chunks`` (bytes-like objects) to ``path`` atomically.

    Data goes to a temp file in the target directory which is then
    :func:`os.replace`-d over ``path``: a crash mid-write leaves any
    previous file intact and no temp litter.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def write_record(
    path: str | Path,
    magic: bytes,
    arrays: dict[str, np.ndarray],
    meta: dict[str, Any] | None = None,
) -> Path:
    """Atomically write one verified record (see the module docstring)."""
    arrays = {name: _contiguous(a) for name, a in arrays.items()}
    crcs = array_checksums(arrays)
    entries, offset = [], 0
    for name, a in arrays.items():
        entries.append({"name": name, "dtype": a.dtype.str,
                        "shape": list(a.shape), "offset": offset,
                        "nbytes": a.nbytes, "crc32": crcs[name]})
        offset += a.nbytes
    header = json.dumps({"arrays": entries, "meta": meta or {}},
                        sort_keys=True).encode("utf-8")
    preamble = _PREAMBLE.pack(magic, len(header), zlib.crc32(header))
    return atomic_write(path, [preamble, header, *arrays.values()])


def read_record(
    path: str | Path, magic: bytes
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """The verified ``(arrays, meta)`` of one record.

    The file is read with one ``readinto``; the arrays are writable views
    of that buffer, owned by the caller.  Raises :class:`IntegrityError`
    for a wrong magic or any failed check, :class:`OSError` when the file
    cannot be read at all.
    """
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        got = fh.readinto(raw)
    if got != len(raw) or got < _PREAMBLE.size:
        raise IntegrityError(f"short record: {got} of {len(raw)} bytes read")
    found, header_len, header_crc = _PREAMBLE.unpack_from(raw)
    if found != magic:
        raise IntegrityError(f"magic {found!r} is not {magic!r}")
    start = _PREAMBLE.size + header_len
    view = memoryview(raw)
    if start > len(raw) or zlib.crc32(view[_PREAMBLE.size:start]) != header_crc:
        raise IntegrityError("header CRC32 mismatch")
    try:
        header = json.loads(raw[_PREAMBLE.size:start])
        arrays, end = {}, start
        for entry in header["arrays"]:
            lo = start + entry["offset"]
            end = lo + entry["nbytes"]
            if end > len(raw) or zlib.crc32(view[lo:end]) != entry["crc32"]:
                raise IntegrityError(
                    f"CRC32 mismatch for array {entry['name']}"
                )
            arrays[entry["name"]] = np.frombuffer(
                view[lo:end], dtype=entry["dtype"]
            ).reshape(entry["shape"])
        meta = header["meta"]
    except IntegrityError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"malformed record header: {exc}") from exc
    if end != len(raw):
        raise IntegrityError(f"{len(raw) - end} bytes past the last array")
    return arrays, meta


def quarantine(path: str | Path) -> Path | None:
    """Move a corrupt artifact aside as ``<name>.quarantined``.

    The renamed file no longer matches any loader's name pattern but
    survives for post-mortem; if the rename fails the file is deleted.
    Returns the quarantined path, or ``None`` when nothing was kept.
    """
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    try:
        os.replace(path, target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def append_manifest(path: str | Path, record: dict[str, Any]) -> None:
    """Append one JSON line to an append-only ``manifest.jsonl`` stream."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_manifest(
    path: str | Path, record_type: str | None = None
) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Tolerantly read an append-only ``manifest.jsonl`` stream.

    Same policy as :func:`repro.obs.stream.read_stream`: a torn final
    line — the normal aftermath of a process killed mid-append — is
    counted in ``info["bad_lines"]`` and skipped, never raised, so a
    crash cannot poison ``report --campaign`` or a service warm-up
    scan.  Returns ``(records, info)``; a missing manifest is an empty
    stream, not an error.  ``record_type`` filters on the records'
    ``record_type`` field (absent = per-job records, which predate the
    field and match ``record_type=None`` only).
    """
    records: list[dict[str, Any]] = []
    info = {"bad_lines": 0, "lines": 0}
    manifest = Path(path)
    if not manifest.exists():
        return records, info
    with manifest.open(encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            info["lines"] += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                info["bad_lines"] += 1
                continue
            if not isinstance(obj, dict):
                info["bad_lines"] += 1
                continue
            if record_type is not None and obj.get("record_type") != record_type:
                continue
            records.append(obj)
    return records, info


def flip_bit(path: str | Path, bit: int = 0) -> Path:
    """Flip one bit of a file in place (deterministic drill corruption).

    ``bit`` indexes into the file's bits modulo its size; the middle of
    the file (array data rather than the header) is a good target:
    ``flip_bit(p, bit=8 * (size // 2))``.
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    if not raw:
        raise ValueError(f"cannot corrupt empty file {path}")
    pos = bit % (len(raw) * 8)
    raw[pos // 8] ^= 1 << (pos % 8)
    path.write_bytes(bytes(raw))
    return path
