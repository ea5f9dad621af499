"""Content-addressed global-mesh cache: one mesh, many seismic events.

The expensive half of a simulation request is the mesh, and the mesh
depends only on a *subset* of :class:`SimulationParameters` — resolution,
radial layering, geometry switches — not on sources, record length, or
solver physics like attenuation.  A campaign of N earthquakes simulated
at one resolution therefore needs one mesh, not N (the amortisation move
of the frequency-domain solvers in PAPERS.md: one factorisation, many
right-hand sides).

:func:`mesh_cache_key` canonically hashes that subset; :class:`MeshCache`
keeps an in-memory LRU of built meshes keyed on it, with an optional
on-disk spill directory of verified records
(:mod:`repro.chaos.integrity`) so meshes survive eviction (and
processes).
Hit/miss/spill counters are exported through a
:class:`~repro.obs.metrics.MetricsRegistry` under ``campaign.mesh_cache.*``.

Concurrent requests for the same key are single-flight: the first caller
builds, the rest block on the build and count as hits — a 4-job campaign
sharing one parameter set builds the mesh exactly once even with 4
workers.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..chaos.integrity import (
    CacheCorruptionError,
    IntegrityError,
    quarantine,
    read_record,
    write_record,
)
from ..config.parameters import SimulationParameters
from ..mesh.element import RegionMesh
from ..mesh.mesher import GlobalMesh, build_global_mesh
from ..solver.prepared import PreparedMesh, deformed_surfaces

__all__ = [
    "MESH_KEY_FIELDS",
    "mesh_cache_key",
    "params_hash",
    "MeshCache",
    "save_mesh_spill",
    "load_mesh_spill",
]

_MAGIC = b"MESHREC1"

#: Par_file keys that determine the generated mesh, and nothing else.
#: Solver-only switches (attenuation, rotation, gravity, oceans, kernel
#: variant, record length, sources/receivers) are deliberately absent:
#: two parameter sets differing only in those share one mesh.
#: ``SINGLE_PASS_MESHER`` is also absent — both passes produce identical
#: meshes (that is the point of the A-MESH2X ablation).
MESH_KEY_FIELDS = (
    "NEX_XI",
    "NPROC_XI",
    "NER_CRUST_MANTLE",
    "NER_OUTER_CORE",
    "NER_INNER_CORE",
    "ELLIPTICITY",
    "TOPOGRAPHY",
    "TRANSVERSE_ISOTROPY",
    "USE_3D_MODEL",
    "UNIFORM_RADIAL_LAYERS",
    "SEED",
)


def mesh_cache_key(params: SimulationParameters) -> str:
    """Canonical content hash of the mesh-relevant parameter subset."""
    full = params.to_dict()
    subset = {name: full[name] for name in MESH_KEY_FIELDS}
    canon = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def params_hash(params: SimulationParameters) -> str:
    """Canonical content hash of the *complete* parameter set (provenance)."""
    canon = json.dumps(
        params.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# -------------------------------------------------------------------- spill


def save_mesh_spill(mesh: GlobalMesh, path: str | Path) -> Path:
    """Serialise a :class:`GlobalMesh` to one verified record (atomic)."""
    arrays: dict[str, np.ndarray] = {}
    for code, rmesh in mesh.regions.items():
        code = int(code)
        arrays[f"{code}_xyz"] = rmesh.xyz
        arrays[f"{code}_ibool"] = rmesh.ibool
        for name in ("rho", "kappa", "mu", "q_mu"):
            value = getattr(rmesh, name)
            if value is not None:
                arrays[f"{code}_{name}"] = value
        if rmesh.ti_moduli is not None:
            for love in ("A", "C", "L", "N", "F"):
                arrays[f"{code}_ti_{love}"] = getattr(rmesh.ti_moduli, love)
        arrays[f"{code}_owner"] = mesh.slice_of_element[code]
    meta = {
        "params": mesh.params.to_dict(),
        "cube_elements": int(mesh.cube_elements),
        "nglob": {str(int(c)): int(r.nglob) for c, r in mesh.regions.items()},
    }
    return write_record(path, _MAGIC, arrays, meta)


def load_mesh_spill(path: str | Path) -> GlobalMesh:
    """Rebuild a :class:`GlobalMesh` from :func:`save_mesh_spill` output.

    Every byte is verified; a file that is not a mesh record or fails a
    CRC32 check raises :class:`~repro.chaos.integrity.CacheCorruptionError`
    (which :class:`MeshCache` quarantines and treats as a miss).
    """
    try:
        f, meta = read_record(path, _MAGIC)
    except (OSError, IntegrityError) as exc:
        raise CacheCorruptionError(
            f"mesh spill {path} failed integrity verification: {exc}"
        ) from exc
    regions: dict[int, RegionMesh] = {}
    owners: dict[int, np.ndarray] = {}
    for code, nglob in sorted((int(c), n) for c, n in meta["nglob"].items()):
        ti = None
        if f"{code}_ti_A" in f:
            from ..kernels.anisotropic import TIModuli

            ti = TIModuli(
                **{love: f[f"{code}_ti_{love}"] for love in "ACLNF"}
            )
        regions[code] = RegionMesh(
            region=code,
            xyz=f[f"{code}_xyz"],
            ibool=f[f"{code}_ibool"],
            nglob=nglob,
            rho=f[f"{code}_rho"],
            kappa=f[f"{code}_kappa"],
            mu=f[f"{code}_mu"],
            q_mu=f[f"{code}_q_mu"],
            ti_moduli=ti,
        )
        owners[code] = f[f"{code}_owner"]
    return GlobalMesh(
        params=SimulationParameters.from_dict(meta["params"]),
        regions=regions, slice_of_element=owners,
        cube_elements=meta["cube_elements"],
    )


# ------------------------------------------------------------------- cache


class _Entry:
    """Single-flight cache slot: built once, awaited by everyone else."""

    __slots__ = ("ready", "mesh", "error")

    def __init__(self):
        self.ready = threading.Event()
        self.mesh: GlobalMesh | None = None
        self.error: BaseException | None = None


class MeshCache:
    """In-memory LRU of built global meshes with optional disk spill.

    Parameters
    ----------
    max_entries : in-memory capacity; the least-recently-used mesh is
        evicted (and spilled to disk if a ``spill_dir`` is set).
    spill_dir : directory for record copies of evicted meshes; evicted keys
        reload from there instead of re-meshing (counted as
        ``disk_hits``, still far cheaper than a rebuild).
    metrics : optional registry receiving ``campaign.mesh_cache.hits`` /
        ``.misses`` / ``.disk_hits`` / ``.evictions`` counters.
    builder : mesh construction hook (defaults to
        :func:`~repro.mesh.mesher.build_global_mesh`); injectable for
        tests and alternative mesher backends.

    Every :class:`GlobalMesh` the cache builds or reloads carries an empty
    :class:`~repro.solver.prepared.PreparedMesh` (``mesh.prepared``): the
    first solver on the entry fills it (geometry, mass, coupling
    operators, Courant bound) and every later solver reuses it.  An entry
    a solver has used therefore holds ≈ 23 MiB more at NEX 8.  Eviction
    detaches it; the prepared arrays are never spilled, a reloaded mesh
    gets a fresh empty one and its first solver rebuilds them.
    """

    def __init__(
        self,
        max_entries: int = 4,
        spill_dir: str | Path | None = None,
        metrics=None,
        builder=None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.metrics = metrics
        self.builder = builder or (lambda params: build_global_mesh(params))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corruptions = 0

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"campaign.mesh_cache.{name}").add(value)

    def _spill_path(self, key: str) -> Path | None:
        if self.spill_dir is None:
            return None
        return self.spill_dir / f"mesh-{key}.mesh"

    def _evict_overflow(self, tracer=None) -> None:
        # Called with the lock held.  Never evict an in-flight build.
        from ..obs.tracer import maybe_tracer

        tr = maybe_tracer(tracer)
        while len(self._entries) > self.max_entries:
            victim = None
            for key, entry in self._entries.items():
                if entry.ready.is_set():
                    victim = key
                    break
            if victim is None:
                return
            entry = self._entries.pop(victim)
            if isinstance(entry.mesh, GlobalMesh):
                entry.mesh.prepared = None
            self.evictions += 1
            self._count("evictions")
            spill = self._spill_path(victim)
            if spill is not None and entry.mesh is not None and not spill.exists():
                with tr.span("cache.spill"):
                    save_mesh_spill(entry.mesh, spill)

    # -- API ----------------------------------------------------------------

    def get(
        self, params: SimulationParameters, tracer=None
    ) -> tuple[GlobalMesh, bool]:
        """Return ``(mesh, was_hit)`` for the parameter set's mesh key.

        Misses build (or reload from the spill directory) under a
        single-flight guarantee; concurrent callers of the same key block
        on the one build and count as hits.

        ``tracer`` records what this call actually did — ``cache.build``
        around a fresh mesh build, ``cache.load`` around a disk-spill
        reload — and must be the *caller's own* tracer (each worker
        passes its per-worker instance); the cache holds no tracer of its
        own because `get` runs concurrently from many threads.  Eviction
        spills are recorded as ``cache.spill`` on whichever caller's
        tracer triggered the eviction.
        """
        from ..obs.tracer import maybe_tracer

        tr = maybe_tracer(tracer)
        key = mesh_cache_key(params)
        with self._lock:
            # Counters update under the cache lock so concurrent workers
            # cannot lose increments (the registry itself is unlocked).
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits")
                wait_needed = not entry.ready.is_set()
            else:
                entry = _Entry()
                self._entries[key] = entry
                self.misses += 1
                self._count("misses")
                wait_needed = False
        if entry.mesh is not None or entry.error is not None or wait_needed:
            entry.ready.wait()
            if entry.error is not None:
                raise entry.error
            return entry.mesh, True
        # This thread owns the build.
        try:
            spill = self._spill_path(key)
            if spill is not None and spill.exists():
                try:
                    with tr.span("cache.load", key=1):
                        entry.mesh = load_mesh_spill(spill)
                    with self._lock:
                        self.disk_hits += 1
                        self._count("disk_hits")
                except CacheCorruptionError:
                    # Quarantine the corrupt spill (so it is never loaded
                    # again) and rebuild: corruption is a miss, not an
                    # error — the cache heals itself.
                    quarantine(spill)
                    with self._lock:
                        self.corruptions += 1
                        self._count("corruptions")
                    with tr.span("cache.build"):
                        entry.mesh = self.builder(params)
            else:
                with tr.span("cache.build"):
                    entry.mesh = self.builder(params)
            if isinstance(entry.mesh, GlobalMesh):
                entry.mesh.prepared = PreparedMesh(
                    entry.mesh.regions, deformed_surfaces(entry.mesh.params)
                )
        except BaseException as exc:
            entry.error = exc
            with self._lock:
                self._entries.pop(key, None)
            entry.ready.set()
            raise
        entry.ready.set()
        with self._lock:
            self._evict_overflow(tracer=tr)
        return entry.mesh, False

    def __contains__(self, params: SimulationParameters) -> bool:
        with self._lock:
            return mesh_cache_key(params) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss accounting snapshot (what the CLI table prints)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "corruptions": self.corruptions,
            }
