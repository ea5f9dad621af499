"""Legacy mesher -> solver file I/O (the bottleneck of paper Section 4.1).

SPECFEM3D_GLOBE v4.0 ran as two programs: ``meshfem3D`` wrote the mesh
databases to disk — "up to 51 files per core", over 3.2 million files at
62K cores — and ``specfem3D`` read them back.  On diskless large systems
this traffic hits the shared parallel filesystem and becomes the dominant
cost (Figure 5 extrapolates 14 TB at a 2-second period, 108 TB at 1 s).

This module reproduces that mode faithfully at small scale: one directory
per run, per-rank-per-region database files in the same *kinds* the
Fortran code wrote (coordinates, ibool, material arrays, attenuation
arrays, boundary lists, ...), 17 kinds x 3 regions = 51 files per core.
Byte counts and file counts are returned for the Figure-5 disk model.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mesh.element import RegionMesh, SliceMesh
from ..model.prem import RegionCode

__all__ = [
    "DiskUsage",
    "FILE_KINDS_PER_REGION",
    "write_slice_database",
    "read_slice_database",
    "rebuild_region_mesh",
    "database_summary",
]

#: File kinds the legacy writer emits per (rank, region): chosen to mirror
#: the Fortran databases; 17 kinds x 3 regions = 51 files per core, the
#: paper's number.
FILE_KINDS_PER_REGION = (
    "coords_x", "coords_y", "coords_z",          # mesh point coordinates
    "ibool",                                     # local->global mapping
    "rho", "kappa", "mu",                        # material arrays
    "qmu",                                       # attenuation model
    "jacobian_hint",                             # element geometry summary
    "boundary_faces",                            # external-face list
    "mass_hint",                                 # per-point rho*w estimate
    "region_meta",                               # sizes / region code
    "mpi_interfaces",                            # slice-boundary points
    "coupling_faces",                            # CMB/ICB face lists
    "free_surface",                              # surface face list
    "stations_hint",                             # receiver bookkeeping
    "checksums",                                 # integrity data
)


@dataclass
class DiskUsage:
    """Accounting of one database write or read."""

    files: int = 0
    bytes: int = 0
    wall_s: float = 0.0

    def __iadd__(self, other: "DiskUsage") -> "DiskUsage":
        self.files += other.files
        self.bytes += other.bytes
        self.wall_s += other.wall_s
        return self


def _region_payloads(mesh: RegionMesh) -> dict[str, np.ndarray]:
    """The arrays written for one region, keyed by file kind."""
    from ..mesh.interfaces import external_faces

    faces = external_faces(mesh.ibool).astype(np.int32)
    n_boundary = max(len(faces), 1)
    return {
        "coords_x": mesh.xyz[..., 0].astype(np.float32),
        "coords_y": mesh.xyz[..., 1].astype(np.float32),
        "coords_z": mesh.xyz[..., 2].astype(np.float32),
        "ibool": mesh.ibool.astype(np.int32),
        "rho": mesh.rho.astype(np.float32),
        "kappa": mesh.kappa.astype(np.float32),
        "mu": mesh.mu.astype(np.float32),
        "qmu": mesh.q_mu.astype(np.float32),
        "jacobian_hint": mesh.xyz.reshape(mesh.nspec, -1).mean(axis=1)
        .astype(np.float32),
        "boundary_faces": faces if faces.size else np.zeros((1, 2), np.int32),
        "mass_hint": (mesh.rho.reshape(mesh.nspec, -1).mean(axis=1))
        .astype(np.float32),
        "region_meta": np.asarray(
            [mesh.region, mesh.nspec, mesh.nglob, mesh.ngll], dtype=np.int64
        ),
        "mpi_interfaces": faces[: n_boundary // 2 + 1].astype(np.int32)
        if faces.size else np.zeros((1, 2), np.int32),
        "coupling_faces": np.zeros((max(n_boundary // 6, 1), 2), np.int32),
        "free_surface": np.zeros((max(n_boundary // 6, 1), 2), np.int32),
        "stations_hint": np.zeros(8, np.int32),
        "checksums": np.asarray(
            [float(np.sum(mesh.xyz)), float(np.sum(mesh.rho))], dtype=np.float64
        ),
    }


def write_slice_database(
    slice_mesh: SliceMesh, rank: int, directory: str | Path
) -> DiskUsage:
    """Write one rank's databases in the legacy per-file layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    usage = DiskUsage()
    t0 = time.perf_counter()
    for region, mesh in slice_mesh.regions.items():
        payloads = _region_payloads(mesh)
        missing = set(FILE_KINDS_PER_REGION) - set(payloads)
        if missing:
            raise RuntimeError(f"writer lost file kinds: {missing}")
        for kind in FILE_KINDS_PER_REGION:
            path = directory / f"proc{rank:06d}_reg{region}_{kind}.bin"
            arr = payloads[kind]
            with open(path, "wb") as fh:
                header = json.dumps(
                    {"dtype": str(arr.dtype), "shape": arr.shape}
                ).encode()
                fh.write(len(header).to_bytes(8, "little"))
                fh.write(header)
                fh.write(np.ascontiguousarray(arr).tobytes())
            usage.files += 1
            usage.bytes += path.stat().st_size
    usage.wall_s = time.perf_counter() - t0
    return usage


def read_slice_database(
    rank: int, directory: str | Path
) -> tuple[dict[int, dict[str, np.ndarray]], DiskUsage]:
    """Read one rank's databases back; returns per-region payload dicts."""
    directory = Path(directory)
    usage = DiskUsage()
    t0 = time.perf_counter()
    out: dict[int, dict[str, np.ndarray]] = {}
    for region in RegionCode.NAMES:
        region_files = sorted(
            directory.glob(f"proc{rank:06d}_reg{region}_*.bin")
        )
        if not region_files:
            continue
        payloads: dict[str, np.ndarray] = {}
        for path in region_files:
            kind = path.stem.split(f"_reg{region}_", 1)[1]
            with open(path, "rb") as fh:
                hlen = int.from_bytes(fh.read(8), "little")
                header = json.loads(fh.read(hlen))
                data = np.frombuffer(fh.read(), dtype=header["dtype"])
                payloads[kind] = data.reshape(header["shape"])
            usage.files += 1
            usage.bytes += path.stat().st_size
        out[region] = payloads
    usage.wall_s = time.perf_counter() - t0
    if not out:
        raise FileNotFoundError(
            f"no database files for rank {rank} in {directory}"
        )
    return out, usage


def rebuild_region_mesh(region: int, payloads: dict[str, np.ndarray]) -> RegionMesh:
    """Reconstruct a solvable RegionMesh from legacy database payloads."""
    xyz = np.stack(
        [payloads["coords_x"], payloads["coords_y"], payloads["coords_z"]],
        axis=-1,
    ).astype(np.float64)
    meta = payloads["region_meta"]
    mesh = RegionMesh(
        region=int(meta[0]),
        xyz=xyz,
        ibool=payloads["ibool"].astype(np.int64),
        nglob=int(meta[2]),
        rho=payloads["rho"].astype(np.float64),
        kappa=payloads["kappa"].astype(np.float64),
        mu=payloads["mu"].astype(np.float64),
        q_mu=payloads["qmu"].astype(np.float64),
    )
    if mesh.region != region:
        raise ValueError(
            f"database region mismatch: expected {region}, got {mesh.region}"
        )
    return mesh


def database_summary(directory: str | Path) -> DiskUsage:
    """Total files/bytes currently in a database directory."""
    directory = Path(directory)
    usage = DiskUsage()
    for path in directory.glob("proc*.bin"):
        usage.files += 1
        usage.bytes += path.stat().st_size
    return usage
