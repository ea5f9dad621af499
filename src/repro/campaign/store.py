"""Run manifest / result store: per-job provenance as queryable JSON.

Every campaign job leaves a :class:`JobRecord` — parameter and mesh
hashes, segment count, retry history, wall times, trace paths — written
as one JSON file per job (atomically, like the checkpoints) plus an
append-only ``manifest.jsonl`` stream.  ``python -m repro.campaign
report <dir>`` renders the store as a summary table; the per-job files
are the source of truth, the manifest is the convenient audit log.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..chaos.integrity import append_manifest, atomic_write, read_manifest

__all__ = [
    "JobRecord",
    "ResultStore",
    "render_campaign_table",
]


@dataclass
class JobRecord:
    """Provenance of one finished (or failed) campaign job."""

    name: str
    status: str
    params_hash: str = ""
    mesh_hash: str = ""
    cache_hit: bool = False
    segment_count: int = 1
    attempts: int = 1
    retries: int = 0
    #: In-run rank-death recoveries by the resilience supervisor
    #: (``JobSpec.supervise``); a job can succeed with ``attempts == 1``
    #: and ``recoveries >= 1`` — recovery happened *inside* the run.
    recoveries: int = 0
    wall_s: float = 0.0
    mesher_wall_s: float = 0.0
    solver_wall_s: float = 0.0
    trace_path: str | None = None
    stream_path: str | None = None
    error: str | None = None
    #: "transient" | "fatal" | "permanent" for failures, None otherwise.
    failure_class: str | None = None
    #: Health-sentinel diagnostics of a fatal numerical failure.
    health_snapshot: dict[str, Any] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "JobRecord":
        return cls(**d)


class ResultStore:
    """Directory-backed store of :class:`JobRecord` files.

    Layout::

        <directory>/jobs/<name>.json   # one per job, atomic, last write wins
        <directory>/manifest.jsonl     # append-only event stream
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / "manifest.jsonl"

    def record(self, rec: JobRecord) -> Path:
        """Persist one record; returns the per-job JSON path."""
        path = self.jobs_dir / f"{rec.name}.json"
        payload = json.dumps(rec.to_dict(), indent=2, sort_keys=True)
        atomic_write(path, [payload.encode("utf-8")])
        append_manifest(self.manifest_path, rec.to_dict())
        return path

    def load(self, status: str | None = None) -> list[JobRecord]:
        """All records (optionally filtered by status), sorted by name."""
        records = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                records.append(JobRecord.from_dict(json.load(fh)))
        if status is not None:
            records = [r for r in records if r.status == status]
        return records

    def read_manifest(
        self, record_type: str | None = None
    ) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """Tolerant view of ``manifest.jsonl`` (see :func:`read_manifest`)."""
        return read_manifest(self.manifest_path, record_type=record_type)

    def get(self, name: str) -> JobRecord:
        path = self.jobs_dir / f"{name}.json"
        if not path.exists():
            raise KeyError(f"no job record named {name!r}")
        with open(path, encoding="utf-8") as fh:
            return JobRecord.from_dict(json.load(fh))

    def summary(self) -> dict[str, Any]:
        """Campaign-level aggregates over every stored record."""
        records = self.load()
        meshes = {r.mesh_hash for r in records if r.mesh_hash}
        return {
            "jobs": len(records),
            "succeeded": sum(r.status == "succeeded" for r in records),
            "failed": sum(r.status == "failed" for r in records),
            "retries": sum(r.retries for r in records),
            "distinct_meshes": len(meshes),
            "cache_hits": sum(r.cache_hit for r in records),
            "total_wall_s": sum(r.wall_s for r in records),
        }


def render_campaign_table(
    records: Iterable[JobRecord], cache_stats: dict | None = None
) -> str:
    """Fixed-width summary table of a campaign (the CLI's output)."""
    records = list(records)
    header = (
        f"{'job':<18} {'status':<10} {'att':>3} {'seg':>3} "
        f"{'mesh':<18} {'wall s':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        mesh = f"{r.mesh_hash[:10]}{' hit' if r.cache_hit else ' miss'}" \
            if r.mesh_hash else "-"
        lines.append(
            f"{r.name:<18.18} {r.status:<10} {r.attempts:>3d} "
            f"{r.segment_count:>3d} {mesh:<18} {r.wall_s:>8.2f}"
        )
    ok = sum(r.status == "succeeded" for r in records)
    retries = sum(r.retries for r in records)
    lines.append("-" * len(header))
    lines.append(
        f"{len(records)} jobs: {ok} succeeded, {len(records) - ok} failed, "
        f"{retries} retries"
    )
    if cache_stats:
        lines.append(
            "mesh cache: "
            f"{cache_stats.get('misses', 0)} built, "
            f"{cache_stats.get('hits', 0)} reused, "
            f"{cache_stats.get('disk_hits', 0)} reloaded from disk, "
            f"{cache_stats.get('evictions', 0)} evicted"
        )
    return "\n".join(lines)
