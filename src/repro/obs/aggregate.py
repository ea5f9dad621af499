"""Campaign-wide trace aggregation: many ranks and jobs, one view.

A campaign leaves its evidence scattered — a :class:`~repro.campaign
.store.ResultStore` of per-job provenance records, per-job (or per-rank)
JSONL span traces, and per-step telemetry streams.  This module folds
all of it into one :class:`CampaignAggregate`: job latency percentiles,
mesh-cache hit rate, retry and fail-fast counts, per-phase time rollups
summed over every trace, and step-level statistics from the streams
(mean step wall, comm fraction, dropped samples).

The aggregate is both human-facing (``python -m repro.obs.report
--campaign <store_dir>`` renders it) and machine-facing:
:func:`record_campaign_summary` appends it to the store's
``manifest.jsonl`` as a ``record_type: "campaign_summary"`` line, so the
rollup travels with the provenance it summarises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "PhaseRollup",
    "CampaignAggregate",
    "percentile",
    "aggregate_traces",
    "aggregate_streams",
    "aggregate_campaign",
    "render_campaign_report",
    "record_campaign_summary",
]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); NaN for no data.

    Nearest-rank (not interpolated) so the reported p99 is a latency
    some job actually had, which is what an operator wants to staple to
    a queue-limit decision.
    """
    if not values:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class PhaseRollup:
    """One span name summed across every trace of the campaign."""

    name: str
    total_s: float = 0.0
    calls: int = 0

    @property
    def per_call_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


@dataclass
class CampaignAggregate:
    """Everything the campaign report renders, pre-aggregated."""

    jobs: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
    failed_fast: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_p50_s: float = math.nan
    wall_p99_s: float = math.nan
    total_wall_s: float = 0.0
    #: Span-name → rollup, summed over every readable trace file.
    phases: dict[str, PhaseRollup] = field(default_factory=dict)
    traces_read: int = 0
    #: Stream-level statistics (empty when no job streamed telemetry).
    stream_steps: int = 0
    stream_dropped: int = 0
    stream_bad_lines: int = 0
    streams_read: int = 0
    step_wall_mean_s: float = math.nan
    step_wall_p99_s: float = math.nan
    comm_fraction: float = math.nan

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else math.nan

    def to_dict(self) -> dict[str, Any]:
        d = {
            "jobs": self.jobs,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "retries": self.retries,
            "failed_fast": self.failed_fast,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": _none_if_nan(self.cache_hit_rate),
            "wall_p50_s": _none_if_nan(self.wall_p50_s),
            "wall_p99_s": _none_if_nan(self.wall_p99_s),
            "total_wall_s": self.total_wall_s,
            "traces_read": self.traces_read,
            "streams_read": self.streams_read,
            "stream_steps": self.stream_steps,
            "stream_dropped": self.stream_dropped,
            "stream_bad_lines": self.stream_bad_lines,
            "step_wall_mean_s": _none_if_nan(self.step_wall_mean_s),
            "step_wall_p99_s": _none_if_nan(self.step_wall_p99_s),
            "comm_fraction": _none_if_nan(self.comm_fraction),
            "phases": {
                name: {"total_s": p.total_s, "calls": p.calls}
                for name, p in sorted(self.phases.items())
            },
        }
        return d


def _none_if_nan(value: float) -> float | None:
    return None if isinstance(value, float) and math.isnan(value) else value


def aggregate_traces(paths: list[Path], agg: CampaignAggregate) -> None:
    """Fold per-job/per-rank JSONL span traces into the phase rollups.

    Unreadable or missing trace files are skipped — a campaign that
    crashed mid-write must still aggregate.
    """
    from .export import read_jsonl

    for path in paths:
        try:
            records, _metrics, _meta = read_jsonl(path)
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError):
            continue
        agg.traces_read += 1
        for r in records:
            roll = agg.phases.get(r.name)
            if roll is None:
                roll = agg.phases[r.name] = PhaseRollup(r.name)
            roll.total_s += r.duration_s
            roll.calls += 1


def aggregate_streams(paths: list[Path], agg: CampaignAggregate) -> None:
    """Fold per-step telemetry streams into the step-level statistics.

    Duplicate steps (re-executed after a checkpoint fallback) are
    collapsed keep-last per stream before statistics, so a fallback does
    not bias the mean; partial trailing lines from a crashed writer are
    counted in ``stream_bad_lines`` and skipped.
    """
    from .stream import dedupe_steps, read_stream

    walls: list[float] = []
    comm_total = 0.0
    wall_total = 0.0
    for path in paths:
        try:
            samples, _meta, info = read_stream(path)
        except OSError:
            continue
        agg.streams_read += 1
        agg.stream_dropped += int(info.get("dropped", 0))
        agg.stream_bad_lines += int(info.get("bad_lines", 0))
        for s in dedupe_steps(samples):
            wall = float(s.get("wall_s", 0.0))
            walls.append(wall)
            wall_total += wall
            comm_total += float(s.get("comm_s", 0.0) or 0.0)
    agg.stream_steps += len(walls)
    if walls:
        agg.step_wall_mean_s = wall_total / len(walls)
        agg.step_wall_p99_s = percentile(walls, 99.0)
        agg.comm_fraction = comm_total / wall_total if wall_total > 0 else 0.0


def aggregate_campaign(
    store_dir: str | Path,
    stream_paths: list[str | Path] | None = None,
    trace_paths: list[str | Path] | None = None,
) -> CampaignAggregate:
    """Aggregate a campaign result store (plus its traces and streams).

    Trace and stream files default to the paths recorded in the job
    records (``trace_path`` / ``stream_path``); explicit lists extend
    them — e.g. the per-rank streams of a distributed run, which the
    store does not know about.
    """
    from ..campaign.store import ResultStore

    store = ResultStore(store_dir)
    records = store.load()
    agg = CampaignAggregate(jobs=len(records))
    walls: list[float] = []
    traces: list[Path] = [Path(p) for p in (trace_paths or [])]
    streams: list[Path] = [Path(p) for p in (stream_paths or [])]
    for rec in records:
        if rec.status == "succeeded":
            agg.succeeded += 1
        else:
            agg.failed += 1
            if rec.failure_class == "fatal":
                agg.failed_fast += 1
        agg.retries += rec.retries
        if rec.mesh_hash:
            if rec.cache_hit:
                agg.cache_hits += 1
            else:
                agg.cache_misses += 1
        walls.append(rec.wall_s)
        agg.total_wall_s += rec.wall_s
        if rec.trace_path:
            traces.append(Path(rec.trace_path))
        if rec.stream_path:
            streams.append(Path(rec.stream_path))
    if walls:
        agg.wall_p50_s = percentile(walls, 50.0)
        agg.wall_p99_s = percentile(walls, 99.0)
    aggregate_traces(traces, agg)
    aggregate_streams(streams, agg)
    return agg


def render_campaign_report(agg: CampaignAggregate, top_n: int = 12) -> str:
    """Human-readable campaign rollup (the ``--campaign`` CLI output)."""

    def fmt(value: float, spec: str = ".3f") -> str:
        return "-" if math.isnan(value) else format(value, spec)

    lines = [
        "== repro.obs campaign aggregate ==",
        f"jobs: {agg.jobs} ({agg.succeeded} succeeded, {agg.failed} failed, "
        f"{agg.retries} retries, {agg.failed_fast} failed fast)",
        f"job wall: p50 {fmt(agg.wall_p50_s)} s   "
        f"p99 {fmt(agg.wall_p99_s)} s   total {agg.total_wall_s:.3f} s",
        f"mesh cache: {agg.cache_hits} hits / "
        f"{agg.cache_hits + agg.cache_misses} lookups "
        f"(hit rate {fmt(agg.cache_hit_rate, '.1%')})",
    ]
    if agg.streams_read:
        lines.append(
            f"streams: {agg.streams_read} read, {agg.stream_steps} steps, "
            f"{agg.stream_dropped} dropped, {agg.stream_bad_lines} bad lines"
        )
        lines.append(
            f"step wall: mean {fmt(agg.step_wall_mean_s, '.6f')} s   "
            f"p99 {fmt(agg.step_wall_p99_s, '.6f')} s   "
            f"comm fraction {fmt(agg.comm_fraction, '.1%')}"
        )
    if agg.phases:
        lines.append("")
        lines.append(f"-- phase rollup (top {top_n} by total time, "
                     f"{agg.traces_read} traces) --")
        lines.append(f"{'phase':<34}{'total_s':>10}{'calls':>8}{'s/call':>12}")
        ranked = sorted(agg.phases.values(), key=lambda p: -p.total_s)
        for p in ranked[:top_n]:
            lines.append(
                f"{p.name:<34}{p.total_s:>10.4f}{p.calls:>8}"
                f"{p.per_call_s:>12.6f}"
            )
    return "\n".join(lines)


def record_campaign_summary(
    store_dir: str | Path, agg: CampaignAggregate
) -> Path:
    """Append the aggregate to the store manifest as a summary record.

    The line carries ``record_type: "campaign_summary"`` so manifest
    readers (which otherwise see per-job records) can tell it apart.
    """
    from ..chaos.integrity import append_manifest

    manifest = Path(store_dir) / "manifest.jsonl"
    manifest.parent.mkdir(parents=True, exist_ok=True)
    append_manifest(
        manifest, {"record_type": "campaign_summary", **agg.to_dict()}
    )
    return manifest
