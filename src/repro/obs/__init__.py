"""Observability: structured tracing, metrics, and trace export.

The paper's performance campaign rests on measurement infrastructure —
IPM communication summaries, PSiNS flops measurement, and per-phase
timings feeding the regression models of Figures 5-7.  This package is
the repo's equivalent: a zero-dependency tracing/metrics layer that the
mesher, solver, kernels, and halo exchange report into, with exporters
for JSONL event logs, Chrome ``chrome://tracing`` traces, and the
per-rank IPM-style summary table.

Tracing is *off by default*: every instrumented call site accepts an
optional tracer and falls back to the shared :data:`NULL_TRACER`, whose
spans are no-ops (<2% overhead on the hot kernels, guarded by
``benchmarks/test_obs_overhead.py``).

Usage::

    from repro.obs import Tracer, MetricsRegistry, write_chrome_trace

    tracer = Tracer(pid=0)
    with tracer.span("solver.timestep") as sp:
        sp.add(flops=1.0e9)
    write_chrome_trace("trace.json", [tracer])

``python -m repro.obs.report trace.jsonl`` renders a saved trace as a
phase tree, top-N span table, and per-rank comm/compute summary;
``--campaign STORE_DIR`` renders the campaign-wide aggregate instead.

The observatory adds one more channel on top of the span tracer:
:mod:`repro.obs.stream` (per-step streaming telemetry from inside the
solver loop — a preallocated ring buffer flushed as JSONL).  Performance
is measured by the ledger (``benchmarks/ledger``) and bounded by the
pytest guards under ``benchmarks/``.
"""

from .aggregate import (
    CampaignAggregate,
    aggregate_campaign,
    record_campaign_summary,
    render_campaign_report,
)
from .export import (
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from .report import (
    PhaseNode,
    RunSummary,
    build_phase_tree,
    render_ipm_table,
    render_phase_tree,
    render_summary,
    summarize,
)
from .stream import (
    StreamingTelemetry,
    dedupe_steps,
    read_stream,
)
from .tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer, maybe_tracer

__all__ = [
    "CampaignAggregate",
    "StreamingTelemetry",
    "aggregate_campaign",
    "dedupe_steps",
    "read_stream",
    "record_campaign_summary",
    "render_campaign_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PhaseNode",
    "RunSummary",
    "SpanRecord",
    "TimeSeries",
    "Tracer",
    "build_phase_tree",
    "chrome_trace_events",
    "maybe_tracer",
    "read_jsonl",
    "render_ipm_table",
    "render_phase_tree",
    "render_summary",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
]
