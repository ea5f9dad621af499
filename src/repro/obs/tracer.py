"""Nested-span tracer with attached counters.

One :class:`Tracer` belongs to one (virtual) rank: rank programs run on
threads, each holding its own tracer, so the hot path takes no locks.
Spans nest through an explicit stack; each closed span becomes an
immutable :class:`SpanRecord` carrying wall time, its parent link, and
whatever numeric counters the instrumented code attached (flops, bytes,
messages, GLL points touched, ...).

The disabled path is :data:`NULL_TRACER`: its ``span()`` returns a
shared no-op context manager, so instrumentation left in hot loops costs
one method call and one ``with`` block — nothing is recorded and no
objects are allocated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "Tracer", "NullTracer", "NULL_TRACER", "maybe_tracer"]


@dataclass
class SpanRecord:
    """One closed span: timing in seconds relative to the tracer epoch."""

    name: str
    start_s: float
    duration_s: float
    depth: int
    parent: int  # index of the parent record in ``Tracer.records``; -1 = root
    pid: int
    tid: int
    counters: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "parent": self.parent,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.counters:
            d["counters"] = self.counters
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SpanRecord":
        return cls(
            name=d["name"],
            start_s=d["start_s"],
            duration_s=d["duration_s"],
            depth=d["depth"],
            parent=d["parent"],
            pid=d["pid"],
            tid=d["tid"],
            counters=dict(d.get("counters", {})),
        )


class _OpenSpan:
    """Context-manager handle of one in-flight span."""

    __slots__ = ("_tracer", "_index", "_start")

    def __init__(self, tracer: "Tracer", index: int, start: float):
        self._tracer = tracer
        self._index = index
        self._start = start

    def add(self, **counters: float) -> None:
        """Accumulate numeric counters onto this span."""
        rec = self._tracer.records[self._index].counters
        for key, value in counters.items():
            rec[key] = rec.get(key, 0.0) + value

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._index, self._start)
        return False  # exceptions propagate; the span still closes


class Tracer:
    """Per-rank span recorder.

    ``pid`` labels the rank (Chrome-trace process id), ``tid`` the thread
    within it.  All timestamps are relative to the tracer's epoch so
    traces from ranks created at different times still align after
    :func:`merge_records` (ranks share the process clock).
    """

    enabled = True

    def __init__(self, pid: int = 0, tid: int = 0, epoch: float | None = None):
        self.pid = pid
        self.tid = tid
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.records: list[SpanRecord] = []
        self._stack: list[int] = []

    def span(self, name: str, **counters: float) -> _OpenSpan:
        """Open a nested span; use as ``with tracer.span("kernel.elastic")``."""
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append(
            SpanRecord(
                name=name,
                start_s=now - self.epoch,
                duration_s=0.0,
                depth=len(self._stack),
                parent=parent,
                pid=self.pid,
                tid=self.tid,
                counters=dict(counters) if counters else {},
            )
        )
        self._stack.append(index)
        return _OpenSpan(self, index, now)

    def _close(self, index: int, start: float) -> None:
        self.records[index].duration_s = time.perf_counter() - start
        # Exception safety: unwind past any children left open by a raise.
        while self._stack and self._stack[-1] >= index:
            self._stack.pop()

    @property
    def current(self) -> _OpenSpan | None:
        """Handle of the innermost open span (None outside any span)."""
        if not self._stack:
            return None
        index = self._stack[-1]
        return _OpenSpan(self, index, 0.0)

    def add(self, **counters: float) -> None:
        """Attach counters to the innermost open span (no-op at root)."""
        cur = self.current
        if cur is not None:
            cur.add(**counters)

    def graft(self, records: list[SpanRecord]) -> None:
        """Adopt another tracer's closed ``records`` (same epoch — a
        helper thread's) under the innermost open span: their roots
        become its children, deeper records keep their parents, re-indexed
        into this tracer's list."""
        parent = self._stack[-1] if self._stack else -1
        base, depth = len(self.records), len(self._stack)
        for rec in records:
            rec.parent = parent if rec.parent < 0 else base + rec.parent
            rec.depth += depth
            self.records.append(rec)

    def total(self, counter: str) -> float:
        """Sum of one counter over all recorded spans."""
        return sum(r.counters.get(counter, 0.0) for r in self.records)

    def wall_s(self) -> float:
        """Wall span of the trace: end of the last root span."""
        if not self.records:
            return 0.0
        return max(r.start_s + r.duration_s for r in self.records)


class _NullSpan:
    """Shared do-nothing span; every disabled call site reuses it."""

    __slots__ = ()

    def add(self, **counters: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: records nothing, allocates nothing per span."""

    enabled = False
    pid = -1
    tid = -1
    records: tuple = ()

    def span(self, name: str, **counters: float) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def add(self, **counters: float) -> None:
        pass

    def total(self, counter: str) -> float:
        return 0.0

    def wall_s(self) -> float:
        return 0.0


#: The shared disabled tracer every instrumented call site defaults to.
NULL_TRACER = NullTracer()


def maybe_tracer(tracer) -> Tracer | NullTracer:
    """Normalise an optional tracer argument to a usable tracer."""
    return tracer if tracer is not None else NULL_TRACER
