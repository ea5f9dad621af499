"""The harness's own span recorder, and self-time arithmetic over its spans.

Spans are recorded from outside the program: the harness opens one around
each call into a layer's public function, and the spans the program already
ships behind its public ``trace=True`` option are adopted afterwards as
children of the harness span that caused them (`adopt`).  Everything stays
in memory until `write_jsonl`.  With ``enabled=False`` (the untraced runs
that give the end-to-end metrics) `span` costs one call and records nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float  # time.perf_counter() seconds
    end: float
    parent: int  # id of the causing span; -1 for a root
    workload: str
    repeat: int
    source: str = "harness"  # "harness" | "program"
    rank: int = 0  # virtual rank / worker thread for program spans
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()  # per-thread stack: clients run in threads

    @contextmanager
    def span(self, name: str, repeat: int = 0):
        """Record `name` around the body; yields the span id (-1 when off)."""
        if not self.enabled:
            yield -1
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sp = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else -1,
            workload=self.workload,
            repeat=repeat,
        )
        self.spans.append(sp)
        stack.append(sp.id)
        try:
            yield sp.id
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def adopt(self, parent: int, repeat: int, tracers: list) -> None:
        """Attach program tracers' records under the harness span `parent`.

        A program record's ``start_s`` is relative to its tracer's epoch on
        the process clock, and its ``parent`` is an index into that tracer's
        own list; both are rebased here.  A tracer is a virtual rank (or a
        worker thread), kept as ``rank``.
        """
        if not self.enabled:
            return
        for tracer in tracers:
            ids = [next(self._ids) for _ in tracer.records]
            for rec, new_id in zip(tracer.records, ids):
                start = tracer.epoch + rec.start_s
                self.spans.append(
                    Span(
                        id=new_id,
                        name=rec.name,
                        start=start,
                        end=start + rec.duration_s,
                        parent=ids[rec.parent] if rec.parent >= 0 else parent,
                        workload=self.workload,
                        repeat=repeat,
                        source="program",
                        rank=tracer.pid,
                        counters=dict(rec.counters),
                    )
                )

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.__dict__, sort_keys=True) + "\n")


# ------------------------------------------------------- self-time algebra


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children of ranks run concurrently)."""
    total = 0.0
    hi = float("-inf")
    for start, end in sorted(intervals):
        if end <= hi:
            continue
        total += end - max(start, hi)
        hi = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [
            (max(s, sp.start), min(e, sp.end))
            for s, e in children.get(sp.id, [])
            if e > sp.start and s < sp.end
        ]
        out[sp.id] = sp.duration - _covered(kids)
    return out


def below(spans: list[Span], roots: set[int]) -> list[Span]:
    """Every span strictly below any of `roots`.

    One pass in id order sees every parent first: a child is opened after
    its parent, and adopted program spans get their ids after the harness
    span that caused them.
    """
    inside = set(roots)
    out = []
    for sp in sorted(spans, key=lambda s: s.id):
        if sp.parent in inside:
            inside.add(sp.id)
            out.append(sp)
    return out
