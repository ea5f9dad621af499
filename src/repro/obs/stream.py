"""Streaming telemetry: a per-step ring buffer flushed as JSONL.

Traces (:mod:`repro.obs.tracer`) are *post-mortem*: nothing is visible
until the run ends and the records are exported.  Long production runs —
the paper's "about 1 week ... of dedicated 32K or more processor
supercomputer time" — need the opposite: a low-overhead live channel an
operator (or the campaign dashboard) can tail while the job runs.  This
module is that channel:

* :class:`StreamingTelemetry` holds a **preallocated** ring buffer of
  per-step samples (step wall time, compute/comm split, halo-wait time,
  seismogram-buffer fill, health-sentinel values).  The solver's last
  step observer (:meth:`~StreamingTelemetry.observe_run`) calls
  :meth:`~StreamingTelemetry.sample` once per time step; the fast path
  writes one row of a numpy array and allocates nothing (the same R3
  no-allocation discipline the kernels follow).
* Every ``flush_every`` samples the pending rows are appended to a JSONL
  file and the OS buffer is flushed, so ``tail -f run.stream.jsonl``
  shows the run marching in near-real time.  ``GlobalSolver.run`` also
  flushes its observers in a ``finally`` block, so a crash (or an
  injected chaos fault) loses at most the torn final line.
* :func:`read_stream` is the tolerant reader: undecodable lines (a
  process killed mid-``write``) are counted and skipped, never raised.

Segmented restarts may *re-emit* step numbers: when the campaign
executor falls back past a corrupt checkpoint it re-runs the lost span,
and the stream — an honest log of what executed — records those steps
twice.  :func:`dedupe_steps` collapses them keep-last (the re-run is the
state that survived), which is what the aggregation layer uses.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

__all__ = [
    "STREAM_FIELDS",
    "STREAM_FORMAT_VERSION",
    "StreamingTelemetry",
    "read_stream",
    "dedupe_steps",
]

STREAM_FORMAT_VERSION = 1

#: Ring-buffer columns, in storage order.  ``step`` is the absolute time
#: step; everything else is a per-step float (NaN = not sampled).
STREAM_FIELDS = (
    "step",
    "wall_s",
    "compute_s",
    "comm_s",
    "halo_wait_s",
    "seismogram_fill",
    "health_checks",
    "health_peak_m",
    "health_energy_j",
)

_N_FIELDS = len(STREAM_FIELDS)


class StreamingTelemetry:
    """Per-step telemetry ring buffer with periodic JSONL flush.

    ``GlobalSolver(stream=)`` makes it the last step observer of every run
    (:meth:`observe_run`); it reads the solver's clocks itself.

    Parameters
    ----------
    path : JSONL output file (created lazily on first flush; parent
        directories are created).  ``None`` keeps the stream purely
        in-memory — the ring buffer still fills and :meth:`latest`
        works, nothing touches disk.
    capacity : ring-buffer rows.  Also the upper bound on un-flushed
        samples: if flushing falls behind (or ``path`` is None), the
        oldest pending rows are overwritten and counted in ``dropped``.
    flush_every : samples between automatic flushes.
    meta : extra key/values for the ``stream_meta`` header line (run
        label, rank, resolution ...).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        capacity: int = 1024,
        flush_every: int = 64,
        meta: dict | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path) if path is not None else None
        self.capacity = int(capacity)
        self.flush_every = int(flush_every)
        self.meta = dict(meta or {})
        #: Preallocated once; the per-step fast path only writes rows.
        self._buf = np.empty((self.capacity, _N_FIELDS), dtype=np.float64)
        self._count = 0  # samples ever taken
        self._flushed = 0  # samples written to disk
        self.dropped = 0  # samples overwritten before they were flushed
        self._fh = None
        self._closed = False
        self._clock = (0.0, 0.0, 0.0, 0.0)  # see observe_run

    # -- fast path ----------------------------------------------------------

    def observe_run(self, solver) -> "StreamingTelemetry":
        """Arm the stream as the step observer of one run of ``solver``:
        the first step's deltas start from the solver's clocks now."""
        self._clock = _clocks(solver)
        return self

    def __call__(self, step: int, solver) -> None:
        """Step observer: one sample of ``solver`` after ``step``; wall,
        compute, comm and halo wait are deltas since the last sample."""
        last, self._clock = self._clock, _clocks(solver)
        wall, compute, comm, wait = (a - b for a, b in zip(self._clock, last))
        rs = solver.receiver_sets[0] if solver.receiver_sets else None
        sentinel = solver.health_sentinel
        self.sample(
            step,
            wall,
            compute_s=compute,
            comm_s=comm,
            halo_wait_s=wait,
            seismogram_fill=math.nan if rs is None else rs.step_cursor / rs.n_steps,
            health_checks=math.nan if sentinel is None else sentinel.checks,
            health_peak_m=math.nan if sentinel is None else sentinel.last_peak_m,
            health_energy_j=math.nan if sentinel is None else sentinel.last_energy_j,
        )

    def sample(
        self,
        step: int,
        wall_s: float,
        compute_s: float = 0.0,
        comm_s: float = 0.0,
        halo_wait_s: float = 0.0,
        seismogram_fill: float = math.nan,
        health_checks: float = math.nan,
        health_peak_m: float = math.nan,
        health_energy_j: float = math.nan,
    ) -> None:
        """Record one per-step sample (one ring-buffer row write)."""
        row = self._buf[self._count % self.capacity]
        row[0] = step
        row[1] = wall_s
        row[2] = compute_s
        row[3] = comm_s
        row[4] = halo_wait_s
        row[5] = seismogram_fill
        row[6] = health_checks
        row[7] = health_peak_m
        row[8] = health_energy_j
        self._count += 1
        if self._count - self._flushed >= self.flush_every:
            self.flush()

    # -- accounting ---------------------------------------------------------

    @property
    def samples_taken(self) -> int:
        return self._count

    @property
    def pending(self) -> int:
        """Samples not yet flushed (capped at the ring capacity)."""
        return self._count - self._flushed

    def latest(self, n: int = 1) -> list[dict]:
        """The last ``n`` samples (newest last) as field dicts.

        Reads straight from the ring buffer — works mid-run without
        touching the file, which is the live-view use case.
        """
        n = min(int(n), self._count, self.capacity)
        out = []
        for i in range(self._count - n, self._count):
            row = self._buf[i % self.capacity]
            out.append(self._row_dict(row))
        return out

    @staticmethod
    def _row_dict(row: np.ndarray) -> dict:
        d = {"type": "step", "step": int(row[0])}
        for j, name in enumerate(STREAM_FIELDS[1:], start=1):
            value = float(row[j])
            if not math.isnan(value):
                d[name] = value
        return d

    # -- flush / close ------------------------------------------------------

    def _open(self):
        if self._fh is None and self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
            header = {
                "type": "stream_meta",
                "version": STREAM_FORMAT_VERSION,
                "fields": list(STREAM_FIELDS),
            }
            header.update(self.meta)
            self._fh.write(json.dumps(header, ensure_ascii=False) + "\n")
        return self._fh

    def flush(self) -> int:
        """Append pending samples to the JSONL file; returns rows written.

        If more than ``capacity`` samples accumulated since the last
        flush, the overwritten oldest ones are gone — they are counted
        into ``dropped`` and noted in the next flushed line, never
        silently.
        """
        pending = self._count - self._flushed
        if pending <= 0:
            return 0
        if pending > self.capacity:
            lost = pending - self.capacity
            self.dropped += lost
            self._flushed += lost
            pending = self.capacity
        fh = self._open()
        if fh is None:  # in-memory stream: ring retention only
            return 0
        for i in range(self._flushed, self._count):
            d = self._row_dict(self._buf[i % self.capacity])
            fh.write(json.dumps(d, ensure_ascii=False) + "\n")
        if self.dropped:
            fh.write(
                json.dumps({"type": "stream_gap", "dropped": self.dropped})
                + "\n"
            )
        fh.flush()
        self._flushed = self._count
        return pending

    def close(self) -> None:
        """Flush, write the end-of-stream marker, and close the file."""
        if self._closed:
            return
        self.flush()
        if self._fh is not None:
            self._fh.write(
                json.dumps(
                    {
                        "type": "stream_end",
                        "samples": self._count,
                        "dropped": self.dropped,
                    }
                )
                + "\n"
            )
            self._fh.close()
            self._fh = None
        self._closed = True

    def __enter__(self) -> "StreamingTelemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _clocks(solver) -> tuple[float, float, float, float]:
    """Cumulative wall, compute, comm and halo-wait seconds of ``solver``;
    comm and halo wait are its exchanger's (zero without one)."""
    ex = solver.exchanger
    comm, wait = (0.0, 0.0) if ex is None else (
        ex.comm.stats.comm_time_s, ex.wait_s
    )
    return time.perf_counter(), solver.timings.compute_s, comm, wait


def read_stream(path: str | Path) -> tuple[list[dict], dict, dict]:
    """Tolerantly read one stream file.

    Returns ``(samples, meta, info)``:

    * ``samples`` — the ``step`` records, in file order (restart
      re-runs may repeat step numbers; see :func:`dedupe_steps`);
    * ``meta`` — the (last) ``stream_meta`` header, ``{}`` if missing;
    * ``info`` — reader accounting: ``bad_lines`` (undecodable —
      typically one torn final line after a crash), ``dropped`` (ring
      overwrites reported by the writer), ``complete`` (an
      end-of-stream marker was seen).

    A partially-written final line — the normal aftermath of a killed
    process — is counted, not raised: streams from crashed runs must
    stay readable.
    """
    samples: list[dict] = []
    meta: dict = {}
    info = {"bad_lines": 0, "dropped": 0, "complete": False}
    with Path(path).open(encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                info["bad_lines"] += 1
                continue
            if not isinstance(obj, dict):
                info["bad_lines"] += 1
                continue
            kind = obj.get("type")
            if kind == "step":
                samples.append(obj)
            elif kind == "stream_meta":
                meta = {
                    k: v for k, v in obj.items() if k != "type"
                }
            elif kind == "stream_gap":
                info["dropped"] = max(
                    info["dropped"], int(obj.get("dropped", 0))
                )
            elif kind == "stream_end":
                info["complete"] = True
                info["dropped"] = max(
                    info["dropped"], int(obj.get("dropped", 0))
                )
    return samples, meta, info


def dedupe_steps(samples: list[dict]) -> list[dict]:
    """Collapse repeated step numbers keep-last, sorted by step.

    A segmented run that fell back past a corrupt checkpoint re-runs the
    lost span, so its stream honestly carries those steps twice; the
    *last* occurrence is the execution whose state survived into the
    final result.
    """
    by_step: dict[int, dict] = {}
    for s in samples:
        by_step[int(s.get("step", -1))] = s
    return [by_step[k] for k in sorted(by_step)]
