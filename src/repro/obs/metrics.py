"""Named counters, gauges, histograms, and per-timestep series.

A :class:`MetricsRegistry` holds the run-level numbers the paper's
tooling reports alongside timings: cumulative counters (bytes written,
messages exchanged), point-in-time gauges (comm fraction), distribution
histograms (per-step kernel time), and per-timestep series (energy, max
displacement).  Registries from different virtual ranks merge into one
(counters sum, histograms pool, gauges keep the per-rank values) so one
report covers the whole cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries", "MetricsRegistry",
           "record_step_metrics"]


@dataclass
class Counter:
    """Monotonically accumulating value (bytes, messages, steps...)."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-set value, remembered per source rank on merge."""

    name: str
    value: float = math.nan
    per_rank: dict[int, float] = field(default_factory=dict)

    def set(self, value: float, rank: int = 0) -> None:
        self.value = float(value)
        self.per_rank[rank] = float(value)

    @property
    def mean(self) -> float:
        if not self.per_rank:
            return self.value
        return sum(self.per_rank.values()) / len(self.per_rank)


@dataclass
class Histogram:
    """Streaming distribution summary (count/sum/min/max + samples)."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    samples: list[float] = field(default_factory=list)
    #: Cap on retained raw samples; summary stats keep accumulating.
    max_samples: int = 4096

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.samples) < self.max_samples:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        if not self.samples:
            return math.nan
        data = sorted(self.samples)
        idx = min(len(data) - 1, max(0, int(round(q / 100.0 * (len(data) - 1)))))
        return data[idx]


@dataclass
class TimeSeries:
    """Per-timestep samples: parallel (step, value) lists."""

    name: str
    steps: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, step: int, value: float) -> None:
        self.steps.append(int(step))
        self.values.append(float(value))

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else math.nan


class MetricsRegistry:
    """Get-or-create registry of named metrics for one rank (or a merge)."""

    def __init__(self, rank: int = 0):
        self.rank = rank
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, TimeSeries] = {}

    # -- access -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another rank's registry into this one (in place)."""
        for name, c in other.counters.items():
            self.counter(name).add(c.value)
        for name, g in other.gauges.items():
            mine = self.gauge(name)
            mine.value = g.value
            mine.per_rank.update(
                g.per_rank if g.per_rank else {other.rank: g.value}
            )
        for name, h in other.histograms.items():
            mine = self.histogram(name)
            mine.count += h.count
            mine.total += h.total
            mine.min = min(mine.min, h.min)
            mine.max = max(mine.max, h.max)
            room = mine.max_samples - len(mine.samples)
            if room > 0:
                mine.samples.extend(h.samples[:room])
        for name, s in other.series.items():
            mine = self.timeseries(name)
            mine.steps.extend(s.steps)
            mine.values.extend(s.values)
        return self

    @staticmethod
    def merged(registries: list["MetricsRegistry"]) -> "MetricsRegistry":
        """One registry aggregating a list of per-rank registries."""
        out = MetricsRegistry(rank=-1)
        for reg in registries:
            out.merge(reg)
        return out

    # -- serialisation ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready summary of every metric."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}
        for name, c in self.counters.items():
            out["counters"][name] = c.value
        for name, g in self.gauges.items():
            out["gauges"][name] = {
                "value": None if math.isnan(g.value) else g.value,
                "per_rank": {str(k): v for k, v in g.per_rank.items()},
            }
        for name, h in self.histograms.items():
            out["histograms"][name] = {
                "count": h.count,
                "total": h.total,
                "min": None if h.count == 0 else h.min,
                "max": None if h.count == 0 else h.max,
                "mean": None if h.count == 0 else h.mean,
            }
        for name, s in self.series.items():
            out["series"][name] = {"steps": s.steps, "values": s.values}
        return out


def record_step_metrics(step: int, solver) -> None:
    """Step observer of ``GlobalSolver.run``: count the step into
    ``solver.steps`` and append the peak solid displacement to the
    ``solver.max_displacement_m`` series, behind the run's replay gate
    (``GlobalSolver.publishing``)."""
    metrics = solver.publishing(step)
    if metrics is None:
        return
    metrics.counter("solver.steps").add(1)
    solid = solver.solid
    peak = max(
        (float(np.max(np.abs(solid[code].displ))) for code in solver.solid_codes),
        default=0.0,
    )
    metrics.timeseries("solver.max_displacement_m").append(step, peak)
