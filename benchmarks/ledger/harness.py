"""What the four workloads share: the run context, checks, and span algebra.

A `Run` is one measurement of one workload in one fresh interpreter.  It
owns the time budget, the span recorder, the scratch directory, and the
count of operations attempted and failed (a step, job, request or output
check that errors, is refused, or fails its check).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probes
from inputs import Sizes
from metrics import describe, percentile
from spans import Span, SpanRecorder, below

now = time.perf_counter


@dataclass
class Run:
    workload: str
    seed: int
    sizes: Sizes
    traced: bool
    seconds: float
    workdir: Path
    started: float = field(default_factory=now)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: machine.einsum_gflops sampled between repeats, all through the run
    calibration: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rec = SpanRecorder(self.workload, enabled=self.traced)

    # -- accounting ---------------------------------------------------------

    def ops(self, n: int) -> None:
        """`n` operations (steps, jobs, requests) completed without error."""
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One output check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def check_seismograms(self, name: str, data) -> None:
        ok = data is not None and bool(np.all(np.isfinite(data))) and bool(np.any(data != 0.0))
        self.check(f"{name} finite and non-zero", ok)

    def check_same(self, name: str, values: list) -> None:
        """Counts and output hashes must repeat exactly between repeats."""
        self.check(f"{name} identical across repeats", len(set(values)) <= 1, str(values))

    def calibrate(self) -> None:
        self.calibration.append(probes.einsum_gflops())

    # -- time budget --------------------------------------------------------

    def more_repeats(self, done: int, longest_s: float) -> bool:
        """Whether another repeat of `longest_s` still fits the run."""
        if done < self.sizes.min_repeats:
            return True
        if done >= self.sizes.max_repeats:
            return False
        return (now() - self.started) + 1.15 * longest_s < self.seconds


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def value(v: float, unit: str, samples: list[float] | None = None, estimator: str = "") -> dict:
    """One reported metric; timings carry median, supported tail and count."""
    out = {"value": float(v), "unit": unit}
    if estimator:
        out["estimator"] = estimator
    if samples:
        out.update(describe(samples))
    return out


# ------------------------------------------------------------ span algebra


def self_by_name(st: dict[int, float], scope: list[Span]) -> dict[str, float]:
    """Summed self time per span name over `scope`."""
    out: dict[str, float] = defaultdict(float)
    for sp in scope:
        out[sp.name] += st[sp.id]
    return out


#: program span -> ledger metric, for spans inside `solver.timestep`
_STEP_LAYERS = {
    "kernel.elastic": "kernels.elastic_ms",
    "kernel.acoustic": "kernels.acoustic_ms",
    "kernel.attenuation": "solver.attenuation_ms",
    "solver.newmark_predictor": "solver.newmark_ms",
    "solver.newmark_corrector": "solver.newmark_ms",
    "coupling.cmb": "solver.coupling_ms",
    "coupling.icb": "solver.coupling_ms",
    "io.seismogram_record": "solver.receivers_ms",
}
_FORCE_SPANS = ("kernel.elastic", "kernel.acoustic", "kernel.attenuation")


def step_layers(spans: list[Span], st: dict[int, float], scope: list[Span]) -> dict[str, float]:
    """Per-step layer costs from the program's spans of one traced loop.

    Every number is a mean over the `solver.timestep` spans in `scope` (over
    all ranks where there are several), so the layers and the unattributed
    rest sum to the mean step.  `unattributed_frac` is the closure: the share
    of step time no child span accounts for.
    """
    steps = [sp for sp in scope if sp.name == "solver.timestep"]
    if not steps:
        return {}
    by_name = self_by_name(st, below(spans, {sp.id for sp in steps}))
    total = sum(sp.duration for sp in steps)
    out: dict[str, float] = defaultdict(float)
    for span_name, metric in _STEP_LAYERS.items():
        out[metric] += 1e3 * by_name.get(span_name, 0.0) / len(steps)
    durations = [1e3 * sp.duration for sp in steps]
    out["solver.step_p50_ms"] = statistics.median(durations)
    out["solver.step_p90_ms"] = percentile(durations, 90.0)
    out["solver.unattributed_frac"] = sum(st[sp.id] for sp in steps) / total
    out["kernels.force_share"] = sum(by_name.get(n, 0.0) for n in _FORCE_SPANS) / total
    return dict(out)


def mesh_layers(st: dict[int, float], scope: list[Span]) -> dict[str, float]:
    """Mesher costs from the program's `mesher.*` spans in `scope`.

    `build_s` is the mesher's root spans (one `mesher.generate` for a global
    mesh, one `mesher.slice` per rank for a prepared world); the parts are
    self times, so they do not double-count the nesting.
    """
    mesher = [sp for sp in scope if sp.name.startswith("mesher.")]
    by_name = self_by_name(st, mesher)
    inner = {sp.id for sp in mesher}
    return {
        "mesh.build_s": sum(sp.duration for sp in mesher if sp.parent not in inner),
        "mesh.numbering_s": by_name.get("mesher.numbering", 0.0),
        "mesh.geometry_s": by_name.get("mesher.geometry", 0.0),
        "mesh.materials_s": by_name.get("mesher.materials", 0.0),
        "mesh.merge_s": by_name.get("mesher.merge", 0.0),
    }
