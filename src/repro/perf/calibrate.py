"""Trace-calibrated performance prediction: fit the model to reality.

The analytic models in :mod:`repro.perf` predict from first principles —
flop counts, rooflines, bisection bandwidth.  This module closes the
loop: it *fits* those models to an observed trace (the span records a
traced run leaves behind), then predicts other runs with the fitted
constants and scores the prediction phase by phase.

The fit is deliberately simple and inspectable:

* every span name with a ``flops`` counter gets a sustained rate
  (flops per exclusive second), plus one global rate over all of them;
* comm-prefixed spans (``halo.``, ``comm.``) get a two-parameter
  latency/bandwidth fit (``time = messages * lat + bytes / bw``) via
  least squares over the observed phases;
* every other span gets a per-call (or, for the singleton ``solver.run``
  loop shell, per-step) exclusive cost.

Exclusive (self) time is used throughout, so the per-phase predictions
sum to the wall time without double counting nested spans.  Calibrating
on one resolution and predicting another (NEX=6 → NEX=8 in the tests
and EXPERIMENTS.md) is the honest validation: the flop counters in the
target trace are themselves analytic, so the comparison measures how
well "analytic flops × fitted rate" transfers across problem size.

Command line::

    python -m repro.perf.calibrate CALIB.jsonl [--target TARGET.jsonl]
        [--extrapolate MACHINE NEX NPROC_XI]
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..obs.report import _is_comm, build_phase_tree
from ..obs.tracer import SpanRecord

__all__ = [
    "PhaseObservation",
    "TraceCalibration",
    "PhaseComparison",
    "phase_observations",
    "calibrate",
    "predicted_vs_measured",
    "render_predicted_vs_measured",
    "extrapolate_calibrated",
    "main",
]


@dataclass
class PhaseObservation:
    """One span name's aggregate over a trace (exclusive time)."""

    name: str
    excl_s: float = 0.0
    calls: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def flops(self) -> float:
        return self.counters.get("flops", 0.0)

    @property
    def messages(self) -> float:
        return self.counters.get("messages", 0.0)

    @property
    def bytes(self) -> float:
        return self.counters.get("bytes", 0.0)

    @property
    def per_call_s(self) -> float:
        return self.excl_s / self.calls if self.calls else 0.0

    @property
    def flops_per_s(self) -> float:
        return self.flops / self.excl_s if self.excl_s > 0 else math.nan


def phase_observations(
    records: Iterable[SpanRecord],
) -> dict[str, PhaseObservation]:
    """Aggregate records into per-name exclusive-time observations.

    Exclusive time is the node's total minus its children's (clipped at
    zero against timer jitter); summed over every occurrence of the
    name in the phase tree, so nothing is counted twice.
    """
    tree = build_phase_tree(list(records))
    obs: dict[str, PhaseObservation] = {}
    for node, _depth in tree.walk():
        o = obs.get(node.name)
        if o is None:
            o = obs[node.name] = PhaseObservation(node.name)
        o.excl_s += max(0.0, node.self_s)
        o.calls += node.calls
        for key, value in node.counters.items():
            o.counters[key] = o.counters.get(key, 0.0) + value
    return obs


@dataclass
class TraceCalibration:
    """Fitted constants of one calibration trace."""

    phases: dict[str, PhaseObservation]
    #: Global sustained rate over every flops-bearing phase.
    flops_per_s: float
    #: Per-message latency and sustained byte rate of the comm phases
    #: (NaN when the calibration trace had no communication).
    comm_latency_s: float
    comm_bytes_per_s: float
    n_steps: int

    def phase_rate(self, name: str) -> float:
        """Sustained flop rate for a phase (global rate as fallback)."""
        o = self.phases.get(name)
        if o is not None and o.flops > 0 and o.excl_s > 0:
            return o.flops_per_s
        return self.flops_per_s

    def predict_phase(self, target: PhaseObservation,
                      target_steps: int) -> float:
        """Predicted exclusive seconds of one target phase; NaN if the
        phase is unknown to the calibration and carries no counters."""
        if target.flops > 0:
            rate = self.phase_rate(target.name)
            if rate > 0 and math.isfinite(rate):
                return target.flops / rate
            return math.nan
        if target.messages > 0 and math.isfinite(self.comm_bytes_per_s):
            return (target.messages * self.comm_latency_s
                    + target.bytes / self.comm_bytes_per_s)
        calib = self.phases.get(target.name)
        if calib is None:
            return math.nan
        if target.name == "solver.run" and self.n_steps > 0:
            # The loop shell runs once but its exclusive cost is
            # per-step Python overhead: scale by steps, not calls.
            return calib.excl_s / self.n_steps * max(1, target_steps)
        return calib.per_call_s * target.calls


def calibrate(records: Iterable[SpanRecord]) -> TraceCalibration:
    """Fit a :class:`TraceCalibration` from a trace's span records."""
    phases = phase_observations(records)
    flops = sum(o.flops for o in phases.values())
    flop_time = sum(o.excl_s for o in phases.values() if o.flops > 0)
    global_rate = flops / flop_time if flop_time > 0 else math.nan
    comm = [o for o in phases.values()
            if _is_comm(o.name) and o.messages > 0 and o.excl_s > 0]
    lat, rate = math.nan, math.nan
    if comm:
        total_msgs = sum(o.messages for o in comm)
        total_bytes = sum(o.bytes for o in comm)
        total_time = sum(o.excl_s for o in comm)
        if len(comm) >= 2:
            a = np.array([[o.messages, o.bytes] for o in comm])
            b = np.array([o.excl_s for o in comm])
            try:
                coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
                lat = max(0.0, float(coeff[0]))
                inv_bw = max(0.0, float(coeff[1]))
                rate = 1.0 / inv_bw if inv_bw > 0 else math.inf
            except np.linalg.LinAlgError:
                pass
        if not math.isfinite(lat):
            # One observation (or a degenerate fit): all time to bandwidth.
            lat = 0.0
            rate = (total_bytes / total_time if total_time > 0 and total_bytes
                    else math.inf)
        del total_msgs
    steps_obs = phases.get("solver.timestep")
    return TraceCalibration(
        phases=phases,
        flops_per_s=global_rate,
        comm_latency_s=lat,
        comm_bytes_per_s=rate,
        n_steps=steps_obs.calls if steps_obs is not None else 0,
    )


@dataclass
class PhaseComparison:
    """Predicted vs measured exclusive time of one phase."""

    name: str
    measured_s: float
    predicted_s: float  # NaN = the calibration cannot model this phase

    @property
    def modeled(self) -> bool:
        return math.isfinite(self.predicted_s)

    @property
    def error_pct(self) -> float:
        if not self.modeled or self.measured_s <= 0:
            return math.nan
        return 100.0 * (self.predicted_s - self.measured_s) / self.measured_s


def predicted_vs_measured(
    calib: TraceCalibration, target_records: Iterable[SpanRecord]
) -> tuple[list[PhaseComparison], dict]:
    """Score the calibration against a target trace, phase by phase.

    Returns the per-phase rows (largest measured first) and a totals
    dict: ``measured_s`` / ``predicted_s`` / ``error_pct`` over the
    modeled phases plus ``coverage`` (modeled share of measured time).
    """
    target = phase_observations(target_records)
    steps_obs = target.get("solver.timestep")
    target_steps = steps_obs.calls if steps_obs is not None else 0
    rows = []
    for o in target.values():
        rows.append(PhaseComparison(
            name=o.name,
            measured_s=o.excl_s,
            predicted_s=calib.predict_phase(o, target_steps),
        ))
    rows.sort(key=lambda r: -r.measured_s)
    measured_all = sum(r.measured_s for r in rows)
    measured_mod = sum(r.measured_s for r in rows if r.modeled)
    predicted_mod = sum(r.predicted_s for r in rows if r.modeled)
    error = (100.0 * (predicted_mod - measured_mod) / measured_mod
             if measured_mod > 0 else math.nan)
    totals = {
        "measured_s": measured_mod,
        "predicted_s": predicted_mod,
        "error_pct": error,
        "coverage": measured_mod / measured_all if measured_all > 0 else 0.0,
    }
    return rows, totals


def render_predicted_vs_measured(
    rows: list[PhaseComparison], totals: dict, min_share: float = 0.005
) -> str:
    """Fixed-width predicted-vs-measured table (the EXPERIMENTS.md one).

    Phases below ``min_share`` of the measured total are folded into one
    "(other)" row to keep the table readable.
    """
    total_meas = sum(r.measured_s for r in rows) or 1.0
    big = [r for r in rows if r.measured_s / total_meas >= min_share]
    small = [r for r in rows if r.measured_s / total_meas < min_share]
    lines = [
        f"{'phase':<28}{'measured_s':>12}{'predicted_s':>13}{'error':>9}"
    ]
    for r in big:
        err = "-" if math.isnan(r.error_pct) else f"{r.error_pct:+.1f}%"
        pred = "-" if not r.modeled else f"{r.predicted_s:.4f}"
        lines.append(
            f"{r.name:<28}{r.measured_s:>12.4f}{pred:>13}{err:>9}"
        )
    if small:
        meas = sum(r.measured_s for r in small)
        pred = sum(r.predicted_s for r in small if r.modeled)
        lines.append(
            f"{'(other, ' + str(len(small)) + ' phases)':<28}"
            f"{meas:>12.4f}{pred:>13.4f}{'':>9}"
        )
    lines.append("-" * len(lines[0]))
    lines.append(
        f"{'total (modeled)':<28}{totals['measured_s']:>12.4f}"
        f"{totals['predicted_s']:>13.4f}{totals['error_pct']:>+8.1f}%"
    )
    lines.append(
        f"model coverage: {100.0 * totals['coverage']:.1f}% of measured time"
    )
    return "\n".join(lines)


def extrapolate_calibrated(
    calib: TraceCalibration,
    machine,
    nex_xi: int,
    nproc_xi: int,
    record_length_s: float = 1500.0,
    attenuation: bool = True,
):
    """Paper-scale prediction with the *measured* sustained flop rate.

    Same structure as :func:`~repro.perf.extrapolate.predict_run` but
    the compute term uses the rate fitted from the trace instead of the
    machine roofline — "what would this substrate's kernels do on the
    paper's rank counts" rather than "what would ideal hardware do".
    The comm term still comes from the machine's analytic model (a
    single-node trace cannot calibrate an interconnect).
    """
    from ..config import constants
    from ..kernels.flops import timestep_flops
    from .comm_model import analytic_comm_time_per_step
    from .extrapolate import RunPrediction, _steps_for_record
    from .sizes import slice_size_model

    if not (math.isfinite(calib.flops_per_s) and calib.flops_per_s > 0):
        raise ValueError(
            "calibration has no flops-bearing phases; trace a solver run"
        )
    size = slice_size_model(nex_xi, nproc_xi)
    nproc_total = constants.NCHUNKS * nproc_xi**2
    elements = size.elements_per_slice(polar=False)
    nspec_fluid = elements // 6
    nspec_solid = elements - nspec_fluid
    points = size.points_per_slice
    flops_per_step = timestep_flops(
        nspec_solid=nspec_solid,
        nspec_fluid=nspec_fluid,
        nglob_solid=int(points * 5 / 6),
        nglob_fluid=int(points * 1 / 6),
        attenuation=attenuation,
    )
    compute_per_step = flops_per_step / calib.flops_per_s
    comm_per_step = analytic_comm_time_per_step(machine, size, nproc_total)
    n_steps = _steps_for_record(nex_xi, record_length_s)
    comm_per_core = comm_per_step * n_steps
    total_per_core = (compute_per_step + comm_per_step) * n_steps
    comm_fraction = comm_per_step / (compute_per_step + comm_per_step)
    return RunPrediction(
        machine=f"{machine.name} (calibrated)",
        nex_xi=nex_xi,
        nproc_total=nproc_total,
        shortest_period_s=constants.shortest_period_for_nex(nex_xi),
        elements_per_core=elements,
        memory_per_core_gb=size.memory_bytes_per_slice / 1e9,
        n_steps=n_steps,
        compute_s_per_step=compute_per_step,
        comm_s_per_step=comm_per_step,
        wall_time_s=total_per_core,
        comm_s_per_core=comm_per_core,
        comm_s_total_all_cores=comm_per_core * nproc_total,
        comm_fraction=comm_fraction,
        sustained_tflops=(
            calib.flops_per_s * nproc_total * (1 - comm_fraction) / 1e12
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: calibrate from a trace, score a target, extrapolate."""
    from ..obs.export import read_jsonl
    from .machines import MACHINES

    argv = list(sys.argv[1:] if argv is None else argv)
    target_path = None
    extrap = None
    if "--target" in argv:
        i = argv.index("--target")
        target_path = argv[i + 1]
        del argv[i : i + 2]
    if "--extrapolate" in argv:
        i = argv.index("--extrapolate")
        extrap = (argv[i + 1], int(argv[i + 2]), int(argv[i + 3]))
        del argv[i : i + 4]
    if len(argv) != 1:
        print("usage: python -m repro.perf.calibrate CALIB.jsonl "
              "[--target TARGET.jsonl] "
              "[--extrapolate MACHINE NEX NPROC_XI]")
        return 2
    records, _metrics, _meta = read_jsonl(argv[0])
    calib = calibrate(records)
    print(f"calibrated from {argv[0]}: "
          f"{calib.flops_per_s / 1e9 if math.isfinite(calib.flops_per_s) else float('nan'):.3f} "
          f"sustained Gflop/s, {calib.n_steps} steps")
    if target_path is not None:
        target_records, _m, _meta2 = read_jsonl(target_path)
    else:
        target_records = records
    rows, totals = predicted_vs_measured(calib, target_records)
    print()
    print(render_predicted_vs_measured(rows, totals))
    if extrap is not None:
        name, nex, nproc_xi = extrap
        machine = next(
            (m for key, m in MACHINES.items() if key.lower() == name.lower()),
            None,
        )
        if machine is None:
            print(f"error: unknown machine {name!r} "
                  f"(have: {', '.join(sorted(MACHINES))})", file=sys.stderr)
            return 1
        pred = extrapolate_calibrated(calib, machine, nex, nproc_xi)
        print()
        print(f"-- extrapolation: {pred.machine}, NEX={pred.nex_xi}, "
              f"{pred.nproc_total} cores --")
        for key, value in pred.row().items():
            print(f"{key:<20}{value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
