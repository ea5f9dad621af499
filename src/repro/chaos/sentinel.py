"""Numerical health sentinel: catch a blow-up before it poisons outputs.

A CFL violation or an injected NaN does not stop an explicit time loop —
it silently floods the wavefield, the seismograms, and the next
checkpoint with garbage, and a retry policy that cannot tell this from a
lost node will happily re-run the same divergence three times.  The
:class:`HealthSentinel` is the detection half of the chaos subsystem:
one of ``GlobalSolver.run``'s step observers
(:meth:`HealthSentinel.observe`, every ``check_every`` steps and on a
run's last step), it scans the displacement/velocity/potential fields
for non-finite values, amplitude blow-up, and runaway kinetic-energy
growth, and raises a typed
:class:`NumericalHealthError` carrying a :class:`HealthSnapshot` (step,
per-region max amplitudes, offending rank) that the campaign layer
persists into the job's provenance record.

Deterministic numerical faults are *not* transient: the campaign
:class:`~repro.campaign.queue.RetryPolicy` classifies
:class:`NumericalHealthError` as fail-fast, so a diverging job fails
once, with diagnostics, instead of burning its whole retry budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["HealthSnapshot", "NumericalHealthError", "HealthSentinel"]


@dataclass
class HealthSnapshot:
    """Diagnostic state captured at the moment a health check fails."""

    step: int
    rank: int
    reason: str  # "nonfinite" | "amplitude" | "energy_growth"
    detail: str = ""
    max_displacement_m: dict[str, float] = field(default_factory=dict)
    max_velocity_ms: dict[str, float] = field(default_factory=dict)
    kinetic_energy_j: float = 0.0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "rank": self.rank,
            "reason": self.reason,
            "detail": self.detail,
            "max_displacement_m": dict(self.max_displacement_m),
            "max_velocity_ms": dict(self.max_velocity_ms),
            "kinetic_energy_j": self.kinetic_energy_j,
        }


class NumericalHealthError(RuntimeError):
    """The solution diverged (NaN/Inf, amplitude or energy blow-up).

    Deterministic — the same inputs diverge the same way — so the retry
    policy fails fast instead of retrying.  ``snapshot`` carries the
    diagnostic state for the campaign manifest.
    """

    def __init__(self, message: str, snapshot: HealthSnapshot):
        super().__init__(message)
        self.snapshot = snapshot


def _region_name(code: int) -> str:
    from ..model.prem import RegionCode

    return RegionCode.NAMES.get(code, str(code))


class HealthSentinel:
    """Periodic field-health checks for one solver (one rank).

    Parameters
    ----------
    check_every : steps between checks.  A blown-up field is caught at
        most one interval after it appears; each check costs one
        max-abs scan per region (O(nglob), trivially cheap next to a
        force evaluation — the ``benchmarks/test_chaos_overhead.py``
        guard pins this below 3% of solver wall time).
    max_displacement_m : absolute amplitude ceiling; a physically
        plausible global simulation stays far below the 1e9 m default,
        while a CFL violation crosses it within a few checks.
    energy_growth_factor : ceiling on kinetic energy relative to the
        largest value seen in the first ``baseline_checks`` checks —
        explicit-scheme divergence grows exponentially, legitimate
        post-source energy does not.
    baseline_checks : checks used to establish the energy baseline.
    rank : attached to snapshots (virtual MPI rank; 0 for serial runs).
    """

    def __init__(
        self,
        check_every: int = 25,
        max_displacement_m: float = 1e9,
        energy_growth_factor: float = 1e8,
        baseline_checks: int = 3,
        rank: int = 0,
    ):
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        if max_displacement_m <= 0 or energy_growth_factor <= 1:
            raise ValueError(
                "max_displacement_m must be positive and "
                "energy_growth_factor > 1"
            )
        self.check_every = int(check_every)
        self.max_displacement_m = float(max_displacement_m)
        self.energy_growth_factor = float(energy_growth_factor)
        self.baseline_checks = int(baseline_checks)
        self.rank = rank
        self.checks = 0
        self._energy_baseline = 0.0
        self._baseline_seen = 0
        #: Latest values observed by :meth:`check` (NaN before the first
        #: check) — the streaming telemetry samples these per step, so
        #: health signals reach the live channel without re-scanning.
        self.last_peak_m = math.nan
        self.last_energy_j = math.nan

    def due(self, step: int) -> bool:
        """Check after ``step`` completes? (0-based; every Nth step.)"""
        return (step + 1) % self.check_every == 0

    def observe(self, step: int, solver) -> None:
        """Step observer: :meth:`check` when due and on the run's last
        step, so a blow-up cannot slip unflagged into the seismograms or
        the checkpoint written next; counted into ``health.checks`` and
        ``health.failures`` behind the replay gate (``solver.publishing``)."""
        if not (self.due(step) or step == solver.last_step):
            return
        metrics = solver.publishing(step)
        with solver.tracer.span("health.check", step=step):
            if metrics is not None:
                metrics.counter("health.checks").add(1)
            try:
                self.check(solver, step)
            except Exception:
                if metrics is not None:
                    metrics.counter("health.failures").add(1)
                raise

    def _snapshot(self, solver, step: int, reason: str, detail: str,
                  energy: float) -> HealthSnapshot:
        max_d: dict[str, float] = {}
        max_v: dict[str, float] = {}
        for code in solver.solid_codes:
            f = solver.solid[code]
            name = _region_name(code)
            max_d[name] = float(np.max(np.abs(f.displ)))
            max_v[name] = float(np.max(np.abs(f.veloc)))
        if solver.fluid is not None:
            name = _region_name(solver.fluid_code)
            max_d[name] = float(np.max(np.abs(solver.fluid.chi)))
            max_v[name] = float(np.max(np.abs(solver.fluid.chi_dot)))
        return HealthSnapshot(
            step=step,
            rank=self.rank,
            reason=reason,
            detail=detail,
            max_displacement_m=max_d,
            max_velocity_ms=max_v,
            kinetic_energy_j=energy,
        )

    def check(self, solver, step: int) -> None:
        """Raise :class:`NumericalHealthError` if the state is unhealthy.

        One pass per region: the max-abs reduction both detects blow-up
        and, because NaN/Inf propagate through ``max``, non-finite
        values — no separate ``isfinite`` sweep of the full field.
        """
        self.checks += 1
        worst = 0.0
        for code in solver.solid_codes:
            f = solver.solid[code]
            for label, arr in (("displ", f.displ), ("veloc", f.veloc)):
                peak = float(np.max(np.abs(arr)))
                if not math.isfinite(peak):
                    raise NumericalHealthError(
                        f"step {step}: non-finite {label} in region "
                        f"{_region_name(code)} (rank {self.rank})",
                        self._snapshot(solver, step, "nonfinite",
                                       f"{label}/{_region_name(code)}", 0.0),
                    )
                worst = max(worst, peak)
        self.last_peak_m = worst
        if solver.fluid is not None:
            peak = float(np.max(np.abs(solver.fluid.chi)))
            if not math.isfinite(peak):
                raise NumericalHealthError(
                    f"step {step}: non-finite fluid potential "
                    f"(rank {self.rank})",
                    self._snapshot(solver, step, "nonfinite", "chi", 0.0),
                )
        if worst > self.max_displacement_m:
            raise NumericalHealthError(
                f"step {step}: displacement amplitude {worst:.3e} m exceeds "
                f"the {self.max_displacement_m:.1e} m ceiling "
                f"(rank {self.rank})",
                self._snapshot(solver, step, "amplitude",
                               f"{worst:.3e} m", 0.0),
            )
        energy = solver._total_kinetic_energy()
        self.last_energy_j = energy
        if not math.isfinite(energy):
            raise NumericalHealthError(
                f"step {step}: non-finite kinetic energy (rank {self.rank})",
                self._snapshot(solver, step, "nonfinite", "energy", energy),
            )
        if self._baseline_seen < self.baseline_checks:
            self._energy_baseline = max(self._energy_baseline, energy)
            self._baseline_seen += 1
        elif (
            self._energy_baseline > 0.0
            and energy > self.energy_growth_factor * self._energy_baseline
        ):
            raise NumericalHealthError(
                f"step {step}: kinetic energy {energy:.3e} J grew past "
                f"{self.energy_growth_factor:.1e}x the baseline "
                f"{self._energy_baseline:.3e} J (rank {self.rank})",
                self._snapshot(solver, step, "energy_growth",
                               f"{energy:.3e} J", energy),
            )
