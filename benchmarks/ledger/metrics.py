"""Metric and workload definitions of the step-cost ledger, and its estimators.

This file is the single source of the names: ``BENCHMARK.json`` repeats the
workloads and metrics below (a self-test keeps the two equal), the README
explains them, and later issues cite them.  It imports nothing from
``repro``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

WORKLOADS: dict[str, str] = {
    "serial_atten": (
        "one cold attenuated event in one process: the force and attenuation "
        "kernels own ~95% of the loop; parallel, campaign and service do nothing"
    ),
    "cluster6_overlap": (
        "the same event on the 6-rank virtual cluster, overlapped halo schedule: "
        "halo post/wait and Python dispatch on small per-rank slices weigh more, flops less"
    ),
    "campaign_batch4": (
        "a five-job campaign without attenuation: four events packed into one B=4 "
        "batched run plus a two-segment checkpointed job, through mesh cache and store"
    ),
    "service_mix": (
        "HTTP service over a 200-run store, 2 closed-loop clients: two cold solves "
        "and a warm mix of hits, permutations, slices and payloads; kernels bypassed when warm"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the parent's median it may get worse by


# What a user of the system sees.  `op` is the workload's repeated unit: one
# time step of one event (the three solver workloads) or one warm request
# (service_mix); the README says what each metric includes per workload.
# Every timing carries the contract's widest bound: on this host even the
# fast-quantile estimators spread by about a tenth between runs (README).
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("time_to_solution_s", "s", "lower", 0.25),
    EndToEnd("elem_steps_per_s", "1/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this metric should move; empty for
    #: the qualifiers that move nothing.
    moves: tuple[tuple[str, str], ...] = ()
    #: a count that must repeat exactly between repeats and between runs
    exact: bool = False


_SOLVER_WL = ("serial_atten", "campaign_batch4", "cluster6_overlap")


def _on(metric: str, *workloads: str) -> tuple[tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


_MESH_MOVES = _on("setup_s", *_SOLVER_WL) + _on("time_to_solution_s", "service_mix")
_STEP_MOVES = _on("elem_steps_per_s", *_SOLVER_WL)
_ATTEN_MOVES = _on("elem_steps_per_s", "serial_atten", "cluster6_overlap")
_PROBE_MOVES = _on("elem_steps_per_s", "serial_atten", "campaign_batch4")
_PAR_MOVES = _on("elem_steps_per_s", "cluster6_overlap")
_CAMP_MOVES = _on("time_to_solution_s", "campaign_batch4") + _on(
    "elem_steps_per_s", "campaign_batch4"
)
_CACHE_MOVES = _on("setup_s", "campaign_batch4") + _on(
    "time_to_solution_s", "campaign_batch4", "service_mix"
)
_HIT_MOVES = _on("op_p50_ms", "service_mix") + _on("ops_per_s", "service_mix")

PER_LAYER: tuple[PerLayer, ...] = (
    # mesher (program spans mesher.*)
    PerLayer("mesh.build_s", "s", "lower", _MESH_MOVES),
    PerLayer("mesh.numbering_s", "s", "lower", _MESH_MOVES),
    PerLayer("mesh.geometry_s", "s", "lower", _MESH_MOVES),
    PerLayer("mesh.materials_s", "s", "lower", _MESH_MOVES),
    PerLayer("mesh.merge_s", "s", "lower", _MESH_MOVES),
    PerLayer("mesh.elements", "count", "lower", exact=True),
    PerLayer("mesh.global_points", "count", "lower", exact=True),
    # solver constructor
    PerLayer(
        "solver.setup_s", "s", "lower",
        _on("setup_s", "serial_atten") + _on("time_to_solution_s", "service_mix"),
    ),
    # per step, from the traced loop
    PerLayer("kernels.elastic_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("kernels.acoustic_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("solver.attenuation_ms", "ms", "lower", _ATTEN_MOVES),
    PerLayer("solver.newmark_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("solver.coupling_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("solver.receivers_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("solver.step_p50_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("solver.step_p90_ms", "ms", "lower", _STEP_MOVES),
    PerLayer("solver.unattributed_frac", "fraction", "lower"),
    PerLayer("kernels.force_share", "fraction", "lower"),
    PerLayer("solver.atten_cost_factor", "ratio", "lower", _ATTEN_MOVES),
    # outside probes on the workload's own crust-mantle region
    PerLayer("kernels.probe_elastic_ms", "ms", "lower", _PROBE_MOVES),
    PerLayer("kernels.probe_elastic_b4_ms", "ms", "lower",
             _on("elem_steps_per_s", "campaign_batch4")),
    PerLayer("kernels.flops_per_step", "count", "lower", exact=True),
    PerLayer("kernels.gflops", "Gflop/s", "higher", _PROBE_MOVES),
    PerLayer("kernels.bytes_computed_per_step", "count", "lower", exact=True),
    PerLayer("kernels.ops_per_byte", "flop/B", "higher"),
    PerLayer("solver.gather_ms", "ms", "lower", _PROBE_MOVES),
    PerLayer("solver.scatter_add_ms", "ms", "lower", _PROBE_MOVES),
    PerLayer(
        "solver.alloc_peak_mb_per_step", "MiB", "lower",
        _PROBE_MOVES + _on("peak_rss_mb", *_SOLVER_WL, "service_mix"),
    ),
    # virtual cluster
    PerLayer("parallel.prepare_world_s", "s", "lower", _on("setup_s", "cluster6_overlap")),
    PerLayer("parallel.messages_per_step", "count", "lower", _PAR_MOVES, exact=True),
    PerLayer("parallel.bytes_per_step", "count", "lower", _PAR_MOVES, exact=True),
    PerLayer("parallel.halo_post_ms", "ms", "lower", _PAR_MOVES),
    PerLayer("parallel.halo_wait_ms", "ms", "lower", _PAR_MOVES),
    PerLayer("parallel.comm_frac", "fraction", "lower", _PAR_MOVES),
    PerLayer("parallel.hidden_frac", "fraction", "higher", _PAR_MOVES),
    PerLayer("parallel.rank_imbalance", "ratio", "lower", _PAR_MOVES),
    PerLayer("parallel.rank_setup_s", "s", "lower", _PAR_MOVES),
    # campaign
    PerLayer("campaign.mesh_cache_build_s", "s", "lower", _CACHE_MOVES),
    PerLayer("campaign.mesh_cache_hit_ms", "ms", "lower", _CACHE_MOVES),
    PerLayer("campaign.mesh_cache_hits", "count", "higher", _CACHE_MOVES, exact=True),
    PerLayer("campaign.mesh_cache_misses", "count", "lower", _CACHE_MOVES, exact=True),
    PerLayer("campaign.batches", "count", "lower", _CAMP_MOVES, exact=True),
    PerLayer("campaign.batch_events", "count", "higher", _CAMP_MOVES, exact=True),
    PerLayer("campaign.overhead_s", "s", "lower", _CAMP_MOVES),
    PerLayer("campaign.store_record_ms", "ms", "lower", _CAMP_MOVES),
    PerLayer("solver.checkpoint_save_ms", "ms", "lower", _CAMP_MOVES),
    PerLayer("solver.checkpoint_load_ms", "ms", "lower", _CAMP_MOVES),
    PerLayer("solver.checkpoint_mb", "MiB", "lower", _CAMP_MOVES),
    # service
    PerLayer("service.keys_us", "us", "lower", _HIT_MOVES),
    PerLayer("service.store_find_us", "us", "lower", _HIT_MOVES),
    PerLayer("service.store_load_ms", "ms", "lower", _HIT_MOVES),
    PerLayer("service.store_put_ms", "ms", "lower", _on("time_to_solution_s", "service_mix")),
    PerLayer("service.store_scan_s", "s", "lower", _on("setup_s", "service_mix")),
    PerLayer("service.slice_ms", "ms", "lower", _HIT_MOVES),
    PerLayer("service.serialize_ms", "ms", "lower", _HIT_MOVES),
    PerLayer("service.http_roundtrip_ms", "ms", "lower", _HIT_MOVES),
    PerLayer("service.hit_rate", "fraction", "higher", _HIT_MOVES, exact=True),
    PerLayer("service.sliced", "count", "lower", _HIT_MOVES, exact=True),
    PerLayer("service.coalesced", "count", "higher", _HIT_MOVES, exact=True),
    PerLayer("service.solver_runs", "count", "lower",
             _on("time_to_solution_s", "service_mix"), exact=True),
    PerLayer("service.hit_under_solve_p50_ms", "ms", "lower", _HIT_MOVES),
    PerLayer("service.hit_p99_ms", "ms", "lower", _HIT_MOVES),
    # qualifiers: they move nothing, they say how far to trust the rest
    PerLayer("obs.trace_overhead_frac", "fraction", "lower"),
    PerLayer("machine.triad_gbps", "GB/s", "higher"),
    PerLayer("machine.einsum_gflops", "Gflop/s", "higher"),
    PerLayer("machine.drift_frac", "fraction", "lower"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}

#: `machine.drift_frac` above this marks the workload's numbers `noisy`.
NOISY_DRIFT = 0.15


# ------------------------------------------------------------- estimators
#
# Host noise here is bursty: seconds at a time run ~40 % slower (CPU time ~
# wall, so it is slower execution, not scheduling).  A run-level mean or
# median therefore measures how many bursts the run caught; the estimators
# below measure the program by looking only at its undisturbed samples.


def best(samples: list[float]) -> float:
    """Best of interleaved repeats: the repeat the host disturbed least."""
    return min(samples)


def fast_mean(samples: list[float], share: float = 0.10) -> float:
    """Mean of the fastest `share` of per-step samples pooled over repeats."""
    ordered = sorted(samples)
    keep = max(1, int(len(ordered) * share))
    return statistics.fmean(ordered[:keep])


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]: a value some sample had."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return 100.0 * (n - 10) / n


def describe(samples: list[float]) -> dict[str, float]:
    """Median, supported tail and count: carried beside every timing."""
    out: dict[str, float] = {
        "median": statistics.median(samples),
        "n": len(samples),
    }
    q = tail_percentile(len(samples))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(samples, q)
    return out
