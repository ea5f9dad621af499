"""Regression-guarded benchmark registry: canonical, comparable records.

The benchmarks under ``benchmarks/`` are pytest sessions — great for a
human at a terminal, invisible to tooling.  This module gives the
performance observatory a machine-facing benchmark path: a registry of
named benchmark functions executed headlessly, each writing one
canonical ``BENCH_<name>.json`` record (git revision, machine
fingerprint, metric dict), plus a comparator that checks a candidate
directory of records against a baseline directory with per-metric
tolerance bands and exits non-zero on regression.

Command line::

    python -m repro.obs.bench run [--quick] [--out DIR] [NAME ...]
    python -m repro.obs.bench compare --baseline DIR [--candidate DIR]
    python -m repro.obs.bench report [DIR]

``run --quick`` is the CI (advisory) mode: smaller problems, fewer
repeats — noisier, but cheap enough to run on every push.  The guards
are deliberately loose (default 1.6x) because shared CI boxes jitter;
the comparison is a tripwire for 2x-class regressions, not a
microbenchmark referee.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "BENCH_FORMAT_VERSION",
    "GuardSpec",
    "BenchSpec",
    "REGISTRY",
    "register",
    "machine_fingerprint",
    "git_revision",
    "run_benchmark",
    "run_benchmarks",
    "load_records",
    "compare_records",
    "render_report",
    "main",
]

BENCH_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GuardSpec:
    """Tolerance band for one metric of one benchmark.

    ``direction`` says which way is better: ``"lower"`` (times) or
    ``"higher"`` (speedups, rates).  ``ratio`` is the allowed relative
    slack against the baseline record (1.6 = a 60% regression trips).
    ``floor``/``ceiling`` are absolute bounds checked even without a
    baseline — e.g. "the cache speedup must exceed 5x, ever".
    """

    metric: str
    direction: str = "lower"
    ratio: float = 1.6
    floor: float | None = None
    ceiling: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(
                f"direction must be 'lower' or 'higher', got {self.direction!r}"
            )
        if self.ratio < 1.0:
            raise ValueError(f"ratio must be >= 1, got {self.ratio}")

    def check_absolute(self, value: float) -> str | None:
        """Violation message for the absolute bounds, or None."""
        if self.floor is not None and value < self.floor:
            return (f"{self.metric} = {value:.6g} below the floor "
                    f"{self.floor:.6g}")
        if self.ceiling is not None and value > self.ceiling:
            return (f"{self.metric} = {value:.6g} above the ceiling "
                    f"{self.ceiling:.6g}")
        return None

    def check_relative(self, value: float, baseline: float) -> str | None:
        """Violation message against a baseline value, or None."""
        if not (math.isfinite(value) and math.isfinite(baseline)):
            return None
        if baseline <= 0:
            return None
        if self.direction == "lower" and value > baseline * self.ratio:
            return (f"{self.metric} regressed: {value:.6g} vs baseline "
                    f"{baseline:.6g} (allowed {self.ratio:.2f}x)")
        if self.direction == "higher" and value < baseline / self.ratio:
            return (f"{self.metric} regressed: {value:.6g} vs baseline "
                    f"{baseline:.6g} (allowed 1/{self.ratio:.2f})")
        return None


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: a callable plus its guards."""

    name: str
    fn: Callable[[bool], dict[str, float]]
    description: str
    guards: tuple[GuardSpec, ...] = ()


REGISTRY: dict[str, BenchSpec] = {}


def register(name: str, description: str, guards: tuple[GuardSpec, ...] = ()):
    """Decorator adding a ``fn(quick: bool) -> metrics dict`` benchmark."""

    def deco(fn):
        if name in REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        REGISTRY[name] = BenchSpec(
            name=name, fn=fn, description=description, guards=guards
        )
        return fn

    return deco


def machine_fingerprint() -> dict[str, Any]:
    """Where a record was produced — enough to judge comparability."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


def git_revision() -> str:
    """Short git revision of the working tree ("unknown" outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ------------------------------------------------------------ timing helper


def _best_time(fn: Callable[[], Any], repeats: int) -> float:
    """Min-of-repeats wall time: the cleanest estimate under noise."""
    fn()  # warm-up: caches, allocator, lazy imports
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_times_interleaved(
    fns: "list[Callable[[], Any]]", repeats: int
) -> list[float]:
    """Min-of-repeats for several variants, measured round-robin.

    Back-to-back ``_best_time`` blocks let host-load drift between the
    blocks masquerade as a difference between the variants — fatal when
    the quantity of interest is a small A/B ratio (e.g. a <5% overhead).
    Interleaving puts every variant under the same noise in every round,
    so the per-variant minima are comparable.
    """
    for fn in fns:
        fn()  # warm-up
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


# ------------------------------------------------------------- benchmarks


def _small_params(nex: int = 4, nproc: int = 1, n_steps: int = 10, **kw):
    from ..config.parameters import SimulationParameters

    defaults = dict(
        nex_xi=nex,
        nproc_xi=nproc,
        ner_crust_mantle=2,
        ner_outer_core=1,
        ner_inner_core=1,
        nstep_override=n_steps,
    )
    defaults.update(kw)
    return SimulationParameters(**defaults)


@register(
    "kernel_shootout",
    "elastic force kernel: vectorized vs baseline vs tiny-BLAS variants",
    guards=(
        GuardSpec("vectorized_s", direction="lower", ratio=1.6),
        GuardSpec("vector_speedup", direction="higher", ratio=1.6, floor=1.0),
    ),
)
def bench_kernel_shootout(quick: bool) -> dict[str, float]:
    from ..cartesian import build_box_mesh
    from ..gll import GLLBasis
    from ..kernels import compute_forces_elastic, compute_geometry

    side = 4 if quick else 5
    repeats = 3 if quick else 7
    mesh = build_box_mesh((side, side, side))
    geom = compute_geometry(mesh.xyz)
    basis = GLLBasis(5)
    _, lam, mu = mesh.material_arrays()
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh.nspec, 5, 5, 5, 3))

    def variant(name):
        return lambda: compute_forces_elastic(u, geom, lam, mu, basis, name)

    t_vec = _best_time(variant("vectorized"), repeats)
    t_base = _best_time(variant("baseline"), max(1, repeats // 2))
    t_blas = _best_time(variant("blas"), 1)
    return {
        "vectorized_s": t_vec,
        "baseline_s": t_base,
        "blas_s": t_blas,
        "vector_speedup": t_base / t_vec,
        "elements": float(mesh.nspec),
    }


@register(
    "overlap_ablation",
    "halo-exchange overlap: visible comm time, blocking vs non-blocking",
    guards=(
        GuardSpec("visible_comm_s", direction="lower", ratio=2.0),
        GuardSpec("hidden_fraction", direction="higher", ratio=3.0,
                  floor=0.0, ceiling=1.0),
    ),
)
def bench_overlap_ablation(quick: bool) -> dict[str, float]:
    from ..parallel import run_distributed_simulation

    n_steps = 4 if quick else 10
    params = _small_params(nex=8, nproc=1, n_steps=n_steps)

    def span_total(result, *names):
        return sum(
            rec.duration_s
            for tracer in result.tracers
            for rec in tracer.records
            if rec.name in names
        )

    blocking = run_distributed_simulation(
        params, n_steps=n_steps, overlap=False, trace=True
    )
    overlapped = run_distributed_simulation(
        params, n_steps=n_steps, overlap=True, trace=True
    )
    blocking_s = span_total(blocking, "halo.exchange")
    visible_s = span_total(
        overlapped, "halo.post", "halo.wait", "halo.exchange"
    )
    hidden = 1.0 - visible_s / blocking_s if blocking_s > 0 else 0.0
    return {
        "blocking_comm_s": blocking_s,
        "visible_comm_s": visible_s,
        "hidden_fraction": hidden,
        "n_steps": float(n_steps),
    }


@register(
    "cache_hit",
    "mesh-cache amortisation: cold build vs warm hit",
    guards=(
        GuardSpec("hit_speedup", direction="higher", ratio=3.0, floor=5.0),
        GuardSpec("build_s", direction="lower", ratio=1.6),
    ),
)
def bench_cache_hit(quick: bool) -> dict[str, float]:
    from ..campaign.mesh_cache import MeshCache

    params = _small_params(nex=4 if quick else 6)
    # The cold build is the noisiest number here: a single sample would
    # also pay first-call lazy imports, so warm up once and take the min
    # over fresh caches (each re-runs the mesher).
    MeshCache(max_entries=2).get(params)
    build_s = math.inf
    for _ in range(3):
        cache = MeshCache(max_entries=2)
        t0 = time.perf_counter()
        _mesh, hit = cache.get(params)
        build_s = min(build_s, time.perf_counter() - t0)
        assert not hit
    repeats = 5 if quick else 10
    best_hit = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _mesh, hit = cache.get(params)
        best_hit = min(best_hit, time.perf_counter() - t0)
    assert hit
    hit_s = max(best_hit, 1e-9)
    return {
        "build_s": build_s,
        "hit_s": hit_s,
        "hit_speedup": build_s / hit_s,
    }


@register(
    "stream_overhead",
    "streaming telemetry cost on the solver loop (enabled vs off)",
    guards=(
        GuardSpec("overhead_pct", direction="lower", ratio=2.5,
                  ceiling=5.0),
    ),
)
def bench_stream_overhead(quick: bool) -> dict[str, float]:
    import tempfile

    from ..apps.merged_app import run_global_simulation
    from ..mesh.mesher import build_global_mesh
    from .stream import StreamingTelemetry

    n_steps = 6 if quick else 12
    params = _small_params(nex=8, n_steps=n_steps)
    mesh = build_global_mesh(params)
    repeats = 3 if quick else 5

    def plain():
        run_global_simulation(params, n_steps=n_steps, mesh=mesh)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.stream.jsonl"

        def streamed():
            stream = StreamingTelemetry(path, flush_every=64)
            try:
                run_global_simulation(
                    params, n_steps=n_steps, mesh=mesh, stream=stream
                )
            finally:
                stream.close()

        t_plain, t_stream = _best_times_interleaved(
            [plain, streamed], repeats
        )
    overhead = t_stream / t_plain - 1.0
    return {
        "plain_s": t_plain,
        "streamed_s": t_stream,
        "overhead_pct": max(0.0, 100.0 * overhead),
        "n_steps": float(n_steps),
    }


@register(
    "service_load",
    "simulation service over localhost HTTP: cold compute vs warm cache hits",
    guards=(
        GuardSpec("hit_speedup", direction="higher", ratio=3.0, floor=5.0),
        GuardSpec("hit_p99_s", direction="lower", ratio=2.5),
        GuardSpec("requests_per_s", direction="higher", ratio=2.5),
        GuardSpec("hit_rate", direction="higher", ratio=1.5, floor=0.5),
    ),
)
def bench_service_load(quick: bool) -> dict[str, float]:
    import asyncio
    import tempfile
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from ..service import ServiceHTTPServer, SimulationService, http_json
    from .aggregate import percentile

    n_steps = 6 if quick else 10
    n_hits = 40 if quick else 150
    n_clients = 4
    spec = {
        "params": {
            "NEX_XI": 8,
            "NER_CRUST_MANTLE": 2,
            "NER_OUTER_CORE": 1,
            "NER_INNER_CORE": 1,
            "NSTEP_OVERRIDE": n_steps,
        },
        "source": {"position": [0.0, 0.0, 6171.0]},
        "stations": [
            {"name": "POLE", "position": [0.0, 0.0, 6371.0]},
            {"name": "EQ", "position": [6371.0, 0.0, 0.0]},
        ],
        "include_data": False,
    }
    with tempfile.TemporaryDirectory() as tmp:
        service = SimulationService(store=tmp, n_backend_workers=2)
        loop = asyncio.new_event_loop()
        started = threading.Event()
        box: dict[str, ServiceHTTPServer] = {}

        def serve() -> None:
            asyncio.set_event_loop(loop)
            server = ServiceHTTPServer(service, port=0)
            loop.run_until_complete(server.start())
            box["server"] = server
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        started.wait()
        server = box["server"]
        try:
            def simulate() -> float:
                t0 = time.perf_counter()
                status, payload = http_json(
                    "127.0.0.1", server.port, "POST", "/simulate", spec
                )
                assert status == 200, payload
                return time.perf_counter() - t0

            cold_s = simulate()  # the one real solve
            for _ in range(3):
                simulate()  # settle connections and caches
            t_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                hit_latencies = list(
                    pool.map(lambda _i: simulate(), range(n_hits))
                )
            load_wall_s = time.perf_counter() - t_start
            stats = service.stats()
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
                timeout=30
            )
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()
            service.close()
    hit_p50 = percentile(hit_latencies, 50.0)
    return {
        "cold_s": cold_s,
        "hit_p50_s": hit_p50,
        "hit_p99_s": percentile(hit_latencies, 99.0),
        "hit_speedup": cold_s / max(hit_p50, 1e-9),
        "requests_per_s": n_hits / load_wall_s,
        "hit_rate": stats["hit_rate"],
        "solver_runs": float(stats["solver_runs"]),
        "n_requests": float(stats["requests"]),
    }


@register(
    "batch_throughput",
    "event-batched distributed runs: events/sec and halo messages, "
    "B in {1, 4, 16}",
    guards=(
        GuardSpec("events_per_sec_b1", direction="higher", ratio=2.0),
        GuardSpec("events_per_sec_b4", direction="higher", ratio=2.0),
        GuardSpec("speedup_b4", direction="higher", ratio=1.6, floor=1.2),
        GuardSpec("halo_message_reduction_b4", direction="higher",
                  ratio=1.6, floor=2.0),
    ),
)
def bench_batch_throughput(quick: bool) -> dict[str, float]:
    from ..config import constants
    from ..parallel import run_distributed_simulation
    from ..solver import MomentTensorSource, Station, gaussian_stf

    # The distributed path is the honest vehicle for the batching claim:
    # every run pays per-slice meshing, halo construction, and mass
    # assembly, all amortised across the B events, and the batched halo
    # exchange sends one message per neighbour per step regardless of B.
    # (Serial batching only amortises setup — on one core its B=4 gain
    # is ~1.3x; see docs/batching.md.)
    # Short runs are the service-request profile batching targets: the
    # per-run SPMD setup (per-slice meshing, halo construction, mass
    # assembly) is the amortised share, so it must stay a visible
    # fraction of the wall.
    n_steps = 4
    rounds = 1 if quick else 3
    deep = not quick  # B=16 only in the full tier
    params = _small_params(nex=8, nproc=1, n_steps=n_steps)
    radius = constants.R_EARTH_KM

    def event(i: int):
        return [MomentTensorSource(
            position=(0.0, 0.0, radius - (100.0 + 25.0 * i)),
            moment=(1.0 + i) * 1e20 * np.eye(3),
            stf=gaussian_stf(15.0),
            time_shift=40.0,
        )]

    stations = [
        Station("POLE", (0.0, 0.0, radius)),
        Station("EQ_X", (radius, 0.0, 0.0)),
    ]

    def messages(result) -> int:
        return sum(
            s.messages_sent + s.messages_received for s in result.comm_stats
        )

    def timed(nbatch: int) -> tuple[float, int]:
        t0 = time.perf_counter()
        if nbatch == 1:
            result = run_distributed_simulation(
                params, sources=event(0), stations=stations, n_steps=n_steps
            )
        else:
            result = run_distributed_simulation(
                params,
                stations=stations,
                n_steps=n_steps,
                event_sources=[event(i) for i in range(nbatch)],
            )
        return time.perf_counter() - t0, messages(result)

    # The quantity of interest is the B=4/B=1 wall ratio.  Cross-round
    # minima are a biased estimator for a ratio (the short B=1 run hits
    # a lucky sample more often than the long B=4 run), so pair the two
    # variants within each round — both see the same noise — and take
    # the MEDIAN per-round ratio; throughput rates still use the
    # per-variant minima, the house style for absolute times.
    timed(1)  # warm-up: lazy imports, allocator
    best: dict[int, float] = {1: math.inf, 4: math.inf}
    msgs: dict[int, int] = {}
    ratios: list[float] = []
    for _ in range(rounds):
        t1, msgs[1] = timed(1)
        t4, msgs[4] = timed(4)
        best[1] = min(best[1], t1)
        best[4] = min(best[4], t4)
        ratios.append(4.0 * t1 / t4)
    if deep:
        best[16], msgs[16] = timed(16)  # one shot: B=16 is the slow tail
    metrics = {
        "events_per_sec_b1": 1.0 / best[1],
        "events_per_sec_b4": 4.0 / best[4],
        "speedup_b4": sorted(ratios)[len(ratios) // 2],
        "halo_messages_b1": float(msgs[1]),
        # B sequential runs would send B * msgs[1] messages.
        "halo_message_reduction_b4": 4.0 * msgs[1] / msgs[4],
        "n_steps": float(n_steps),
    }
    if deep:
        metrics["events_per_sec_b16"] = 16.0 / best[16]
        metrics["speedup_b16"] = 16.0 / best[16] * best[1]
        metrics["halo_message_reduction_b16"] = 16.0 * msgs[1] / msgs[16]
    return metrics


@register(
    "recovery_latency",
    "rank-death recovery: detection-to-resume latency vs whole-job retry",
    guards=(
        GuardSpec("recovery_s", direction="lower", ratio=2.5),
        GuardSpec("steps_saved_fraction", direction="higher", ratio=1.5,
                  floor=0.2),
        GuardSpec("detector_overhead_pct", direction="lower", ratio=2.5,
                  ceiling=5.0),
    ),
)
def bench_recovery_latency(quick: bool) -> dict[str, float]:
    from ..chaos.faults import FaultPlan, FaultSpec
    from ..parallel import run_distributed_simulation
    from ..resilience import FailureDetector, RecoveryPolicy, RunSupervisor
    from ..solver import Station

    # The supervisor's economic claim: a mid-run rank death costs one
    # recovery (checkpoint reload + re-marching the span since the last
    # boundary), not a whole-job retry (a full re-run).  Crash shortly
    # *after* the third quartile checkpoint — deliberately off the
    # boundary, so the recovery really re-executes a partial span — and
    # a retry would re-execute all n_steps.
    n_steps = 8 if quick else 16
    repeats = 2 if quick else 3
    params = _small_params(n_steps=n_steps)
    stations = [Station("POLE", (0.0, 0.0, 6371.0))]
    crash_step = (3 * n_steps) // 4 + max(1, n_steps // 8)

    def undisturbed(detector=None) -> float:
        t0 = time.perf_counter()
        run_distributed_simulation(
            params, stations=stations, n_steps=n_steps,
            failure_detector=detector,
        )
        return time.perf_counter() - t0

    def supervised():
        supervisor = RunSupervisor(
            policy=RecoveryPolicy(
                mode="respawn", n_checkpoint_segments=4,
                backoff_s=0.0, suspect_after_s=1.0,
                probe_interval_s=0.02,
            )
        )
        return supervisor.run(
            params, stations=stations, n_steps=n_steps,
            recv_timeout_s=5.0,
            fault_plan=FaultPlan(
                [FaultSpec(kind="crash", rank=2, step=crash_step)]
            ),
        )

    undisturbed()  # warm-up: lazy imports, allocator
    t_plain = min(undisturbed() for _ in range(repeats))
    t_armed = min(
        undisturbed(FailureDetector(6)) for _ in range(repeats)
    )
    recovery_s = math.inf
    steps_reexecuted = n_steps
    for _ in range(repeats):
        result = supervised()
        event = result.recoveries[0]
        recovery_s = min(recovery_s, event.wall_s)
        steps_reexecuted = crash_step - event.resume_step
    return {
        "recovery_s": recovery_s,
        # A whole-job retry re-runs every step; in-run recovery only the
        # span since the last common checkpoint.
        "steps_reexecuted": float(steps_reexecuted),
        "steps_saved_fraction": 1.0 - steps_reexecuted / n_steps,
        "retry_equivalent_s": t_plain,
        "detector_overhead_pct": max(0.0, 100.0 * (t_armed / t_plain - 1.0)),
        "n_steps": float(n_steps),
    }


@register(
    "analysis_runtime",
    "static analyzer (R1-R6 and R9, interprocedural) full-repo wall time",
    guards=(
        # The analyzer is a blocking CI gate and a pre-commit habit;
        # the whole-program pass (call graph + taint fixpoint) must
        # stay interactive.  Hard ceiling 10 s over all of src/.
        GuardSpec("full_repo_s", direction="lower", ratio=2.5,
                  ceiling=10.0),
        GuardSpec("files_per_s", direction="higher", ratio=2.5),
    ),
)
def bench_analysis_runtime(quick: bool) -> dict[str, float]:
    from ..analysis.static import REGISTRY, check_paths

    src_root = Path(__file__).resolve().parents[2]
    repeats = 1 if quick else 3
    check_paths([src_root])  # warm-up: imports, pyc, page cache
    best = math.inf
    files = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = check_paths([src_root])
        best = min(best, time.perf_counter() - t0)
        files = report.files_checked
    return {
        "full_repo_s": best,
        "files_checked": float(files),
        "files_per_s": files / best if best > 0 else 0.0,
        "rules": float(len(REGISTRY)),
    }


# ------------------------------------------------------------ run / records


def run_benchmark(
    spec: BenchSpec, quick: bool = False, out_dir: str | Path = "."
) -> Path:
    """Execute one benchmark and write its ``BENCH_<name>.json`` record."""
    t0 = time.perf_counter()
    metrics = spec.fn(quick)
    record = {
        "format_version": BENCH_FORMAT_VERSION,
        "name": spec.name,
        "description": spec.description,
        "quick": quick,
        "git_rev": git_revision(),
        "timestamp": time.time(),
        "machine": machine_fingerprint(),
        "bench_wall_s": time.perf_counter() - t0,
        "metrics": {k: float(v) for k, v in metrics.items()},
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{spec.name}.json"
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def run_benchmarks(
    names: list[str] | None = None,
    quick: bool = False,
    out_dir: str | Path = ".",
    log=print,
) -> list[Path]:
    """Run a set of registered benchmarks (all by default)."""
    if names:
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            raise KeyError(
                f"unknown benchmark(s) {unknown}; "
                f"registered: {sorted(REGISTRY)}"
            )
        specs = [REGISTRY[n] for n in names]
    else:
        specs = [REGISTRY[n] for n in sorted(REGISTRY)]
    paths = []
    for spec in specs:
        log(f"[bench] {spec.name}: {spec.description}")
        path = run_benchmark(spec, quick=quick, out_dir=out_dir)
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        for key, value in sorted(rec["metrics"].items()):
            log(f"[bench]   {key} = {value:.6g}")
        paths.append(path)
    return paths


def load_records(directory: str | Path) -> dict[str, dict]:
    """All ``BENCH_*.json`` records of a directory, keyed by name."""
    records: dict[str, dict] = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        name = rec.get("name")
        if isinstance(name, str):
            records[name] = rec
    return records


def compare_records(
    candidate_dir: str | Path, baseline_dir: str | Path | None
) -> tuple[bool, list[str]]:
    """Guard every candidate record; returns (ok, report lines).

    Absolute floor/ceiling guards always apply.  Relative guards apply
    when the baseline directory has a record of the same name; a missing
    baseline is reported as "no history" and passes — the first run of a
    new benchmark must not fail CI.
    """
    candidates = load_records(candidate_dir)
    baselines = load_records(baseline_dir) if baseline_dir else {}
    lines: list[str] = []
    ok = True
    if not candidates:
        lines.append(f"no BENCH_*.json records in {candidate_dir}")
        return False, lines
    for name, rec in sorted(candidates.items()):
        spec = REGISTRY.get(name)
        if spec is None:
            lines.append(f"{name}: not in the registry, skipped")
            continue
        metrics = rec.get("metrics", {})
        base = baselines.get(name)
        base_metrics = base.get("metrics", {}) if base else {}
        for guard in spec.guards:
            value = metrics.get(guard.metric)
            if value is None:
                ok = False
                lines.append(f"{name}: FAIL metric {guard.metric!r} missing")
                continue
            violation = guard.check_absolute(float(value))
            if violation:
                ok = False
                lines.append(f"{name}: FAIL {violation}")
                continue
            baseline_value = base_metrics.get(guard.metric)
            if baseline_value is None:
                lines.append(
                    f"{name}: {guard.metric} = {float(value):.6g} "
                    f"(no history)"
                )
                continue
            violation = guard.check_relative(
                float(value), float(baseline_value)
            )
            if violation:
                ok = False
                lines.append(f"{name}: FAIL {violation}")
            else:
                lines.append(
                    f"{name}: {guard.metric} = {float(value):.6g} "
                    f"(baseline {float(baseline_value):.6g}, ok)"
                )
    lines.append("comparison " + ("PASSED" if ok else "FAILED"))
    return ok, lines


def render_report(directory: str | Path) -> str:
    """Fixed-width table of every record in a directory."""
    records = load_records(directory)
    if not records:
        return f"no BENCH_*.json records in {directory}"
    lines = [f"{'benchmark':<20}{'rev':<10}{'quick':<7}{'metrics'}"]
    for name, rec in sorted(records.items()):
        metrics = ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(rec.get("metrics", {}).items())
        )
        lines.append(
            f"{name:<20}{rec.get('git_rev', '?'):<10}"
            f"{str(bool(rec.get('quick'))):<7}{metrics}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = (
        "usage: python -m repro.obs.bench run [--quick] [--out DIR] "
        "[NAME ...]\n"
        "       python -m repro.obs.bench compare --baseline DIR "
        "[--candidate DIR]\n"
        "       python -m repro.obs.bench report [DIR]"
    )
    if not argv:
        print(usage)
        return 2
    cmd, rest = argv[0], argv[1:]
    if cmd == "run":
        quick = "--quick" in rest
        if quick:
            rest.remove("--quick")
        out_dir = "."
        if "--out" in rest:
            i = rest.index("--out")
            out_dir = rest[i + 1]
            del rest[i : i + 2]
        try:
            paths = run_benchmarks(rest or None, quick=quick, out_dir=out_dir)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for path in paths:
            print(path)
        return 0
    if cmd == "compare":
        baseline = candidate = None
        if "--baseline" in rest:
            i = rest.index("--baseline")
            baseline = rest[i + 1]
            del rest[i : i + 2]
        if "--candidate" in rest:
            i = rest.index("--candidate")
            candidate = rest[i + 1]
            del rest[i : i + 2]
        if candidate is None:
            candidate = "."
        if rest or baseline is None:
            print(usage)
            return 2
        ok, lines = compare_records(candidate, baseline)
        for line in lines:
            print(line)
        return 0 if ok else 1
    if cmd == "report":
        directory = rest[0] if rest else "."
        print(render_report(directory))
        return 0
    print(usage)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
