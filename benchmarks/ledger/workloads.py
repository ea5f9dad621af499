"""The four workloads of the step-cost ledger.

Each takes a `Run` and returns ``{"metrics": ..., "nulls": ...}``: with
tracing off the end-to-end metrics, measured over as many cold repeats as
fit the run's seconds; with tracing on the per-layer ledger, from one
untraced and one traced repeat plus the outside probes.  Why each workload
exists is in `metrics.WORKLOADS` and the README.
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import threading
import time

import numpy as np

import adapter
import probes
from harness import Run, digest, mesh_layers, now, step_layers, value
from inputs import MESH_KEYS, N_CAMPAIGN_EVENTS, event_inputs, service_inputs
from metrics import best, fast_mean, percentile
from spans import below, self_times

#: Share of per-step samples a fast-quantile estimate keeps.
FAST = 0.10
#: The same for ratios of two short traced/untraced loops (fewer samples).
FAST_RATIO = 0.25

# Two kinds of estimator (README, "Estimators").  Program speed: the host
# slows in bursts longer than a repeat, so no whole repeat is undisturbed;
# equal work is therefore timed in pieces and each piece costs what its
# least disturbed instances cost.  As experienced: plain pooled statistics.
BEST = "best of interleaved repeats"
PIECES = "sum of the best repeat of each phase"
FAST_STEPS = "mean of the fastest 10% of step samples pooled over repeats"
MEDIAN_SETUPS = "median of the run's set-ups"
POOLED_P50 = "median of all samples pooled over repeats (as experienced on this host)"
POOLED_RATE = "operations / wall pooled over repeats (as experienced on this host)"


def _repeat(run: Run, cycle) -> list[dict]:
    """Cold repeats of `cycle(repeat)` for as long as they fit the run."""
    out: list[dict] = []
    longest = 0.0
    while run.more_repeats(len(out), longest):
        t0 = now()
        out.append(cycle(len(out)))
        longest = max(longest, now() - t0)
        run.calibrate()
    return out


def _pairs(run: Run, cycle, pairs: int, after_pair=None) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repeats, interleaved so both see the same host;
    `after_pair()` adds whatever else must be spread over the same minutes."""
    plain, traced = [], []
    for k in range(pairs):
        plain.append(cycle(2 * k))
        run.calibrate()
        traced.append(cycle(2 * k + 1, traced=True))
        run.calibrate()
        if after_pair is not None:
            after_pair()
    return plain, traced


def _kernel_probes(bundle) -> dict[str, float]:
    """Outside probes on the crust-mantle region of the workload's own mesh."""
    k = adapter.KernelProbe(bundle)
    elastic_s = probes.best_of(k.elastic, 5)
    flops, nbytes = k.flops(), k.bytes_computed()
    return {
        "kernels.probe_elastic_ms": 1e3 * elastic_s,
        "kernels.probe_elastic_b4_ms": 1e3 * probes.best_of(k.elastic_b4, 3),
        "kernels.flops_per_step": flops,
        "kernels.gflops": flops / elastic_s / 1e9,
        "kernels.bytes_computed_per_step": nbytes,
        "kernels.ops_per_byte": flops / nbytes,
        "solver.gather_ms": 1e3 * probes.best_of(k.gather, 5),
        "solver.scatter_add_ms": 1e3 * probes.best_of(k.scatter_add, 5),
    }


def _overhead(traced_s: float, untraced_s: float) -> float:
    return traced_s / untraced_s - 1.0


# =============================================================== serial_atten


def serial_atten(run: Run) -> dict:
    sz = run.sizes
    ev = event_inputs(run.seed)
    params = adapter.make_params(MESH_KEYS, sz.nex, attenuation=True)
    sources = adapter.make_sources(ev["events"][:1])
    stations = adapter.make_stations(ev["stations"])
    steps = sz.serial_steps
    latest: dict = {}  # the last repeat's mesh: holding every repeat's would grow the RSS

    def cycle(repeat: int, traced: bool = False) -> dict:
        mesh_tr = adapter.new_tracer() if traced else None
        solver_tr = adapter.new_tracer() if traced else None
        stamps: list[float] = []
        t0 = now()
        with run.rec.span("mesh.build", repeat) as mesh_id:
            mesh = adapter.build_mesh(params, tracer=mesh_tr)
        t_mesh = now()
        with run.rec.span("solver.setup", repeat):
            solver = adapter.make_solver(mesh, params, sources, stations, tracer=solver_tr)
        t1 = now()
        with run.rec.span("solver.run", repeat) as run_id:
            seis = adapter.run_solver(
                solver, steps, callbacks=[lambda step, s: stamps.append(now())]
            )
        t2 = now()
        if traced:
            run.rec.adopt(mesh_id, repeat, [mesh_tr])
            run.rec.adopt(run_id, repeat, [solver_tr])
        run.ops(steps)
        run.check_seismograms(f"repeat {repeat}", seis)
        latest["mesh"] = mesh
        return {
            "counts": adapter.mesh_counts(mesh),
            "setup_s": t1 - t0,
            "phases_s": [t_mesh - t0, t1 - t_mesh],
            "steps_s": list(np.diff([t1, *stamps])),
            "digest": digest(seis),
            "mesh_id": mesh_id,
            "run_id": run_id,
        }

    if not run.traced:
        reps = _repeat(run, cycle)
        run.check_same("seismograms", [r["digest"] for r in reps])
        elements, _ = reps[0]["counts"]
        pooled = [s for r in reps for s in r["steps_s"]]
        setups = [r["setup_s"] for r in reps]
        # The first step also pays first-touch allocation; the later steps
        # are equal work, so one fast-quantile estimate serves them all.
        first = best([r["steps_s"][0] for r in reps])
        later = fast_mean([s for r in reps for s in r["steps_s"][1:]], FAST)
        phases = [best(p) for p in zip(*(r["phases_s"] for r in reps))]
        return {
            "metrics": {
                "setup_s": value(statistics.median(setups), "s", setups, MEDIAN_SETUPS),
                "time_to_solution_s": value(
                    sum(phases) + first + (steps - 1) * later, "s",
                    [sum(r["phases_s"]) + sum(r["steps_s"]) for r in reps],
                    PIECES + ", first step and fast later steps",
                ),
                "elem_steps_per_s": value(
                    elements / later, "1/s", [elements / s for s in pooled], FAST_STEPS
                ),
                "op_p50_ms": value(
                    1e3 * statistics.median(pooled), "ms", [1e3 * s for s in pooled], POOLED_P50
                ),
                "ops_per_s": value(
                    len(pooled) / sum(pooled), "1/s",
                    [steps / sum(r["steps_s"]) for r in reps], POOLED_RATE,
                ),
            },
            "nulls": {},
        }

    # The attenuation factor: the same mesh and event, 10 extra elastic steps,
    # half of them after each pair so that they see the host the pairs saw.
    elastic = adapter.make_params(MESH_KEYS, sz.nex, attenuation=False)
    elastic_steps: list[float] = []

    def elastic_block() -> None:
        stamps: list[float] = []
        solver = adapter.make_solver(latest["mesh"], elastic, sources, stations)
        t0 = now()
        adapter.run_solver(
            solver, sz.elastic_steps // sz.trace_pairs,
            callbacks=[lambda step, s: stamps.append(now())],
        )
        elastic_steps.extend(np.diff([t0, *stamps])[1:])  # not the first-touch step

    plains, traceds = _pairs(run, cycle, sz.trace_pairs, after_pair=elastic_block)
    run.check_same("seismograms", [r["digest"] for r in plains + traceds])
    plain_steps = [s for r in plains for s in r["steps_s"][1:]]
    traced_steps = [s for r in traceds for s in r["steps_s"][1:]]
    mesh = latest["mesh"]
    elements, points = plains[0]["counts"]
    one_step = adapter.make_solver(mesh, params, sources, stations)
    spans = run.rec.spans
    st = self_times(spans)
    layers = {
        **mesh_layers(st, below(spans, {traceds[0]["mesh_id"]})),
        **step_layers(spans, st, below(spans, {r["run_id"] for r in traceds})),
        **_kernel_probes(mesh),
        "mesh.elements": elements,
        "mesh.global_points": points,
        "solver.setup_s": next(
            sp.duration for sp in spans if sp.name == "solver.setup" and sp.repeat == 1
        ),
        "solver.atten_cost_factor": fast_mean(plain_steps, FAST_RATIO)
        / fast_mean(elastic_steps, FAST_RATIO),
        "solver.alloc_peak_mb_per_step": probes.alloc_peak_mb(
            lambda: adapter.run_solver(one_step, 1)
        ),
        "obs.trace_overhead_frac": _overhead(
            fast_mean(traced_steps, FAST_RATIO), fast_mean(plain_steps, FAST_RATIO)
        ),
    }
    return {"metrics": layers, "nulls": {}}


# =========================================================== cluster6_overlap


def _per_rank(scope, name: str) -> dict[int, float]:
    """Summed duration of the `name` spans in `scope`, per virtual rank."""
    out: dict[int, float] = {}
    for sp in scope:
        if sp.name == name:
            out[sp.rank] = out.get(sp.rank, 0.0) + sp.duration
    return out


def cluster6_overlap(run: Run) -> dict:
    sz = run.sizes
    ev = event_inputs(run.seed)
    params = adapter.make_params(MESH_KEYS, sz.nex, attenuation=True)
    sources = adapter.make_sources(ev["events"][:1])
    stations = adapter.make_stations(ev["stations"])
    steps = sz.cluster_steps
    latest: dict = {}  # the last repeat's world, as in serial_atten

    def cycle(repeat: int, traced: bool = False, overlap: bool = True) -> dict:
        # One tracer per virtual rank; 6 ranks = 6 chunks x NPROC_XI^2 (=1).
        mesh_trs = [adapter.new_tracer(r) for r in range(6)] if traced else None
        t0 = now()
        with run.rec.span("parallel.prepare_world", repeat) as world_id:
            world = adapter.prepare_world(params, sources, stations, overlap, tracers=mesh_trs)
        t1 = now()
        with run.rec.span("parallel.run", repeat) as run_id:
            res = adapter.run_distributed(params, sources, stations, steps, world, trace=traced)
        t2 = now()
        if traced:
            run.rec.adopt(world_id, repeat, mesh_trs)
            run.rec.adopt(run_id, repeat, res["tracers"])
        run.ops(steps)
        run.check_seismograms(f"repeat {repeat}", res["seismograms"])
        latest["world"] = world
        return {
            "counts": [adapter.mesh_counts(sl) for sl in adapter.world_slices(world)],
            "setup_s": t1 - t0,
            "total_s": t2 - t0,
            "loop_s": t2 - t1,
            "digest": digest(res["seismograms"]),
            "messages": res["messages"],
            "bytes": res["bytes"],
            "rank_compute_s": res["rank_compute_s"],
            "world_id": world_id,
            "run_id": run_id,
            "run_start": t1,
        }

    if not run.traced:
        reps = _repeat(run, cycle)
        run.check_same("seismograms", [r["digest"] for r in reps])
        elements = sum(c[0] for c in reps[0]["counts"])
        setups = [r["setup_s"] for r in reps]
        totals = [r["total_s"] for r in reps]
        loops = [r["loop_s"] for r in reps]
        return {
            "metrics": {
                "setup_s": value(statistics.median(setups), "s", setups, MEDIAN_SETUPS),
                "time_to_solution_s": value(best(setups) + best(loops), "s", totals, PIECES),
                "elem_steps_per_s": value(
                    elements * steps / best(loops), "1/s",
                    [elements * steps / s for s in loops], BEST,
                ),
                # Single steps are not visible from outside: an op is run wall / steps.
                "op_p50_ms": value(
                    1e3 * statistics.median(loops) / steps, "ms",
                    [1e3 * s / steps for s in loops], POOLED_P50,
                ),
                "ops_per_s": value(
                    steps * len(loops) / sum(loops), "1/s", [steps / s for s in loops], POOLED_RATE
                ),
            },
            "nulls": {},
        }

    plains, traceds = _pairs(run, cycle, sz.trace_pairs)
    plain, traced = plains[0], traceds[0]
    # Exact per-step message counts: CommStats of S steps minus those of 1
    # (set-up traffic -- mass assembly, allreduces, the gather -- cancels).
    one = adapter.run_distributed(params, sources, stations, 1, latest["world"], trace=False)
    slices = adapter.world_slices(latest["world"])
    blocking = cycle(2 * sz.trace_pairs, traced=True, overlap=False)
    run.calibrate()
    run.check_same("seismograms", [r["digest"] for r in plains + traceds])
    run.check(
        "overlapped == blocking bit-for-bit", traced["digest"] == blocking["digest"]
    )
    per_step = {k: (plain[k] - one[k]) / (steps - 1) for k in ("messages", "bytes")}
    run.check(
        "per-step message counts are whole",
        all(float(v).is_integer() for v in per_step.values()), str(per_step),
    )
    counts = plain["counts"]
    spans = run.rec.spans
    st = self_times(spans)
    scope = below(spans, {traced["run_id"]})
    scope_b = below(spans, {blocking["run_id"]})
    step_total = _per_rank(scope, "solver.timestep")
    post = _per_rank(scope, "halo.post")
    wait = _per_rank(scope, "halo.wait")
    # halo.exchange also wraps the set-up mass assembly: keep only the rounds
    # inside time steps, like the overlapped post/wait pairs.
    steps_b = {sp.id for sp in scope_b if sp.name == "solver.timestep"}
    exchange_b = _per_rank(below(spans, steps_b), "halo.exchange")
    first_run = {}
    for sp in scope:
        if sp.name == "solver.run":
            first_run.setdefault(sp.rank, sp.start - traced["run_start"])
    compute = traced["rank_compute_s"]
    # One rank's solver built alone (no communicator): what each rank's
    # constructor costs, and the allocations of one of its steps.
    with run.rec.span("solver.setup", 1) as setup_id:
        one_rank = adapter.make_solver(slices[0], params)
    layers = {
        **mesh_layers(st, below(spans, {traced["world_id"]})),
        **step_layers(spans, st, scope),
        **_kernel_probes(slices[0]),
        "mesh.elements": sum(c[0] for c in counts),
        "mesh.global_points": sum(c[1] for c in counts),
        "solver.setup_s": next(sp.duration for sp in spans if sp.id == setup_id),
        "parallel.prepare_world_s": next(
            sp.duration for sp in spans
            if sp.name == "parallel.prepare_world" and sp.repeat == 1
        ),
        "parallel.messages_per_step": per_step["messages"],
        "parallel.bytes_per_step": per_step["bytes"],
        "parallel.halo_post_ms": 1e3 * max(post.values()) / steps,
        "parallel.halo_wait_ms": 1e3 * max(wait.values()) / steps,
        "parallel.comm_frac": (sum(post.values()) + sum(wait.values()))
        / sum(step_total.values()),
        "parallel.hidden_frac": 1.0
        - (sum(post.values()) + sum(wait.values())) / sum(exchange_b.values()),
        "parallel.rank_imbalance": max(compute) / statistics.fmean(compute),
        "parallel.rank_setup_s": statistics.fmean(first_run.values()),
        "solver.alloc_peak_mb_per_step": probes.alloc_peak_mb(
            lambda: adapter.run_solver(one_rank, 1)
        ),
        "obs.trace_overhead_frac": _overhead(
            best([r["loop_s"] for r in traceds]), best([r["loop_s"] for r in plains])
        ),
    }
    return {
        "metrics": layers,
        "nulls": {
            "solver.atten_cost_factor": "measured on serial_atten (same mesh, one process)",
        },
    }


# ============================================================ campaign_batch4


def campaign_batch4(run: Run) -> dict:
    sz = run.sizes
    ev = event_inputs(run.seed)
    params = adapter.make_params(MESH_KEYS, sz.nex, attenuation=False)
    event_sources = [[s] for s in adapter.make_sources(ev["events"])]
    stations = adapter.make_stations(ev["stations"])
    steps = sz.campaign_steps
    jobs = adapter.campaign_jobs(params, event_sources, stations, steps)
    event_steps = N_CAMPAIGN_EVENTS * steps
    latest: dict = {}  # the last repeat's mesh and cache, as in serial_atten

    def cold_cache(repeat: int, traced: bool = False):
        tracer = adapter.new_tracer() if traced else None
        cache = adapter.new_mesh_cache(tracer)
        t0 = now()
        with run.rec.span("campaign.mesh_cache_cold", repeat) as cold_id:
            mesh, _hit = adapter.mesh_cache_get(cache, params, tracer)
        setup_s = now() - t0
        if traced:
            run.rec.adopt(cold_id, repeat, [tracer])
        return cache, mesh, setup_s, cold_id

    def cycle(repeat: int, traced: bool = False) -> dict:
        store_dir = run.workdir / f"campaign{repeat}"
        t0 = now()
        cache, mesh, setup_s, cold_id = cold_cache(repeat, traced)
        t1 = now()
        with run.rec.span("campaign.run", repeat) as run_id:
            out = adapter.run_campaign(jobs, store_dir, cache, trace=traced)
        t2 = now()
        if traced:
            run.rec.adopt(run_id, repeat, out["tracers"])
        stats = adapter.mesh_cache_stats(cache)
        groups: dict[str, int] = {}
        for job in out["jobs"]:
            run.ops(1)
            run.check(f"job {job['name']} succeeded", job["succeeded"])
            run.check_seismograms(f"job {job['name']}", job["seismograms"])
            if job["batch_key"] is not None:
                groups[job["batch_key"]] = job["batch_size"]
        counts = {
            "batches": len(groups),
            "batch_events": sum(groups.values()),
            "mesh_cache_hits": stats["hits"],
            "mesh_cache_misses": stats["misses"],
            "stored_records": out["stored_records"],
            "segments": out["jobs"][-1]["segments"],
        }
        run.check(
            "one B=4 group, one mesh build, 5 records, 2 segments",
            counts == {
                "batches": 1, "batch_events": 4, "mesh_cache_hits": 2,
                "mesh_cache_misses": 1, "stored_records": N_CAMPAIGN_EVENTS, "segments": 2,
            },
            str(counts),
        )
        # A batched group shares one solver wall; count it once.
        solver_walls = {j["batch_key"] or j["name"]: j["solver_wall_s"] for j in out["jobs"]}
        latest.update(mesh=mesh, cache=cache)
        return {
            "mesh_counts": adapter.mesh_counts(mesh),
            "setup_s": setup_s,
            "total_s": t2 - t0,
            "loop_s": t2 - t1,
            "overhead_s": (t2 - t1) - sum(solver_walls.values()),
            "digest": digest(np.stack([j["seismograms"] for j in out["jobs"]])),
            "counts": counts,
            "record": out["jobs"][0]["record"],
            "cold_id": cold_id,
            "run_id": run_id,
        }

    if not run.traced:
        reps = _repeat(run, cycle)
        run.check_same("seismograms", [r["digest"] for r in reps])
        run.check_same("counts", [json.dumps(r["counts"], sort_keys=True) for r in reps])
        elements, _ = reps[0]["mesh_counts"]
        # A few more cold set-ups: three repeats alone are few for a median.
        setups = [r["setup_s"] for r in reps]
        setups += [cold_cache(len(reps) + k)[2] for k in range(sz.extra_mesh_builds)]
        totals = [r["total_s"] for r in reps]
        loops = [r["loop_s"] for r in reps]
        return {
            "metrics": {
                "setup_s": value(statistics.median(setups), "s", setups, MEDIAN_SETUPS),
                "time_to_solution_s": value(best(setups) + best(loops), "s", totals, PIECES),
                "elem_steps_per_s": value(
                    elements * event_steps / best(loops), "1/s",
                    [elements * event_steps / s for s in loops], BEST,
                ),
                # Steps are not visible from outside: an op is campaign wall / event-steps.
                "op_p50_ms": value(
                    1e3 * statistics.median(loops) / event_steps, "ms",
                    [1e3 * s / event_steps for s in loops], POOLED_P50,
                ),
                "ops_per_s": value(
                    event_steps * len(loops) / sum(loops), "1/s",
                    [event_steps / s for s in loops], POOLED_RATE,
                ),
            },
            "nulls": {},
        }

    # One pair only: a campaign repeat is the longest of the four.
    (plain,), (traced,) = _pairs(run, cycle, 1)
    run.check_same("seismograms", [plain["digest"], traced["digest"]])
    run.check_same("counts", [json.dumps(r["counts"], sort_keys=True) for r in (plain, traced)])
    mesh = latest["mesh"]
    elements, points = plain["mesh_counts"]
    # The program does not trace inside a batched group, so the per-step
    # layers of the B=4 path come from a directly traced batched solver.
    b4_tr = adapter.new_tracer()
    with run.rec.span("solver.setup_b4", 1) as setup_id:
        b4 = adapter.make_solver(
            mesh, params, stations=stations, event_sources=event_sources[:4], tracer=b4_tr
        )
    with run.rec.span("solver.run_b4", 1) as b4_id:
        adapter.run_solver(b4, steps)
    run.rec.adopt(b4_id, 1, [b4_tr])
    b4_step = adapter.make_solver(mesh, params, stations=stations, event_sources=event_sources[:4])
    probe_dir = run.workdir / "record_probe"
    spans = run.rec.spans
    st = self_times(spans)
    in_run = below(spans, {traced["run_id"]})
    saves = [sp for sp in in_run if sp.name == "checkpoint.save"]
    loads = [sp for sp in in_run if sp.name == "checkpoint.load"]
    layers = {
        **mesh_layers(st, below(spans, {traced["cold_id"]})),
        **step_layers(spans, st, below(spans, {b4_id})),
        **_kernel_probes(mesh),
        "mesh.elements": elements,
        "mesh.global_points": points,
        "solver.setup_s": next(sp.duration for sp in spans if sp.id == setup_id),
        "solver.alloc_peak_mb_per_step": probes.alloc_peak_mb(
            lambda: adapter.run_solver(b4_step, 1)
        ),
        "campaign.mesh_cache_build_s": traced["setup_s"],
        "campaign.mesh_cache_hit_ms": 1e3 * probes.best_of(
            lambda: adapter.mesh_cache_get(latest["cache"], params), 20
        ),
        "campaign.mesh_cache_hits": traced["counts"]["mesh_cache_hits"],
        "campaign.mesh_cache_misses": traced["counts"]["mesh_cache_misses"],
        "campaign.batches": traced["counts"]["batches"],
        "campaign.batch_events": traced["counts"]["batch_events"],
        "campaign.overhead_s": plain["overhead_s"],
        "campaign.store_record_ms": 1e3 * probes.best_of(
            lambda: adapter.store_record(probe_dir, plain["record"]), 20
        ),
        "solver.checkpoint_save_ms": 1e3 * statistics.fmean(sp.duration for sp in saves),
        "solver.checkpoint_load_ms": 1e3 * statistics.fmean(sp.duration for sp in loads),
        "solver.checkpoint_mb": statistics.fmean(sp.counters["bytes"] for sp in saves) / 2**20,
        "obs.trace_overhead_frac": _overhead(traced["loop_s"], plain["loop_s"]),
    }
    return {
        "metrics": layers,
        "nulls": {"solver.atten_cost_factor": "attenuation is off on this workload"},
    }


# ================================================================ service_mix


class _Client:
    """One keep-alive HTTP connection; the harness opens at most two."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)

    def call(self, method: str, path: str, payload=None) -> tuple[int, dict, float]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = now()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw), now() - t0

    def close(self) -> None:
        self.conn.close()


def service_mix(run: Run) -> dict:
    sz = run.sizes
    inp = service_inputs(run.seed, sz)
    defaults = {**MESH_KEYS, "NEX_XI": sz.nex, "ATTENUATION": True}
    identities = [adapter.request_identity(spec, defaults) for spec in inp["targets"]]
    params = adapter.make_params(MESH_KEYS, sz.nex, attenuation=True)
    # The harness's own mesh: only counted and probed, never served.
    mesh_tr = adapter.new_tracer() if run.traced else None
    with run.rec.span("mesh.build", 0) as mesh_id:
        probe_mesh = adapter.build_mesh(params, tracer=mesh_tr)
    if run.traced:
        run.rec.adopt(mesh_id, 0, [mesh_tr])
    elements, points = adapter.mesh_counts(probe_mesh)
    if not run.traced:
        del probe_mesh
    warm = inp["warm"]
    # Client B's hits while A's fresh solve runs are issued in the traced run
    # only: their GIL ping-pong with the solver thread made the untraced
    # `elem_steps_per_s` read 2640 or 4000 by turns (README).
    hits_under_solve = sz.hits_under_solve if run.traced else 0
    expect = {
        "requests": 1 + len(warm) + 1 + hits_under_solve + 1,
        "hits": sum(w["kind"] != "subset" for w in warm) + hits_under_solve,
        "sliced": sum(w["kind"] == "subset" for w in warm),
        "coalesced": 1,
        "misses": 2,
        "errors": 0,
        "corruptions": 0,
        "solver_runs": 2,  # == distinct keys that were not in the store
    }

    def body(target: int, rows: list[int], include_data: bool) -> dict:
        spec = inp["targets"][target]
        return {**spec, "stations": [spec["stations"][i] for i in rows],
                "include_data": include_data}

    def boot(store_dir, repeat: int, traced: bool = False):
        t0 = now()
        with run.rec.span("service.boot", repeat):
            handle = adapter.ServiceHandle(store_dir, defaults, traced=traced)
            client = _Client(handle.port)
            status, _, _ = client.call("GET", "/stats")
        setup_s = now() - t0
        run.ops(1)
        run.check("GET /stats answers 200", status == 200)
        return handle, client, setup_s

    # Input seeding, not set-up: the store every repeat boots over a copy of.
    seeded = run.workdir / "seeded"
    store = adapter.open_store(seeded)
    put_s = []
    for identity, data in zip(identities[1:], inp["synthetic_data"]):
        t0 = now()
        adapter.store_put(store, identity, data, dt=0.1)
        put_s.append(now() - t0)
    del store

    def session(repeat: int, traced: bool, session_id: int) -> dict:
        store_dir = run.workdir / f"store{repeat}"
        shutil.copytree(seeded, store_dir)
        handle, a, setup_s = boot(store_dir, repeat, traced)
        b = _Client(handle.port)
        try:
            roundtrips = [a.call("GET", "/stats")[2] for _ in range(30)] if traced else []
            with run.rec.span("service.cold_request", repeat) as cold_id:
                status, cold, cold_s = a.call("POST", "/simulate", body(0, [0, 1, 2, 3], True))
            run.rec.adopt(cold_id, repeat, handle.solve_tracers())
            run.ops(1)
            run.check("cold request computed", status == 200 and cold["status"] == "computed")
            cold_data = np.asarray(cold["seismograms"])
            run.check_seismograms("cold response", cold_data)
            known = [cold_data, *inp["synthetic_data"]]

            def issue(client: _Client, w: dict) -> tuple[str, float]:
                status, resp, lat = client.call(
                    "POST", "/simulate", body(w["target"], w["rows"], w["kind"] == "data")
                )
                ok = status == 200 and resp["status"] == (
                    "sliced" if w["kind"] == "subset" else "hit"
                ) and resp["exact"]
                if ok and w["kind"] == "data":
                    ok = np.array_equal(
                        np.asarray(resp["seismograms"]), known[w["target"]][w["rows"]]
                    )
                return ("" if ok else f"{w}: {status} {resp.get('status')}"), lat

            # Warm phase: closed loop, two clients, alternate entries each.
            results: list[list] = [[], []]

            def client_loop(k: int, client: _Client) -> None:
                for w in warm[k::2]:
                    with run.rec.span("service.warm_request", repeat):
                        results[k].append((w["kind"], *issue(client, w)))

            threads = [
                threading.Thread(target=client_loop, args=(k, c))
                for k, c in enumerate((a, b))
            ]
            t0 = now()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            warm_s = now() - t0
            done = results[0] + results[1]
            run.ops(len(done))
            for _kind, err, _lat in done:
                if err:
                    run.check("warm request", False, err)
            # One fresh-key cold request from A (the mesh is cached now) while B
            # issues hits, then B asks for the same key and is coalesced onto it.
            fresh_body = {**inp["fresh"], "include_data": True}
            fresh: dict = {}

            def solve() -> None:
                with run.rec.span("service.fresh_request", repeat) as fresh_id:
                    fresh["status"], fresh["resp"], fresh["s"] = a.call(
                        "POST", "/simulate", fresh_body
                    )
                fresh["id"] = fresh_id

            solver_thread = threading.Thread(target=solve)
            solver_thread.start()
            under = [
                issue(b, {"kind": "repeat", "target": 0, "rows": [0, 1, 2, 3]})
                for _ in range(hits_under_solve)
            ]
            # The twin may only follow once the service has registered A's
            # solve (its second miss); earlier it would start a solve of its own.
            deadline = now() + 60.0
            while handle.stats()["misses"] < 2 and now() < deadline:
                time.sleep(0.001)
            status_b, resp_b, _ = b.call("POST", "/simulate", fresh_body)
            solver_thread.join()
            run.rec.adopt(fresh["id"], repeat, handle.solve_tracers())
            run.ops(hits_under_solve + 2)
            for err, _lat in under:
                if err:
                    run.check("hit under solve", False, err)
            run.check(
                "fresh request computed, its twin coalesced, same payload",
                fresh["status"] == 200 and status_b == 200
                and fresh["resp"]["status"] == "computed"
                and resp_b["status"] == "coalesced"
                and fresh["resp"]["seismograms"] == resp_b["seismograms"],
                f"{fresh.get('status')} {status_b} {resp_b.get('status')}",
            )
            stats = handle.stats()
            cache_stats = handle.mesh_cache_stats()
            run.rec.adopt(session_id, repeat, handle.request_tracers())
        finally:
            a.close()
            b.close()
            handle.stop()
        counts = {k: stats[k] for k in expect}
        run.check("service counters as expected", counts == expect, str(counts))
        setups = [setup_s]
        for _ in range(sz.extra_boots):
            handle, client, s = boot(store_dir, repeat)
            client.close()
            handle.stop()
            setups.append(s)
        lat = {kind: [l for k, _e, l in done if k == kind] for kind in ("repeat", "data")}
        return {
            "store_dir": store_dir,
            "setups": setups,
            "cold_s": cold_s,
            "fresh_s": fresh["s"],
            "warm_lat": [l for _k, _e, l in done],
            "lat_by_kind": lat,
            "warm_s": warm_s,
            "under": [l for _e, l in under],
            "roundtrips": roundtrips,
            "stats": stats,
            "cache_stats": cache_stats,
            "counts": counts,
            "digest": digest(cold_data) + digest(np.asarray(fresh["resp"]["seismograms"])),
        }

    def cycle(repeat: int, traced: bool = False) -> dict:
        with run.rec.span("service.session", repeat) as session_id:
            return session(repeat, traced, session_id)

    if not run.traced:
        reps = _repeat(run, cycle)
        run.check_same("cold payloads", [r["digest"] for r in reps])
        run.check_same("counters", [json.dumps(r["counts"], sort_keys=True) for r in reps])
        setups = [s for r in reps for s in r["setups"]]
        colds = [r["cold_s"] for r in reps]
        fresh = [r["fresh_s"] for r in reps]
        pooled = [1e3 * l for r in reps for l in r["warm_lat"]]
        work = elements * sz.service_steps
        return {
            "metrics": {
                "setup_s": value(statistics.median(setups), "s", setups, MEDIAN_SETUPS),
                "time_to_solution_s": value(
                    best(setups) + best(colds), "s",
                    [r["setups"][0] + r["cold_s"] for r in reps], PIECES,
                ),
                "elem_steps_per_s": value(
                    work / best(fresh), "1/s", [work / s for s in fresh],
                    "the fresh-key solve over the cached mesh, " + BEST,
                ),
                "op_p50_ms": value(statistics.median(pooled), "ms", pooled, POOLED_P50),
                "ops_per_s": value(
                    sum(len(r["warm_lat"]) for r in reps) / sum(r["warm_s"] for r in reps),
                    "1/s", [len(r["warm_lat"]) / r["warm_s"] for r in reps], POOLED_RATE,
                ),
            },
            "nulls": {},
        }

    plains, traceds = _pairs(run, cycle, sz.trace_pairs)
    traced = traceds[0]
    run.check_same("cold payloads", [r["digest"] for r in plains + traceds])
    run.check_same(
        "counters", [json.dumps(r["counts"], sort_keys=True) for r in plains + traceds]
    )
    plain_lat = [l for r in plains for l in r["warm_lat"]]
    # The solver set-up as the cold request pays it, probed directly.
    ev = event_inputs(run.seed)
    with run.rec.span("solver.setup", 1) as setup_id:
        one_step = adapter.make_solver(
            probe_mesh, params, adapter.make_sources(ev["events"][:1]),
            adapter.make_stations(ev["stations"]),
        )
    subset = adapter.request_identity(body(1, [0, 2], False), defaults)
    p = adapter.service_probes(adapter.open_store(traced["store_dir"]), identities[1], subset)
    run.check("subset of a stored run slices exactly", p["slice_exact"])
    spans = run.rec.spans
    st = self_times(spans)
    solves = below(spans, {sp.id for sp in spans
                           if sp.name in ("service.cold_request", "service.fresh_request")})
    builds = [sp for sp in solves if sp.name == "cache.build"]
    by_kind = {
        kind: [l for r in plains for l in r["lat_by_kind"][kind]] for kind in ("data", "repeat")
    }
    layers = {
        **mesh_layers(st, below(spans, {mesh_id})),
        **step_layers(spans, st, solves),
        **_kernel_probes(probe_mesh),
        "mesh.elements": elements,
        "mesh.global_points": points,
        "solver.setup_s": next(sp.duration for sp in spans if sp.id == setup_id),
        "solver.alloc_peak_mb_per_step": probes.alloc_peak_mb(
            lambda: adapter.run_solver(one_step, 1)
        ),
        "campaign.mesh_cache_build_s": statistics.fmean(sp.duration for sp in builds),
        "campaign.mesh_cache_hits": traced["cache_stats"]["hits"],
        "campaign.mesh_cache_misses": traced["cache_stats"]["misses"],
        "service.keys_us": 1e6 * probes.best_of(p["keys"], 200),
        "service.store_find_us": 1e6 * probes.best_of(p["store_find"], 200),
        "service.store_load_ms": 1e3 * probes.best_of(p["store_load"], 50),
        "service.store_put_ms": 1e3 * statistics.median(put_s),
        "service.store_scan_s": probes.best_of(p["store_scan"], 5),
        "service.slice_ms": 1e3 * probes.best_of(p["slice"], 50),
        "service.serialize_ms": 1e3 * (
            statistics.median(by_kind["data"]) - statistics.median(by_kind["repeat"])
        ),
        "service.http_roundtrip_ms": 1e3 * statistics.median(traced["roundtrips"]),
        "service.hit_rate": traced["stats"]["hit_rate"],
        "service.sliced": traced["stats"]["sliced"],
        "service.coalesced": traced["stats"]["coalesced"],
        "service.solver_runs": traced["stats"]["solver_runs"],
        "service.hit_under_solve_p50_ms": 1e3 * statistics.median(
            [l for r in plains for l in r["under"]]
        ),
        "service.hit_p99_ms": 1e3 * percentile(plain_lat, 99.0),
        "obs.trace_overhead_frac": _overhead(
            statistics.median([l for r in traceds for l in r["warm_lat"]]),
            statistics.median(plain_lat),
        ),
    }
    return {
        "metrics": layers,
        "nulls": {
            "solver.atten_cost_factor": "measured on serial_atten (same mesh, one process)",
        },
    }


WORKLOAD_FUNCTIONS = {
    "serial_atten": serial_atten,
    "cluster6_overlap": cluster6_overlap,
    "campaign_batch4": campaign_batch4,
    "service_mix": service_mix,
}
