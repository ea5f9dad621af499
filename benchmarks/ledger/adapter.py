"""The only file of the ledger that imports `repro`.

Every call the harness makes into the program goes through a function here,
and each uses only names the packages export from their ``__init__`` (plus
``repro.parallel.launcher.prepare_world``, public but not re-exported).  A
later signature change in the program is then a one-file change to the
benchmark.  Nothing here is timed: the harness times these calls from
outside and hands over plain data (lists, dicts, arrays).
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np

from repro import SimulationParameters
from repro.campaign import JobSpec, MeshCache, ResultStore, WorkerPool, run_batched_campaign
from repro.config import NGLLX
from repro.gll import GLLBasis
from repro.kernels import compute_forces_elastic, compute_geometry, elastic_kernel_flops
from repro.mesh import build_global_mesh
from repro.model import RegionCode
from repro.obs import Tracer
from repro.parallel import run_distributed_simulation
from repro.parallel.launcher import prepare_world as _prepare_world
from repro.service import (
    SeismogramStore,
    ServiceHTTPServer,
    SimulationRequest,
    SimulationService,
    apply_slice,
    derive_keys,
    plan_slice,
)
from repro.solver import (
    GlobalSolver,
    MomentTensorSource,
    Station,
    gather,
    gaussian_stf,
    scatter_add,
)

# ------------------------------------------------------------ plain data in


def make_params(mesh_keys: dict, nex: int, attenuation: bool) -> SimulationParameters:
    base = SimulationParameters().to_dict()
    base.update(mesh_keys)
    base.update({"NEX_XI": nex, "NPROC_XI": 1, "ATTENUATION": attenuation})
    return SimulationParameters.from_dict(base)


def make_sources(events: list[dict]) -> list[MomentTensorSource]:
    return [
        MomentTensorSource(
            position=tuple(e["position"]),
            moment=np.asarray(e["moment"]),
            stf=gaussian_stf(e["half_duration_s"]),
        )
        for e in events
    ]


def make_stations(stations: list[dict]) -> list[Station]:
    return [Station(s["name"], tuple(s["position"])) for s in stations]


def new_tracer(pid: int = 0) -> Tracer:
    return Tracer(pid=pid)


# ------------------------------------------------------------ mesh + solver


def build_mesh(params, tracer=None):
    return build_global_mesh(params, tracer=tracer)


def mesh_counts(bundle) -> tuple[int, int]:
    """(spectral elements, global points) of a global mesh or one slice."""
    regions = bundle.regions.values()
    return sum(r.nspec for r in regions), sum(r.nglob for r in regions)


def make_solver(mesh, params, sources=None, stations=None, event_sources=None, tracer=None):
    return GlobalSolver(
        mesh, params, sources=sources, stations=stations,
        event_sources=event_sources, tracer=tracer,
    )


def run_solver(solver, n_steps: int, callbacks=None) -> np.ndarray:
    return solver.run(n_steps=n_steps, callbacks=callbacks).seismograms


# ---------------------------------------------------------- virtual cluster


def prepare_world(params, sources, stations, overlap: bool, tracers=None):
    """Mesh, partition and assign one world; its `overlap` fixes the schedule
    of every run over it."""
    tracer_of = (lambda rank: tracers[rank]) if tracers is not None else None
    return _prepare_world(
        params, sources=sources, stations=stations, overlap=overlap, tracer_of=tracer_of
    )


def world_slices(world) -> list:
    return world.slices


def run_distributed(params, sources, stations, n_steps, world, trace: bool) -> dict:
    res = run_distributed_simulation(
        params, sources=sources, stations=stations, n_steps=n_steps,
        world=world, overlap=world.overlap, trace=trace,
    )
    return {
        "seismograms": res.seismograms,
        "messages": sum(s.messages_sent for s in res.comm_stats),
        "bytes": sum(s.bytes_sent for s in res.comm_stats),
        "rank_compute_s": list(res.rank_compute_s),
        "tracers": res.tracers or [],
    }


# ----------------------------------------------------------------- campaign


def campaign_jobs(params, event_sources: list[list], stations, n_steps: int) -> list[JobSpec]:
    """Four batchable single-source jobs and one two-segment job."""
    jobs = [
        JobSpec(name=f"event{i}", params=params, sources=srcs,
                stations=stations, n_steps=n_steps)
        for i, srcs in enumerate(event_sources[:-1])
    ]
    jobs.append(
        JobSpec(name="segmented", params=params, sources=event_sources[-1],
                stations=stations, n_steps=n_steps, n_segments=2)
    )
    return jobs


def new_mesh_cache(tracer=None) -> MeshCache:
    """A cold cache; with a tracer its builder records the mesher's spans."""
    if tracer is None:
        return MeshCache()
    return MeshCache(builder=lambda params: build_global_mesh(params, tracer=tracer))


def mesh_cache_get(cache: MeshCache, params, tracer=None):
    return cache.get(params, tracer=tracer)


def mesh_cache_stats(cache: MeshCache) -> dict:
    return cache.stats()


def run_campaign(jobs, store_dir: Path, cache: MeshCache, trace: bool) -> dict:
    results, pool = run_batched_campaign(
        jobs, n_workers=1, store_dir=store_dir, mesh_cache=cache, trace=trace
    )
    return {
        "jobs": [
            {
                "name": r.job.name,
                "succeeded": r.succeeded,
                "seismograms": r.seismograms,
                "solver_wall_s": r.solver_wall_s,
                "segments": r.segment_count,
                "batch_size": r.payload.get("batch_size", 1),
                "batch_key": r.payload.get("batch_key"),
                "record": r.to_record(),
            }
            for r in results
        ],
        "stored_records": len(ResultStore(store_dir).load()),
        "tracers": list(pool.tracers),
    }


def store_record(store_dir: Path, record) -> None:
    ResultStore(store_dir).record(record)


# ------------------------------------------------------------------ service


def request_identity(spec: dict, defaults: dict) -> dict:
    """Content keys and canonical station order of one wire-format spec."""
    request = SimulationRequest.from_spec(spec, defaults=defaults)
    keys = derive_keys(request)
    names = [s.name for s in request.stations]
    return {
        "request": request,
        "keys": keys,
        "canonical_rows": [names.index(s.name) for s in keys.stations],
    }


def open_store(store_dir: Path) -> SeismogramStore:
    """Constructing a store scans its manifest (the service's warm-up path)."""
    return SeismogramStore(store_dir)


def store_put(store: SeismogramStore, identity: dict, data: np.ndarray, dt: float):
    keys = identity["keys"]
    return store.put(
        key=keys.key, physics_key=keys.physics, stations=keys.stations,
        data=data[identity["canonical_rows"]], dt=dt,
    )


def service_probes(store: SeismogramStore, full: dict, subset: dict) -> dict:
    """Callables for the warm path's layers, on a stored run and a subset of it."""
    run = store.find_exact(full["keys"].key)
    data = store.load(run)
    plan = plan_slice(subset["request"].stations, run.stations)
    return {
        "keys": lambda: derive_keys(full["request"]),
        "store_find": lambda: store.find_exact(full["keys"].key),
        "store_load": lambda: store.load(run),
        "store_scan": store.scan,
        "slice": lambda: apply_slice(
            plan_slice(subset["request"].stations, run.stations), data
        ),
        "slice_exact": plan is not None and plan.exact,
    }


class ServiceHandle:
    """`SimulationService` + `ServiceHTTPServer` on localhost in a thread.

    `traced` turns on what the program ships for a traced service: a request
    tracer and a backend pool that records its jobs' spans.
    """

    def __init__(self, store_dir: Path, defaults: dict, traced: bool = False):
        self.request_tracer = Tracer(pid=0) if traced else None
        self.service = SimulationService(
            store=str(store_dir),
            pool=WorkerPool(n_workers=2, trace=True) if traced else None,
            tracer=self.request_tracer,
        )
        self._loop = asyncio.new_event_loop()
        self._server = ServiceHTTPServer(self.service, port=0, defaults=defaults)
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self._server.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=serve, name="ledger-service", daemon=True)
        self._thread.start()
        started.wait()
        self.port = self._server.port

    def stats(self) -> dict:
        return self.service.stats()

    def mesh_cache_stats(self) -> dict:
        return self.service.pool.mesh_cache.stats()

    def solve_tracers(self) -> list:
        """The backend pool's job spans of the last solve (empty when untraced)."""
        return list(self.service.pool.tracers)

    def request_tracers(self) -> list:
        return [self.request_tracer] if self.request_tracer is not None else []

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self._server.stop(), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop")
        self._loop.close()
        self.service.close()


# ------------------------------------------------------------ kernel probes


class KernelProbe:
    """The elastic kernel and its gather/scatter on one crust-mantle region.

    The displacement is a fixed smooth field (no seed: the kernel's cost does
    not depend on values), gathered through the region's own numbering.
    """

    def __init__(self, bundle):
        region = bundle.regions[RegionCode.CRUST_MANTLE]
        self.basis = GLLBasis(NGLLX)
        self.geom = compute_geometry(region.xyz * 1000.0, self.basis)
        self.mu = region.mu
        self.lam = region.kappa - (2.0 / 3.0) * region.mu
        self.ibool = region.ibool
        self.nglob = region.nglob
        self.nspec = region.nspec
        points = np.arange(region.nglob, dtype=np.float64)
        self.u_global = np.stack(
            [np.sin(points * k) for k in (1e-3, 2e-3, 3e-3)], axis=1
        )
        self.u = gather(self.u_global, self.ibool)
        self.u_b4 = np.stack([self.u * (b + 1.0) for b in range(4)], axis=0)
        self.force = self.elastic()

    def elastic(self) -> np.ndarray:
        return compute_forces_elastic(self.u, self.geom, self.lam, self.mu, self.basis)

    def elastic_b4(self) -> np.ndarray:
        return compute_forces_elastic(self.u_b4, self.geom, self.lam, self.mu, self.basis)

    def gather(self) -> np.ndarray:
        return gather(self.u_global, self.ibool)

    def scatter_add(self) -> np.ndarray:
        return scatter_add(self.force, self.ibool, self.nglob)

    def flops(self) -> int:
        return int(elastic_kernel_flops(self.nspec))

    def bytes_computed(self) -> int:
        """Bytes of every array one kernel call must read or write once:
        computed from array sizes, so cache misses are not in it."""
        arrays = (self.u, self.geom.inv_jacobian, self.geom.jweight,
                  self.lam, self.mu, self.force)
        return int(sum(a.nbytes for a in arrays))
