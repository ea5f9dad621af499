"""The simulation service core: request -> key -> store -> queue.

:class:`SimulationService` is the asyncio front-end the ROADMAP's
"millions of users" story asks for.  One request flows::

    normalize -> request_key -------------------------- exact store hit?
                    |                                      (CRC-verified)
                    +-- physics_key ------------- superset run to slice?
                    |                             (exact or interpolated)
                    +-- in-flight identical solve? ----------- coalesce
                    |
                    +-- miss: campaign queue/worker pool -> solve ->
                        store.put -> answer every waiter

Identical concurrent requests are **single-flight**: the first caller
owns the solve (through the existing :class:`~repro.campaign.workers
.WorkerPool`, so retry-with-backoff and typed failure classification
come for free), later callers await the same future and are counted as
``coalesced`` — one solve answers N clients.  A stored payload that
fails CRC verification is quarantined by the store and transparently
recomputed; the client never sees corruption.

Every response carries provenance: how it was answered (``hit`` /
``computed`` / ``coalesced`` / ``sliced``), whether it is ``exact``
(bit-identical to a dedicated solve) and which stored run sourced it.
Latency lands in a ``service.latency_s`` histogram and per-request
``service.request`` spans (hit/miss/coalesce counters attached), so
``python -m repro.service stats`` can report p50/p99.

Interactive misses solve one at a time (a waiting client wants the
lowest latency for *its* event, not campaign throughput).  Bulk
pre-population is different: a warm batch of compatible specs — same
deployment parameters and stations, sources differing — is exactly the
shape the campaign's event-batching scheduler packs into one B-event
solver run (:mod:`repro.campaign.batching`, docs/batching.md)::

    warm specs -> JobSpecs -> plan_batches -> [B-event solve] -> fan out
                                                    |
                                 store.put per event, provenance intact

Operators filling a store offline should drive
:func:`repro.campaign.run_batched_campaign` and ``store.put`` the
fanned-out per-event results; each record's ``batch_size`` /
``batch_index`` metadata survives into the manifest, and bit-identity
guarantees the served seismograms equal dedicated per-event solves.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from ..campaign.mesh_cache import params_hash
from ..campaign.queue import JobSpec
from ..campaign.workers import WorkerPool
from ..chaos.integrity import CacheCorruptionError
from ..obs.aggregate import percentile
from ..obs.tracer import SpanRecord
from ..solver.sources import MomentTensorSource, gaussian_stf
from .keys import RequestKeys, SimulationRequest, derive_keys
from .slicing import apply_slice, plan_slice
from .store import SeismogramStore, StoredRun

__all__ = [
    "ServiceError",
    "BadRequestError",
    "BackendError",
    "TransientBackendError",
    "ServiceResponse",
    "SimulationService",
]

#: JobSpec fields a request's ``job_options`` may set.
_JOB_OPTION_FIELDS = (
    "n_segments",
    "timeout_s",
    "max_attempts",
    "inject_failures",
    "stream_path",
    "supervise",
    "max_recoveries",
)


class ServiceError(RuntimeError):
    """Base class for service-layer failures."""


class BadRequestError(ServiceError):
    """The request is malformed (unknown route, bad JSON, bad shapes)."""


class BackendError(ServiceError):
    """The backend solve failed after the campaign layer's retries.

    ``failure_class`` carries the campaign
    :meth:`~repro.campaign.queue.RetryPolicy.classify` verdict
    (``"transient"`` / ``"fatal"`` / ``"permanent"``, or None when the
    failure never went through the classifier), so the transport tier
    can distinguish retry-worthy exhaustion from deterministic failure.
    """

    def __init__(self, message: str, failure_class: str | None = None):
        super().__init__(message)
        self.failure_class = failure_class


class TransientBackendError(BackendError):
    """The backend failed on *transient* errors only (retries exhausted).

    The same request may well succeed later — the HTTP tier answers 503
    (with Retry-After) instead of a terminal 502, so clients and load
    balancers retry instead of giving up.
    """

    def __init__(self, message: str, failure_class: str | None = "transient"):
        super().__init__(message, failure_class=failure_class)


@dataclass
class ServiceResponse:
    """One answered request, with full provenance.

    ``seismograms`` rows are in the order the client asked for
    (canonicalization is internal); ``source_key`` names the stored run
    that produced the data (equal to ``key`` unless sliced from a
    superset run); ``exact`` is False only for interpolated slices.
    """

    key: str
    status: str  # "hit" | "computed" | "coalesced" | "sliced"
    exact: bool
    source_key: str
    dt: float
    stations: tuple[str, ...]
    seismograms: np.ndarray
    latency_s: float = 0.0

    @property
    def n_steps(self) -> int:
        return int(self.seismograms.shape[1])

    def seismogram(self, name: str) -> np.ndarray:
        """(n_steps, 3) trace of the named station."""
        if name not in self.stations:
            raise KeyError(f"no station named {name!r} in the response")
        return self.seismograms[self.stations.index(name)]

    def to_dict(self, include_data: bool = True) -> dict[str, Any]:
        d: dict[str, Any] = {
            "key": self.key,
            "status": self.status,
            "exact": self.exact,
            "source_key": self.source_key,
            "dt": self.dt,
            "n_steps": self.n_steps,
            "stations": list(self.stations),
            "latency_s": self.latency_s,
        }
        if include_data:
            d["seismograms"] = self.seismograms.tolist()
        return d


def _consume_exception(fut: asyncio.Future) -> None:
    # A single-flight future with no waiters would otherwise log
    # "exception was never retrieved" at GC time.
    if not fut.cancelled():
        fut.exception()


class SimulationService:
    """Simulation-as-a-service: cached, coalesced, campaign-backed.

    Parameters
    ----------
    store : the content-addressed :class:`SeismogramStore` (a directory
        path is accepted and wrapped).
    pool : campaign :class:`WorkerPool` used on cache miss; one is
        created if None (sharing ``metrics``).  The pool's mesh cache
        amortises the mesh across requests exactly as in campaigns.
    compute : injectable solve hook ``(request, keys) -> (data, dt)``
        returning seismograms in canonical station order; defaults to
        the campaign-queue backend.  Tests use this to count (and fake)
        solver invocations.
    metrics : optional registry receiving ``service.*`` counters and
        the ``service.latency_s`` histogram.
    tracer : optional :class:`~repro.obs.tracer.Tracer`; each request
        appends one ``service.request`` span with outcome counters.
    n_backend_workers : executor threads driving backend solves (the
        per-solve worker threads live inside the pool).
    allow_slicing : disable to force every non-exact request to the
        solver (ablation and debugging switch).
    """

    def __init__(
        self,
        store: SeismogramStore | str,
        pool: WorkerPool | None = None,
        compute: Callable[..., tuple[np.ndarray, float]] | None = None,
        metrics=None,
        tracer=None,
        n_backend_workers: int = 2,
        allow_slicing: bool = True,
    ):
        self.store = (
            store
            if isinstance(store, SeismogramStore)
            else SeismogramStore(store, metrics=metrics)
        )
        self.metrics = metrics
        self.tracer = tracer
        self.pool = pool if pool is not None else WorkerPool(
            n_workers=n_backend_workers, metrics=metrics
        )
        #: The injected solve hook, None for the campaign-queue backend —
        #: not the bound method: a service that referred to itself would,
        #: with its pool's cached mesh (~22 MiB at NEX 8), outlive
        #: ``close()`` until the next full garbage collection.
        self.compute = compute
        self.allow_slicing = allow_slicing
        self._executor = ThreadPoolExecutor(
            max_workers=n_backend_workers, thread_name_prefix="service-solve"
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._seq = itertools.count()
        self._counter_lock = threading.Lock()
        self.counts: dict[str, int] = {
            name: 0
            for name in (
                "requests", "hits", "misses", "coalesced", "sliced",
                "corruptions", "errors",
            )
        }
        self.solver_runs = 0
        self._latencies: list[float] = []

    # -- accounting ---------------------------------------------------------

    def _bump(self, name: str, value: int = 1) -> None:
        with self._counter_lock:
            self.counts[name] = self.counts.get(name, 0) + value
            if self.metrics is not None:
                self.metrics.counter(f"service.{name}").add(value)

    def _observe(self, response: ServiceResponse, start: float) -> None:
        response.latency_s = time.perf_counter() - start
        with self._counter_lock:
            self._latencies.append(response.latency_s)
            if self.metrics is not None:
                self.metrics.histogram("service.latency_s").observe(
                    response.latency_s
                )
        if self.tracer is not None:
            self.tracer.records.append(
                SpanRecord(
                    name="service.request",
                    start_s=start - self.tracer.epoch,
                    duration_s=response.latency_s,
                    depth=0,
                    parent=-1,
                    pid=self.tracer.pid,
                    tid=self.tracer.tid,
                    counters={
                        "hit": 1.0 if response.status == "hit" else 0.0,
                        "coalesced":
                            1.0 if response.status == "coalesced" else 0.0,
                        "sliced": 1.0 if response.status == "sliced" else 0.0,
                        "exact": 1.0 if response.exact else 0.0,
                    },
                )
            )

    # -- request path -------------------------------------------------------

    async def handle(self, request: SimulationRequest) -> ServiceResponse:
        """Answer one request (the front door; see the module diagram)."""
        start = time.perf_counter()
        keys = derive_keys(request)
        self._bump("requests")
        try:
            response = await self._answer(request, keys)
        except BaseException:
            self._bump("errors")
            raise
        self._observe(response, start)
        return response

    async def _answer(
        self, request: SimulationRequest, keys: RequestKeys
    ) -> ServiceResponse:
        # 1. Exact content-address hit (CRC-verified; corruption falls
        #    through to a recompute).
        run = self.store.find_exact(keys.key)
        if run is not None:
            # Read off-loop: a multi-MB cached run must not stall
            # every other in-flight request for its read time (R9).
            data = await asyncio.to_thread(self._load_verified, run)
            if data is not None:
                self._bump("hits")
                return self._respond(request, keys, data, run.dt, "hit")
        # 2. Superset reuse: a stored run with the same wavefield whose
        #    receivers contain (or bracket) the requested stations.
        if self.allow_slicing:
            # Candidate scan is in-memory but the winning candidate is
            # read and sliced — also off-loop (R9).
            sliced = await asyncio.to_thread(self._try_slice, request, keys)
            if sliced is not None:
                self._bump("sliced")
                return sliced
        # 3. Identical solve already in flight: wait for it.
        existing = self._inflight.get(keys.key)
        if existing is not None:
            self._bump("coalesced")
            data, dt = await existing
            return self._respond(request, keys, data, dt, "coalesced")
        # 4. Miss: this caller owns the solve; everyone arriving before
        #    it finishes awaits the same future.
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        fut.add_done_callback(_consume_exception)
        self._inflight[keys.key] = fut
        self._bump("misses")
        try:
            data, dt = await loop.run_in_executor(
                self._executor, self._compute_and_store, request, keys
            )
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
            raise
        else:
            if not fut.done():
                fut.set_result((data, dt))
        finally:
            self._inflight.pop(keys.key, None)
        return self._respond(request, keys, data, dt, "computed")

    def _try_slice(
        self, request: SimulationRequest, keys: RequestKeys
    ) -> ServiceResponse | None:
        for cand in self.store.find_candidates(keys.physics):
            if cand.key == keys.key:
                continue  # the exact entry was already tried (or corrupt)
            plan = plan_slice(request.stations, cand.stations)
            if plan is None:
                continue
            data = self._load_verified(cand)
            if data is None:
                continue
            return ServiceResponse(
                key=keys.key,
                status="sliced",
                exact=plan.exact,
                source_key=cand.key,
                dt=cand.dt,
                stations=tuple(s.name for s in request.stations),
                seismograms=apply_slice(plan, data),
            )
        return None

    def _load_verified(self, run: StoredRun) -> np.ndarray | None:
        """Load a stored run; corruption counts and reads as a miss."""
        try:
            return self.store.load(run)
        except CacheCorruptionError:
            # The store already quarantined and deregistered the file.
            self._bump("corruptions")
            return None

    def _respond(
        self,
        request: SimulationRequest,
        keys: RequestKeys,
        canonical_data: np.ndarray,
        dt: float,
        status: str,
    ) -> ServiceResponse:
        """Map canonical-order rows back to the client's station order."""
        index = {s.name: i for i, s in enumerate(keys.stations)}
        rows = np.stack(
            [canonical_data[index[s.name]] for s in request.stations], axis=0
        )
        return ServiceResponse(
            key=keys.key,
            status=status,
            exact=True,
            source_key=keys.key,
            dt=float(dt),
            stations=tuple(s.name for s in request.stations),
            seismograms=rows,
        )

    # -- backend ------------------------------------------------------------

    def _compute_and_store(
        self, request: SimulationRequest, keys: RequestKeys
    ) -> tuple[np.ndarray, float]:
        """Executor-thread body of a miss: solve, verify shape, persist."""
        data, dt = (self.compute or self._campaign_compute)(request, keys)
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != len(keys.stations):
            raise BackendError(
                f"backend returned seismograms of shape {data.shape} for "
                f"{len(keys.stations)} stations"
            )
        with self._counter_lock:
            self.solver_runs += 1
        self.store.put(
            key=keys.key,
            physics_key=keys.physics,
            stations=keys.stations,
            data=data,
            dt=float(dt),
            params_hash=params_hash(request.params),
        )
        return data, float(dt)

    def _campaign_compute(
        self, request: SimulationRequest, keys: RequestKeys
    ) -> tuple[np.ndarray, float]:
        """Default backend: one JobSpec through the campaign pool.

        The pool brings the campaign machinery with it — shared
        content-addressed mesh cache, per-job timeout, retry with
        backoff over typed transient failures (including drill-injected
        faults), provenance if the pool has a store.
        """
        sources = None
        if request.source is not None:
            spec = request.source
            sources = [
                MomentTensorSource(
                    position=tuple(spec["position"]),
                    moment=spec["moment_scale"] * np.eye(3),
                    stf=gaussian_stf(spec["half_duration_s"]),
                    time_shift=spec["time_shift"],
                )
            ]
        options = {
            name: request.job_options[name]
            for name in _JOB_OPTION_FIELDS
            if name in request.job_options
        }
        job = JobSpec(
            name=f"service-{keys.key}-{next(self._seq)}",
            params=request.params,
            sources=sources,
            stations=list(keys.stations),
            n_steps=request.n_steps,
            **options,
        )
        result = self.pool.run([job])[0]
        if not result.succeeded or result.seismograms is None:
            message = (
                f"backend solve for request {keys.key} failed after "
                f"{result.attempts} attempt(s): {result.error} "
                f"[{result.failure_class}]"
            )
            # A transiently-failed job (rank timeout, lost rank, injected
            # fault) exhausted its retry budget but is not deterministic:
            # surface the distinction so HTTP can answer 503, not 502.
            if result.failure_class == "transient":
                raise TransientBackendError(message)
            raise BackendError(message, failure_class=result.failure_class)
        return result.seismograms, result.dt

    # -- operator surface ---------------------------------------------------

    async def warm(
        self, requests: list[SimulationRequest]
    ) -> list[ServiceResponse]:
        """Pre-answer a batch of requests (populates the store)."""
        return list(
            await asyncio.gather(*(self.handle(r) for r in requests))
        )

    def stats(self) -> dict[str, Any]:
        """Counter snapshot plus latency percentiles (the CLI table).

        ``hit_rate`` counts every request answered without a *new*
        solve — exact hits, slices, and coalesced waiters — over all
        requests.
        """
        with self._counter_lock:
            counts = dict(self.counts)
            solver_runs = self.solver_runs
            latencies = list(self._latencies)
        requests = counts["requests"]
        served = counts["hits"] + counts["sliced"] + counts["coalesced"]
        return {
            **counts,
            "solver_runs": solver_runs,
            "hit_rate": served / requests if requests else 0.0,
            "latency_p50_s": percentile(latencies, 50.0),
            "latency_p99_s": percentile(latencies, 99.0),
            "latency_mean_s": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "store": self.store.stats(),
        }

    def close(self) -> None:
        """Shut down the backend executor (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
