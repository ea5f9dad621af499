"""Virtual MPI: communicator API with message accounting.

The execution environment has no MPI; this module provides an in-process
substitute with mpi4py-like semantics.  Rank programs run as Python
threads (NumPy releases the GIL, so element work overlaps) and communicate
through thread-safe mailboxes.  Every operation is accounted — message
counts, byte volumes, and wall-clock time blocked in communication — which
is exactly the data the paper's IPM measurements provide for the
communication model of Figure 6.

Two point-to-point styles are offered, mirroring MPI:

* **blocking**: :meth:`VirtualComm.send` / :meth:`VirtualComm.recv` —
  the send is eager (buffered), the receive blocks until matched;
* **non-blocking**: :meth:`VirtualComm.isend` / :meth:`VirtualComm.irecv`
  return request handles completed by ``wait``/:meth:`VirtualComm.waitall`.
  This is what every halo round uses; the comm/compute-overlapped time
  loop computes interior elements between the post and the wait.
  Byte/message accounting is identical to the blocking path (sends are
  counted when posted, receives when completed); only the *blocked* time
  inside ``wait`` lands in ``comm_time_s``, so overlap genuinely shrinks
  the measured communication time.

A receive that never completes raises the typed
:class:`~repro.parallel.errors.RankTimeoutError`.  The per-receive
deadline defaults to the cluster's program timeout (``VirtualCluster.run
(..., timeout=...)``) rather than a private constant, so a single lost
message and a hung program surface through the same typed error.
Barriers carry the same deadline: a rank whose peers never arrive raises
:class:`RankTimeoutError` instead of blocking forever.

The communicator seam has three optional collaborators, all off by
default and all consulted by :class:`VirtualComm` itself — no wrapper
stands between a rank program and its communicator:

* ``VirtualCluster(fault_plan=...)`` — a seeded
  :class:`~repro.chaos.faults.FaultPlan` that drops, delays,
  duplicates or bit-flips messages and crashes or stalls chosen ranks,
  without the rank programs (or the halo exchanger) changing at all;
* ``VirtualCluster(sanitize=True)`` — a
  :class:`~repro.analysis.sanitizer.CommSanitizer` recording messages
  and request lifecycles; after :meth:`VirtualCluster.run` the
  cluster's ``sanitizer_report`` lists unmatched sends, never-completed
  requests, double-waits, tag collisions and — on a receive timeout —
  the rank wait-for graph with any deadlock cycle;
* ``VirtualCluster(failure_detector=...)`` — a
  :class:`~repro.resilience.detector.FailureDetector` fed heartbeats by
  every operation, which turns a receive blocked on a dead peer into a
  :class:`~repro.parallel.errors.RankDeathError` within one probe
  interval.

Every operation consults them in one fixed order (:meth:`VirtualComm.
_send` and :meth:`VirtualComm._complete_recv`): **chaos decides first**
(crash, stall, delay, bit-flip, drop, duplicate), **then the sanitizer
records, then the detector beats, then the mailbox**.  The order is the
design:

* chaos first, so the sanitizer observes the disturbed message stream
  actually on the wire (an injected drop or duplicate shows up as the
  protocol violation it is) and the detector sees injected failures
  exactly like real ones;
* the detector's probing lives in the mailbox wait itself
  (:meth:`VirtualCluster._match` waits one probe interval at a time and
  asks :meth:`~repro.resilience.detector.FailureDetector.probe` between
  slices), so an expired probe slice never reaches the sanitizer as a
  spurious receive timeout — only the full deadline does.

A request carries the sanitizer's tracking id (``None`` when the
cluster is not sanitized), so ``isend``/``irecv`` handles are tracked
whatever else is armed.  With nothing armed each operation pays three
``is None`` checks.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import tags
from .errors import RankDeathError, RankTimeoutError

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from ..analysis.sanitizer import SanitizerReport
    from ..chaos.faults import FaultPlan
    from ..resilience.detector import FailureDetector

__all__ = [
    "CommStats",
    "Request",
    "SendRequest",
    "RecvRequest",
    "VirtualComm",
    "VirtualCluster",
]

#: Reduction operators :meth:`VirtualComm.allreduce` understands.
ALLREDUCE_OPS = ("sum", "min", "max")


@dataclass
class CommStats:
    """Per-rank communication accounting (the IPM-analog raw data)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    comm_time_s: float = 0.0
    barriers: int = 0
    allreduces: int = 0


class Request:
    """Handle of one non-blocking operation (MPI_Request analogue).

    ``track`` is the comm sanitizer's id for the request, ``None`` when
    the cluster is not sanitized; a tracked wait reports its start and
    its completion (double-wait and leaked-request checks).
    """

    __slots__ = ("_comm", "_track")

    def __init__(self, comm: "VirtualComm", track: int | None = None):
        self._comm = comm
        self._track = track

    def wait(self, timeout: float | None = None):
        if self._track is None:
            return self._complete(timeout)
        sanitizer = self._comm._cluster.sanitizer
        sanitizer.on_wait(self._track, self._comm.rank)
        result = self._complete(timeout)
        sanitizer.on_request_complete(self._track)
        return result

    def _complete(self, timeout: float | None):
        raise NotImplementedError

    @property
    def done(self) -> bool:
        raise NotImplementedError


class SendRequest(Request):
    """Completed-at-post send handle: virtual sends are eager (buffered),
    so ``isend`` finishes immediately; the handle exists for API symmetry
    (``waitall`` over mixed send/recv request lists)."""

    __slots__ = ()

    def _complete(self, timeout: float | None) -> None:
        return None

    @property
    def done(self) -> bool:
        return True


class RecvRequest(Request):
    """In-flight receive: ``wait()`` blocks until the matching message
    arrives, accounts it, and returns the payload (idempotent)."""

    __slots__ = ("source", "tag", "_data")

    def __init__(
        self,
        comm: "VirtualComm",
        source: int,
        tag: int,
        track: int | None = None,
    ):
        super().__init__(comm, track)
        self.source = source
        self.tag = tag
        self._data: np.ndarray | None = None

    def _complete(self, timeout: float | None) -> np.ndarray:
        if self._data is None:
            self._data = self._comm._complete_recv(self.source, self.tag, timeout)
        return self._data

    @property
    def done(self) -> bool:
        return self._data is not None


class VirtualComm:
    """One rank's endpoint in a :class:`VirtualCluster`."""

    def __init__(self, cluster: "VirtualCluster", rank: int):
        self._cluster = cluster
        self.rank = rank
        self.size = cluster.size
        self.stats = CommStats()

    # -- point to point -----------------------------------------------------

    def send(
        self, dest: int, payload: np.ndarray, tag: int = tags.DEFAULT
    ) -> None:
        """Eager (buffered) send: copies the payload into the mailbox."""
        self._send(dest, payload, tag, "send")

    def recv(
        self, source: int, tag: int = tags.DEFAULT, timeout: float | None = None
    ) -> np.ndarray:
        """Blocking receive matched on (source, tag).

        ``timeout=None`` uses the cluster's per-receive deadline (which
        defaults to the program timeout of :meth:`VirtualCluster.run`);
        expiry raises :class:`~repro.parallel.errors.RankTimeoutError`.
        """
        return self._complete_recv(source, tag, timeout)

    def isend(
        self, dest: int, payload: np.ndarray, tag: int = tags.DEFAULT
    ) -> SendRequest:
        """Non-blocking send.  Virtual sends are eager, so the returned
        request is already complete; accounting matches :meth:`send`."""
        return SendRequest(self, self._send(dest, payload, tag, "isend"))

    def irecv(self, source: int, tag: int = tags.DEFAULT) -> RecvRequest:
        """Post a non-blocking receive; complete it with ``wait()``.

        Nothing is matched (and nothing accounted) until the wait — the
        overlap pattern is ``req = irecv(...); <compute>; data = req.wait()``
        so only genuinely blocked time lands in ``comm_time_s``.
        """
        sanitizer = self._cluster.sanitizer
        track = None
        if sanitizer is not None:
            track = sanitizer.on_request(self.rank, "irecv", source, tag)
        return RecvRequest(self, source, tag, track)

    def waitall(
        self, requests: list[Request], timeout: float | None = None
    ) -> list[np.ndarray | None]:
        """Complete every request, returning their results in order
        (payload arrays for receives, ``None`` for sends)."""
        return [req.wait(timeout) for req in requests]

    def _send(
        self, dest: int, payload: np.ndarray, tag: int, op: str
    ) -> int | None:
        """The one send path (``op`` is ``send`` or ``isend``), in the
        module's fixed order: chaos, sanitizer, detector, mailbox.
        Returns the sanitizer's tracking id of an ``isend`` request."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        if dest == self.rank:
            raise ValueError("self-send is not supported")
        cluster = self._cluster
        copies = (payload,)
        if cluster.fault_plan is not None:
            copies = cluster.fault_plan.on_send(self.rank, dest, tag, payload)
        sanitizer = cluster.sanitizer
        track = None
        if sanitizer is not None and op == "isend":
            track = sanitizer.on_request(self.rank, op, dest, tag)
        detector = cluster.failure_detector
        for message in copies:
            if sanitizer is not None:
                sanitizer.on_send(self.rank, dest, tag)
            if detector is not None:
                detector.beat(self.rank)
            data = np.array(message, copy=True)
            cluster._mailboxes[dest].put((self.rank, tag, data))
            self.stats.messages_sent += 1
            self.stats.bytes_sent += data.nbytes
        return track

    def _complete_recv(
        self, source: int, tag: int, timeout: float | None
    ) -> np.ndarray:
        """The one receive path, in the same order as :meth:`_send`."""
        cluster = self._cluster
        if cluster.fault_plan is not None:
            cluster.fault_plan.on_recv(self.rank, source, tag)
        sanitizer = cluster.sanitizer
        detector = cluster.failure_detector
        effective = timeout if timeout is not None else cluster.recv_timeout_s
        if sanitizer is not None:
            sanitizer.on_wait_begin(self.rank, source, tag)
        t0 = time.perf_counter()
        try:
            data = cluster._match(self.rank, source, tag, effective, detector)
        except TimeoutError as exc:
            if detector is not None:
                # Dead peer or straggler?  Arbitrated by heartbeat age.
                report = detector.escalate_timeout(
                    source, self.rank, effective,
                    f"recv(source={source}, tag={tag})",
                )
                if report is not None:
                    raise RankDeathError(source, exc, report=report) from None
            if sanitizer is not None:
                sanitizer.on_timeout(self.rank, source, tag)
            raise RankTimeoutError(self.rank, exc) from exc
        finally:
            self.stats.comm_time_s += time.perf_counter() - t0
            if sanitizer is not None:
                sanitizer.on_wait_end(self.rank)
        if sanitizer is not None:
            sanitizer.on_recv_complete(self.rank, source, tag)
        if detector is not None:
            detector.beat(self.rank)
        self.stats.messages_received += 1
        self.stats.bytes_received += data.nbytes
        return data

    # -- collectives -------------------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank arrives — bounded by the same per-receive
        deadline as :meth:`recv`, so a hung or dead peer raises
        :class:`~repro.parallel.errors.RankTimeoutError` instead of
        wedging this rank forever.
        """
        if self._cluster.failure_detector is not None:
            self._cluster.failure_detector.beat(self.rank)
        deadline = self._cluster.recv_timeout_s
        t0 = time.perf_counter()
        try:
            self._cluster._barrier.wait(timeout=deadline)
        except threading.BrokenBarrierError:
            elapsed = time.perf_counter() - t0
            self.stats.comm_time_s += elapsed
            if elapsed >= deadline - 1e-3:
                # Our own wait expired: the peers never arrived.
                raise RankTimeoutError(
                    self.rank,
                    TimeoutError(
                        f"rank {self.rank}: barrier not reached by all "
                        f"ranks within {deadline}s"
                    ),
                ) from None
            # Broken by another rank's abort — a secondary effect of the
            # first real failure; re-raise so run() can filter it out.
            raise
        self.stats.comm_time_s += time.perf_counter() - t0
        self.stats.barriers += 1

    def allreduce(self, value: np.ndarray | float, op: str = "sum"):
        """Allreduce over all ranks (sum/min/max), returning the same type.

        Unknown ``op`` strings are rejected with :class:`ValueError`
        before any rank-coordination happens, so a typo cannot leave the
        other ranks stuck at the collect barrier.
        """
        if op not in ALLREDUCE_OPS:
            raise ValueError(
                f"allreduce op must be one of {ALLREDUCE_OPS}, got {op!r}"
            )
        if self._cluster.failure_detector is not None:
            self._cluster.failure_detector.beat(self.rank)
        t0 = time.perf_counter()
        result = self._cluster._allreduce(self.rank, np.asarray(value), op)
        self.stats.comm_time_s += time.perf_counter() - t0
        self.stats.allreduces += 1
        if np.isscalar(value) or np.asarray(value).ndim == 0:
            return float(result)
        return result

    def gather(self, value, root: int = 0):
        """Gather arbitrary per-rank objects at the root (returns list or None).

        An out-of-range ``root`` is rejected with :class:`ValueError`
        before coordination, mirroring :meth:`allreduce`'s op check.
        """
        if not 0 <= root < self.size:
            raise ValueError(f"invalid gather root {root} for size {self.size}")
        if self._cluster.failure_detector is not None:
            self._cluster.failure_detector.beat(self.rank)
        t0 = time.perf_counter()
        out = self._cluster._gather(self.rank, value, root)
        self.stats.comm_time_s += time.perf_counter() - t0
        return out


class VirtualCluster:
    """A set of ranks executing one SPMD program on threads.

    Usage::

        cluster = VirtualCluster(6)
        results = cluster.run(lambda comm: program(comm, ...))

    ``run`` returns the per-rank return values; ``stats`` afterwards holds
    the per-rank :class:`CommStats`.

    ``recv_timeout_s`` sets the per-receive deadline for every rank's
    blocking/non-blocking receives; when left ``None`` it follows the
    program timeout passed to :meth:`run`, so a lost message can never
    outlive the run it belongs to.
    """

    #: Default program timeout of :meth:`run`, shared with the per-receive
    #: deadline when neither is overridden.
    DEFAULT_TIMEOUT_S = 600.0

    def __init__(
        self,
        size: int,
        recv_timeout_s: float | None = None,
        fault_plan: "FaultPlan | None" = None,
        sanitize: bool = False,
        failure_detector: "FailureDetector | None" = None,
    ):
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        if recv_timeout_s is not None and recv_timeout_s <= 0:
            raise ValueError(
                f"recv_timeout_s must be positive, got {recv_timeout_s}"
            )
        self.size = size
        #: Optional :class:`repro.chaos.faults.FaultPlan` whose faults every
        #: rank's comm injects.  Firing state lives on the plan, so a
        #: retried run with the same plan sees exhausted faults stay quiet.
        self.fault_plan = fault_plan
        #: Shared :class:`~repro.analysis.sanitizer.CommSanitizer` when
        #: ``sanitize=True``; every rank's comm feeds it, and :meth:`run`
        #: finalizes it into :attr:`sanitizer_report`.
        self.sanitizer = None
        if sanitize:
            # Lazy import: the analysis package is an optional layer on
            # top of the comm core, not a dependency of it.
            from ..analysis.sanitizer import CommSanitizer

            self.sanitizer = CommSanitizer(size)
        #: :class:`~repro.analysis.sanitizer.SanitizerReport` of the most
        #: recent :meth:`run` (``None`` unless ``sanitize=True``).
        self.sanitizer_report: "SanitizerReport | None" = None
        #: Optional :class:`~repro.resilience.detector.FailureDetector`.
        #: When set, every rank's comm feeds it heartbeats and receives
        #: probe it between wait slices, and the runner confirms abnormal
        #: rank terminations to it.
        self.failure_detector = failure_detector
        if failure_detector is not None and failure_detector.size != size:
            raise ValueError(
                f"failure detector sized for {failure_detector.size} ranks "
                f"cannot monitor a {size}-rank cluster"
            )
        self._recv_timeout_s = recv_timeout_s
        self._run_timeout_s = self.DEFAULT_TIMEOUT_S
        self._mailboxes = [queue.Queue() for _ in range(size)]
        self._unmatched: list[list[tuple[int, int, np.ndarray]]] = [
            [] for _ in range(size)
        ]
        self._barrier = threading.Barrier(size)
        self._reduce_lock = threading.Lock()
        self._reduce_buffer: dict[str, object] = {}
        # Two distinct barriers delimit the collect and read phases of each
        # collective; cleanup happens strictly between a rank's read-phase
        # barrier and its next collect, which makes reuse race-free.
        self._collect_barrier = threading.Barrier(size)
        self._read_barrier = threading.Barrier(size)
        self._gather_buffer: dict[int, list] = {}
        self.stats: list[CommStats] = [CommStats() for _ in range(size)]

    @property
    def recv_timeout_s(self) -> float:
        """Effective per-receive deadline: the configured value, else the
        program timeout of the current/most recent :meth:`run`."""
        if self._recv_timeout_s is not None:
            return self._recv_timeout_s
        return self._run_timeout_s

    # -- internals ---------------------------------------------------------------

    def _match(
        self,
        rank: int,
        source: int,
        tag: int,
        timeout: float,
        detector: "FailureDetector | None" = None,
    ) -> np.ndarray:
        # With a detector the wait runs in probe slices: each empty slice
        # asks the detector whether the peer died or departed meanwhile.
        slice_s = timeout
        if detector is not None:
            detector.probe(rank, source, tag, waited=False)
            slice_s = detector.probe_interval_s
        # Check already-drained messages first.
        pending = self._unmatched[rank]
        for i, (src, t, data) in enumerate(pending):
            if src == source and t == tag:
                pending.pop(i)
                return data
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {rank}: no message from {source} tag {tag} "
                    f"within {timeout}s"
                )
            try:
                src, t, data = self._mailboxes[rank].get(
                    timeout=min(slice_s, remaining)
                )
            except queue.Empty:
                if detector is not None:
                    detector.probe(rank, source, tag, waited=True)
                continue
            if src == source and t == tag:
                return data
            pending.append((src, t, data))

    def _allreduce(self, rank: int, value: np.ndarray, op: str) -> np.ndarray:
        if op not in ALLREDUCE_OPS:
            raise ValueError(f"unsupported allreduce op {op!r}")
        if self.size == 1:
            return value.copy()
        with self._reduce_lock:
            self._reduce_buffer.setdefault("values", []).append(value)
        self._collect_barrier.wait()
        with self._reduce_lock:
            if "result" not in self._reduce_buffer:
                stack = np.stack(self._reduce_buffer.pop("values"))
                if op == "sum":
                    result = stack.sum(axis=0)
                elif op == "min":
                    result = stack.min(axis=0)
                else:
                    result = stack.max(axis=0)
                self._reduce_buffer["result"] = result
            result = np.array(self._reduce_buffer["result"], copy=True)
        self._read_barrier.wait()
        # Safe: every rank has copied the result; the next round's result
        # cannot be created before all ranks pass the next collect barrier,
        # which each rank only reaches after this pop.
        with self._reduce_lock:
            self._reduce_buffer.pop("result", None)
        return result

    def _gather(self, rank: int, value, root: int):
        if self.size == 1:
            return [value] if rank == root else [value]
        with self._reduce_lock:
            self._gather_buffer.setdefault(root, [None] * self.size)
            self._gather_buffer[root][rank] = value
        self._collect_barrier.wait()
        out = None
        if rank == root:
            with self._reduce_lock:
                out = list(self._gather_buffer[root])
        self._read_barrier.wait()
        with self._reduce_lock:
            self._gather_buffer.pop(root, None)
        return out

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        program: Callable[["VirtualComm"], object],
        timeout: float | None = None,
    ) -> list:
        """Run ``program(comm)`` on every rank; returns per-rank results.

        Any rank raising propagates the first exception after all threads
        finish or the timeout expires.  ``timeout`` (default
        :data:`DEFAULT_TIMEOUT_S`) also becomes the per-receive deadline
        unless the cluster was built with an explicit ``recv_timeout_s``.
        """
        if timeout is None:
            timeout = self.DEFAULT_TIMEOUT_S
        self._run_timeout_s = timeout
        results: list = [None] * self.size
        errors: list = [None] * self.size

        def runner(rank: int) -> None:
            comm = VirtualComm(self, rank)
            try:
                results[rank] = program(comm)
            # Rank isolation: the first real failure is re-raised after all
            # threads join, so nothing is swallowed here.
            except BaseException as exc:  # repro: disable=R5
                errors[rank] = exc
                if self.failure_detector is not None:
                    if not isinstance(
                        exc, (threading.BrokenBarrierError, RankDeathError)
                    ):
                        # Confirm the death (secondary failures — broken
                        # barriers, observed peer deaths — are not deaths
                        # of *this* rank and must not be filed as such).
                        self.failure_detector.mark_dead(rank, exc)
                    # Either way this rank's program is gone: peers
                    # probing it fail fast (citing the primary death)
                    # instead of waiting out their full recv deadline.
                    self.failure_detector.mark_departed(rank)
                # Break the barriers so other ranks do not hang forever.
                self._barrier.abort()
                self._collect_barrier.abort()
                self._read_barrier.abort()
            finally:
                self.stats[rank] = comm.stats

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join(timeout)
                if t.is_alive():
                    raise TimeoutError("virtual cluster run timed out")
        finally:
            # Finalize even when a rank failed or the run timed out: the
            # report of a disturbed run is exactly what a drill inspects.
            if self.sanitizer is not None:
                self.sanitizer_report = self.sanitizer.finalize()
        # Prefer the root-cause exception.  Three tiers: a rank's own
        # failure beats a peer-observed death (RankDeathError — the dead
        # rank's exception, when present, is the real cause), which beats
        # a broken barrier (pure secondary effect).  The failing rank is
        # attached so callers (the launcher) can wrap it in a typed error.
        real = [(r, e) for r, e in enumerate(errors) if e is not None
                and not isinstance(
                    e, (threading.BrokenBarrierError, RankDeathError)
                )]
        if real:
            rank, exc = real[0]
            exc.failed_rank = rank
            raise exc
        deaths = [(r, e) for r, e in enumerate(errors)
                  if isinstance(e, RankDeathError)]
        if deaths:
            # Attribute the failure to the *dead peer*, not the observer:
            # an unresponsive (hung, never-raising) rank surfaces only
            # through its peers' RankDeathErrors.
            rank, exc = deaths[0]
            exc.failed_rank = exc.rank
            raise exc
        for rank, exc in enumerate(errors):
            if exc is not None:
                exc.failed_rank = rank
                raise exc
        return results
