"""Virtual MPI: communicator API with message accounting.

The execution environment has no MPI; this module provides an in-process
substitute with mpi4py-like semantics.  Rank programs run as Python
threads and communicate through thread-safe mailboxes.  Every operation
is accounted — message counts, byte volumes, and wall-clock time blocked
in communication — which is exactly the data the paper's IPM
measurements provide for the communication model of Figure 6.

Threads are ranks at thread cost only while no more of them run than
there are CPUs: six runnable rank threads on two cores hand the GIL
across cores at every NumPy call, and the same rank steps cost more than
twice the CPU time they cost run one after another (EXPERIMENTS.md
THREAD-SLOTS).  So a rank runs program code only while it holds one of
*k* **run slots**, *k* being the number of CPUs this process may use
(:func:`run_slot_count`, derived, never configured; read through this
module's name on every :meth:`VirtualCluster.run`).  Slots are granted
in FIFO ticket order.  A rank gives its slot up only where it would
block — the mailbox wait, a barrier or collective, an injected stall —
and takes it back only after the comm accounting of that wait has
closed, so the time spent queueing for a slot lands in
``CommStats.slot_wait_s`` and never in ``comm_time_s`` (nor in the halo
spans: after :meth:`VirtualComm.waiting` the halo exchanger closes its
span before it takes the slot back).

:meth:`VirtualCluster.run` has one cancel path.  It is taken when the
run's one deadline expires and when a rank's program raises: every rank
parked at a blocking point (mailbox wait, barrier, collective, slot
queue, injected stall), or reaching one later, raises
:class:`~repro.parallel.errors.RunCancelledError`, the ranks are joined,
and ``run`` raises the failing rank's own exception — or
:class:`TimeoutError` when the deadline, not a failure, cancelled the
run.  As in one MPI job, one rank's failure ends the run; no rank thread
outlives it.

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
  every operation, which files a crashed rank's death and turns a
  receive deadline expiring on a heartbeat-silent (hung) peer into a
  :class:`~repro.parallel.errors.RankDeathError`.

Every operation consults them in one fixed order (:meth:`VirtualComm.
_send` and :meth:`VirtualComm._complete_recv`): **chaos decides first**
(crash, stall, delay, bit-flip, drop, duplicate), **then the sanitizer
records, then the detector beats, then the mailbox**.  The order is the
design:

* chaos first, so the sanitizer observes the disturbed message stream
  actually on the wire (an injected drop or duplicate shows up as the
  protocol violation it is) and the detector sees injected failures
  exactly like real ones;
* the detector arbitrates an expired receive before the sanitizer
  records the timeout, so a hung peer is filed as a death and only a
  straggler or a lost message reaches the sanitizer's wait-for graph.

A request carries the sanitizer's tracking id (``None`` when the
cluster is not sanitized), so ``isend``/``irecv`` handles are tracked
whatever else is armed.  With nothing armed each operation pays three
``is None`` checks.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..config.cpus import run_slot_count
from . import tags
from .errors import RankDeathError, RankTimeoutError, RunCancelledError

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
    "run_slot_count",
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
    #: Seconds this rank was runnable but queued for a run slot (never
    #: part of ``comm_time_s``).
    slot_wait_s: float = 0.0
    barriers: int = 0
    allreduces: int = 0


class _RunSlots:
    """*k* run slots granted in FIFO ticket order.

    A release hands the slot straight to the longest-waiting rank (each
    waiter parks on its own gate), so no woken thread races another for
    it.  :meth:`cancel` opens every gate; a rank woken that way raises
    :class:`~repro.parallel.errors.RunCancelledError`.
    """

    def __init__(self, k: int):
        self._lock = threading.Lock()
        self._free = k
        self._queue: deque[threading.Lock] = deque()
        self._cancelled = False

    def acquire(self, rank: int) -> float:
        """Take a slot; returns the seconds spent queueing for it."""
        with self._lock:
            if self._cancelled:
                raise RunCancelledError(f"rank {rank}: run cancelled")
            if self._free:
                self._free -= 1
                return 0.0
            gate = threading.Lock()
            gate.acquire()
            self._queue.append(gate)
        t0 = time.perf_counter()
        gate.acquire()
        waited = time.perf_counter() - t0
        if self._cancelled:
            raise RunCancelledError(f"rank {rank}: run cancelled in the slot queue")
        return waited

    def release(self) -> None:
        with self._lock:
            if self._queue:
                self._queue.popleft().release()
            else:
                self._free += 1

    def cancel(self) -> None:
        with self._lock:
            self._cancelled = True
            while self._queue:
                self._queue.popleft().release()


#: Put into every mailbox when a run is cancelled, to wake its waiter.
_CANCEL = object()

#: A rank's errors that only follow from another rank's failure or the
#: cancel: never filed as its death, and behind a rank's own failure in
#: :meth:`VirtualCluster.run`'s triage.
_SECONDARY = (threading.BrokenBarrierError, RankDeathError, RunCancelledError)


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
        self._slotted = False
        self._deferred = 0

    # -- run slot ------------------------------------------------------------

    def _park(self) -> None:
        """Give the run slot up before blocking (no-op without one)."""
        if self._slotted:
            self._slotted = False
            self._cluster._slots.release()

    def _resume(self) -> None:
        """Take a run slot back before returning to program code — unless
        inside :meth:`waiting`, whose caller takes it back."""
        if not self._slotted and not self._deferred:
            self.stats.slot_wait_s += self._cluster._slots.acquire(self.rank)
            self._slotted = True

    @contextmanager
    def waiting(self) -> Iterator[None]:
        """A block of waits that leaves taking the run slot back to the
        caller.

        A wait inside that blocks gives the slot up as usual but does not
        queue for it again: the caller calls :meth:`take_slot` once its
        own accounting of the waits has closed.  The halo exchanger closes
        its ``halo.wait``/``halo.exchange`` span first and queues inside a
        ``rank.slot_wait`` span, so the slot queue is neither
        communication nor unattributed step time.  An exception leaving
        the block takes the slot back at once.
        """
        self._deferred += 1
        try:
            yield
        except BaseException:
            self._deferred -= 1
            self._resume()
            raise
        self._deferred -= 1

    def take_slot(self) -> None:
        """Take the run slot back after :meth:`waiting` (no-op if held)."""
        self._resume()

    @contextmanager
    def _blocked(self) -> Iterator[None]:
        """A wait that blocks for sure (barrier, collective): unslotted,
        accounted in ``comm_time_s``, then the slot is taken back."""
        self._park()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stats.comm_time_s += time.perf_counter() - t0
            self._resume()

    def _idle(self, seconds: float) -> None:
        """An injected stall or delay: unslotted, and cut short (raising
        :class:`~repro.parallel.errors.RunCancelledError`) by a cancel."""
        self._park()
        try:
            if self._cluster._cancel.wait(seconds):
                raise RunCancelledError(f"rank {self.rank}: run cancelled in a stall")
        finally:
            self._resume()

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
            copies = cluster.fault_plan.on_send(
                self.rank, dest, tag, payload, self._idle
            )
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
        """The one receive path, in the same order as :meth:`_send`.  The
        mailbox wait gives the run slot up only if it must block; it is
        taken back after ``comm_time_s`` has been accounted."""
        cluster = self._cluster
        if cluster.fault_plan is not None:
            cluster.fault_plan.on_recv(self.rank, source, tag, self._idle)
        sanitizer = cluster.sanitizer
        detector = cluster.failure_detector
        effective = timeout if timeout is not None else cluster.recv_timeout_s
        if sanitizer is not None:
            sanitizer.on_wait_begin(self.rank, source, tag)
        if detector is not None:
            detector.waiting(self.rank)
        t0 = time.perf_counter()
        try:
            data = cluster._match(self, source, tag, effective)
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
            if detector is not None:
                detector.beat(self.rank)
            self._resume()
        if sanitizer is not None:
            sanitizer.on_recv_complete(self.rank, source, tag)
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
        broken_after = None
        with self._blocked():
            t0 = time.perf_counter()
            try:
                self._cluster._barrier.wait(timeout=deadline)
            except threading.BrokenBarrierError:
                broken_after = time.perf_counter() - t0
        if broken_after is not None:
            if broken_after >= deadline - 1e-3:
                # Our own wait expired: the peers never arrived.
                raise RankTimeoutError(
                    self.rank,
                    TimeoutError(
                        f"rank {self.rank}: barrier not reached by all "
                        f"ranks within {deadline}s"
                    ),
                )
            # Broken by another rank's abort — a secondary effect of the
            # first real failure; re-raise so run() can filter it out.
            raise threading.BrokenBarrierError
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
        with self._blocked():
            result = self._cluster._allreduce(self.rank, np.asarray(value), op)
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
        with self._blocked():
            return self._cluster._gather(self.rank, value, root)


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
    #: How long a cancelled run waits for ranks to reach a blocking point
    #: (where the cancel takes them) before :meth:`run` gives up on them.
    CANCEL_GRACE_S = 5.0

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
        #: When set, every rank's comm feeds it heartbeats, an expired
        #: receive asks it whether the peer hung, and the runner confirms
        #: abnormal rank terminations to it.
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
        # Run slots and the cancel signal, both renewed by every run().
        self._slots = _RunSlots(run_slot_count())
        self._cancel = threading.Event()

    @property
    def recv_timeout_s(self) -> float:
        """Effective per-receive deadline: the configured value, else the
        program timeout of the current/most recent :meth:`run`."""
        if self._recv_timeout_s is not None:
            return self._recv_timeout_s
        return self._run_timeout_s

    # -- internals ---------------------------------------------------------------

    def _match(
        self, comm: VirtualComm, source: int, tag: int, timeout: float
    ) -> np.ndarray:
        """Take the message ``(source, tag)`` out of ``comm``'s mailbox.

        Queued messages are drained without blocking first; only when the
        mailbox is empty does the rank give its run slot up and wait."""
        rank = comm.rank
        # Check already-drained messages first.
        pending = self._unmatched[rank]
        for i, (src, t, data) in enumerate(pending):
            if src == source and t == tag:
                pending.pop(i)
                return data
        mailbox = self._mailboxes[rank]
        deadline = time.monotonic() + timeout
        while True:
            if self._cancel.is_set():
                raise RunCancelledError(
                    f"rank {rank}: run cancelled in recv(source={source}, tag={tag})"
                )
            try:
                item = mailbox.get_nowait()
            except queue.Empty:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"rank {rank}: no message from {source} tag {tag} "
                        f"within {timeout}s"
                    ) from None
                comm._park()
                try:
                    item = mailbox.get(timeout=remaining)
                except queue.Empty:
                    continue  # the loop head raises the timeout
            if item is _CANCEL:
                continue  # a wake-up: the loop head decides
            src, t, data = item
            if src == source and t == tag:
                return data
            pending.append(item)

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

        ``timeout`` (default :data:`DEFAULT_TIMEOUT_S`) is one deadline
        for the whole run; it also becomes the per-receive deadline
        unless the cluster was built with an explicit ``recv_timeout_s``.
        The run is cancelled when a rank's program raises or when the
        deadline expires: every peer raises
        :class:`~repro.parallel.errors.RunCancelledError` at its current
        or next blocking point, and the ranks are joined.  ``run`` then
        raises the root cause, carrying its rank as ``failed_rank``: a
        rank's own failure, else a peer filed dead by the failure
        detector (:class:`~repro.parallel.errors.RankDeathError`), else a
        broken barrier or the cancel itself.  A run the deadline
        cancelled raises :class:`TimeoutError` instead.
        """
        if timeout is None:
            timeout = self.DEFAULT_TIMEOUT_S
        self._run_timeout_s = timeout
        self._slots = _RunSlots(run_slot_count())
        self._cancel = threading.Event()
        results: list = [None] * self.size
        errors: list = [None] * self.size

        def runner(rank: int) -> None:
            comm = VirtualComm(self, rank)
            try:
                comm._resume()  # queue for a first slot
                results[rank] = program(comm)
            # Rank isolation: the root cause is re-raised after all
            # threads join, so nothing is swallowed here.
            except BaseException as exc:  # repro: disable=R5
                errors[rank] = exc
                if self.failure_detector is not None and not isinstance(
                    exc, (*_SECONDARY, RankTimeoutError)
                ):
                    # Confirm the death (broken barriers, peers filed
                    # dead by escalation, the cancel and this rank's own
                    # expired wait on a live peer are not deaths of
                    # *this* rank and must not be filed as such).
                    self.failure_detector.mark_dead(rank, exc)
                # One rank's failure ends the run: stop every peer.
                self._cancel_run()
            finally:
                comm._park()
                self.stats[rank] = comm.stats

        threads = [
            threading.Thread(
                target=runner, args=(r,), name=f"rank-{r}", daemon=True
            )
            for r in range(self.size)
        ]
        deadline = time.monotonic() + timeout
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
            if any(t.is_alive() for t in threads):
                expired = not self._cancel.is_set()
                self._cancel_run()
                grace_end = time.monotonic() + self.CANCEL_GRACE_S
                for t in threads:
                    t.join(max(0.0, grace_end - time.monotonic()))
                running = [r for r, t in enumerate(threads) if t.is_alive()]
                if expired:
                    raise TimeoutError(
                        f"virtual cluster run exceeded its {timeout:.3g}s "
                        "deadline"
                        + (f"; ranks {running} never reached a blocking "
                           "point" if running else "")
                    )
        finally:
            # Finalize even when a rank failed or the run timed out: the
            # report of a disturbed run is exactly what a drill inspects.
            if self.sanitizer is not None:
                self.sanitizer_report = self.sanitizer.finalize()
        failed = [(r, e) for r, e in enumerate(errors) if e is not None]
        if not failed:
            return results
        # The root cause first: a rank's own failure, then a peer filed
        # dead (attributed to the dead peer, not the observer: a hung,
        # never-raising rank surfaces only through its peers'
        # RankDeathErrors), then the cancel's secondary effects.
        for rank, exc in failed:
            if not isinstance(exc, _SECONDARY):
                exc.failed_rank = rank
                raise exc
        for rank, exc in failed:
            if isinstance(exc, RankDeathError):
                exc.failed_rank = exc.rank
                raise exc
        rank, exc = failed[0]
        exc.failed_rank = rank
        raise exc

    def _cancel_run(self) -> None:
        """Wake every parked rank into :class:`RunCancelledError`: slot
        queue, barriers and collectives, mailbox waits, injected stalls.
        Idempotent: every failing rank calls it."""
        self._cancel.set()
        self._slots.cancel()
        for barrier in (self._barrier, self._collect_barrier, self._read_barrier):
            barrier.abort()
        for mailbox in self._mailboxes:
            mailbox.put(_CANCEL)
