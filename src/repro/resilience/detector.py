"""Failure detection at the communicator seam.

MPI has no portable answer to "is rank *k* dead, or merely slow?" — the
ULFM proposal adds exactly that distinction, and production runs at the
paper's 62K-core scale need it because both failure modes are routine
but demand different responses: a dead rank means the epoch is lost and
the supervisor must restart from a checkpoint, while a straggler merely
needs patience.  This module provides the virtual-cluster analogue:

* :class:`FailureDetector` — one shared, thread-safe object per run.
  Ranks record *heartbeats* piggybacked on their existing communicator
  traffic (no extra messages), and the cluster runner *confirms* deaths
  when a rank program terminates abnormally.
* :class:`MonitoredComm` — a wrapper around one rank's communicator
  (same ``__getattr__`` delegation idiom as ``ChaosComm``) that feeds
  the detector and turns a blocked receive into a *probing* wait: the
  receive deadline is sliced into short probes, and between slices the
  detector is consulted, so a peer confirmed dead surfaces as a typed
  :class:`~repro.parallel.errors.RankDeathError` within one probe
  interval instead of after the full (possibly hundreds of seconds)
  receive deadline.
* :class:`RankDeathReport` — the emitted evidence: who died, how it was
  detected (``crash`` = confirmed abnormal termination, ``unresponsive``
  = recv-deadline escalation on a heartbeat-silent peer), and how stale
  the peer's last heartbeat was.

Dead-versus-straggler escalation: when the *full* receive deadline
expires without the peer being confirmed dead, the detector arbitrates
by heartbeat age.  A peer whose last heartbeat is older than
``suspect_after_s`` is declared ``unresponsive`` (dead for recovery
purposes — a hung rank holds the whole run hostage either way); a peer
with recent traffic is a straggler, and the receive fails with the
ordinary :class:`~repro.parallel.errors.RankTimeoutError` that the
campaign retry policy already classifies as transient.

The monitored wrapper sits *innermost* (base comm → monitored →
sanitizer → chaos), for two reasons: probe slices must not reach the
sanitizer (each expired slice would be recorded as a spurious receive
timeout), and injected faults from the chaos wrapper must disturb the
*monitored* stream so drills exercise the detector exactly like real
failures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..parallel import tags
from ..parallel.errors import RankDeathError, RankTimeoutError

__all__ = ["RankDeathReport", "FailureDetector", "MonitoredComm"]

#: Detector verdicts for :meth:`FailureDetector.status`.
RANK_STATES = ("alive", "suspect", "dead")


@dataclass
class RankDeathReport:
    """Evidence for one detected rank death.

    ``kind`` is ``"crash"`` when the rank's program terminated with an
    exception (confirmed by the cluster runner) and ``"unresponsive"``
    when a peer's receive deadline expired on a heartbeat-silent rank
    (the escalation path).  ``detected_by`` is the observing rank, or
    -1 when the cluster runner itself confirmed the death.
    """

    rank: int
    kind: str
    cause: str
    detected_by: int = -1
    heartbeat_age_s: float = 0.0
    #: Communicator operation the detecting rank was blocked in, e.g.
    #: ``"recv(source=2, tag=17)"`` — empty for runner-confirmed deaths.
    op: str = ""
    detected_at: float = field(default_factory=time.monotonic)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "kind": self.kind,
            "cause": self.cause,
            "detected_by": self.detected_by,
            "heartbeat_age_s": self.heartbeat_age_s,
            "op": self.op,
        }


class FailureDetector:
    """Shared per-run failure detector (one instance per world epoch).

    Thread-safe by construction: heartbeats are single-slot timestamp
    writes (atomic under the GIL — deliberately lock-free, since every
    communicator operation records one), while the death registry uses a
    lock because it is read by probing receives on every slice.
    """

    #: Default heartbeat-staleness threshold for the escalation path.
    DEFAULT_SUSPECT_AFTER_S = 5.0
    #: Default probe slice for monitored receives.  Long enough that an
    #: eagerly-delivered message is matched on the first slice (the
    #: common case costs one extra ``is_dead`` lookup), short enough
    #: that a confirmed death interrupts a blocked peer quickly.
    DEFAULT_PROBE_INTERVAL_S = 0.05

    def __init__(
        self,
        size: int,
        suspect_after_s: float = DEFAULT_SUSPECT_AFTER_S,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
    ):
        if size < 1:
            raise ValueError(f"detector world size must be >= 1, got {size}")
        if suspect_after_s <= 0 or probe_interval_s <= 0:
            raise ValueError(
                "suspect_after_s and probe_interval_s must be positive"
            )
        self.size = size
        self.suspect_after_s = float(suspect_after_s)
        self.probe_interval_s = float(probe_interval_s)
        self._started_at = time.monotonic()
        # Per-rank last-heartbeat timestamps; a rank that has not yet
        # performed any communicator operation counts from detector start.
        self._last_beat = [self._started_at] * size
        self._lock = threading.Lock()
        self._reports: dict[int, RankDeathReport] = {}
        # Ranks whose program has *exited* (normally-impossible mid-run:
        # a rank only leaves early because a death knocked it out).  A
        # peer probing a departed rank fails fast citing the primary
        # death instead of burning its full receive deadline — without
        # this, a 6-rank pipeline stall cascades one recv-deadline per
        # hop and pollutes provenance with false "unresponsive" reports.
        self._departed: set[int] = set()

    # -- heartbeats ----------------------------------------------------------

    def beat(self, rank: int) -> None:
        """Record liveness of ``rank`` (piggybacked on its traffic)."""
        self._last_beat[rank] = time.monotonic()

    def heartbeat_age_s(self, rank: int) -> float:
        """Seconds since ``rank`` last showed communicator activity."""
        return time.monotonic() - self._last_beat[rank]

    # -- death registry ------------------------------------------------------

    def mark_dead(
        self,
        rank: int,
        cause: BaseException | str,
        kind: str = "crash",
        detected_by: int = -1,
        op: str = "",
    ) -> RankDeathReport:
        """Register a death; idempotent (the first report wins)."""
        with self._lock:
            existing = self._reports.get(rank)
            if existing is not None:
                return existing
            report = RankDeathReport(
                rank=rank,
                kind=kind,
                cause=str(cause),
                detected_by=detected_by,
                heartbeat_age_s=self.heartbeat_age_s(rank),
                op=op,
            )
            self._reports[rank] = report
            return report

    def is_dead(self, rank: int) -> bool:
        with self._lock:
            return rank in self._reports

    def mark_departed(self, rank: int) -> None:
        """Record that ``rank``'s program exited abnormally (secondary
        casualties of a primary death included)."""
        with self._lock:
            self._departed.add(rank)

    def is_departed(self, rank: int) -> bool:
        with self._lock:
            return rank in self._departed

    def primary_report(self) -> RankDeathReport | None:
        """The first-filed death report — the root cause of a cascade."""
        with self._lock:
            if not self._reports:
                return None
            return min(
                self._reports.values(), key=lambda r: r.detected_at
            )

    def report_of(self, rank: int) -> RankDeathReport | None:
        with self._lock:
            return self._reports.get(rank)

    def dead_ranks(self) -> list[int]:
        with self._lock:
            return sorted(self._reports)

    @property
    def reports(self) -> list[RankDeathReport]:
        with self._lock:
            return [self._reports[r] for r in sorted(self._reports)]

    def status(self, rank: int) -> str:
        """Three-state verdict: ``alive``, ``suspect`` (heartbeat stale
        beyond ``suspect_after_s``), or ``dead`` (report filed)."""
        if self.is_dead(rank):
            return "dead"
        if self.heartbeat_age_s(rank) > self.suspect_after_s:
            return "suspect"
        return "alive"

    # -- escalation ----------------------------------------------------------

    def escalate_timeout(
        self, source: int, detected_by: int, deadline_s: float, op: str
    ) -> RankDeathReport | None:
        """Arbitrate an expired receive deadline: dead peer or straggler?

        Called by :class:`MonitoredComm` when the *full* deadline on a
        receive from ``source`` has expired without a confirmed death.
        A heartbeat-silent peer is declared ``unresponsive`` and a
        report is returned; a peer with recent traffic is a straggler
        and ``None`` is returned (the caller re-raises the ordinary
        timeout).
        """
        age = self.heartbeat_age_s(source)
        if age <= self.suspect_after_s:
            return None
        return self.mark_dead(
            source,
            f"no heartbeat for {age:.2f}s while peer waited "
            f"{deadline_s:.2f}s in {op}",
            kind="unresponsive",
            detected_by=detected_by,
            op=op,
        )


class MonitoredComm:
    """Heartbeat-feeding, death-probing wrapper around one rank's comm.

    Every operation records this rank's heartbeat; receives are split
    into probe slices so a peer confirmed dead mid-wait raises
    :class:`~repro.parallel.errors.RankDeathError` within one
    ``probe_interval_s`` instead of after the full receive deadline.
    Accounting stays on the wrapped communicator and stays correct:
    each expired probe slice adds only its own blocked time to
    ``comm_time_s``, and a message is counted received exactly once, on
    the slice that matches it.
    """

    def __init__(self, comm, detector: FailureDetector) -> None:
        self._comm = comm
        self._detector = detector

    def __getattr__(self, name: str):
        return getattr(self._comm, name)

    # -- point to point ------------------------------------------------------

    def send(self, dest: int, payload, tag: int = tags.DEFAULT) -> None:
        self._detector.beat(self._comm.rank)
        return self._comm.send(dest, payload, tag=tag)

    def isend(self, dest: int, payload, tag: int = tags.DEFAULT):
        self._detector.beat(self._comm.rank)
        return self._comm.isend(dest, payload, tag=tag)

    def recv(
        self, source: int, tag: int = tags.DEFAULT, timeout: float | None = None
    ) -> np.ndarray:
        return self._complete_recv(source, tag, timeout)

    def irecv(self, source: int, tag: int = tags.DEFAULT):
        from ..parallel.comm import RecvRequest

        # Bound to *this* wrapper: the eventual wait() funnels through
        # _complete_recv below, so the overlapped halo path gets the
        # same probing wait as the blocking one.
        return RecvRequest(self, source, tag)

    def _complete_recv(
        self, source: int, tag: int, timeout: float | None
    ) -> np.ndarray:
        detector = self._detector
        rank = self._comm.rank
        detector.beat(rank)
        effective = (
            timeout
            if timeout is not None
            else self._comm._cluster.recv_timeout_s
        )
        op = f"recv(source={source}, tag={tag})"
        report = detector.report_of(source)
        if report is not None:
            raise RankDeathError(
                source,
                TimeoutError(f"rank {rank}: {op} from dead peer"),
                report=report,
            )
        # NOTE: a *departed* (but not dead) peer is still given one probe
        # slice before failing — its eagerly-sent messages may already be
        # queued, and draining them keeps partial progress deterministic.
        deadline = time.monotonic() + effective
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Full deadline expired with the peer never confirmed
                # dead: escalate by heartbeat age (dead vs straggler).
                report = detector.escalate_timeout(
                    source, rank, effective, op
                )
                cause = TimeoutError(
                    f"rank {rank}: no message from {source} tag {tag} "
                    f"within {effective}s"
                )
                if report is not None:
                    raise RankDeathError(source, cause, report=report)
                raise RankTimeoutError(rank, cause)
            slice_s = min(detector.probe_interval_s, remaining)
            try:
                data = self._comm._complete_recv(source, tag, slice_s)
            except RankTimeoutError:
                # Actively probing is liveness: beat so peers blocked on
                # *this* rank do not escalate it as unresponsive while
                # it is merely waiting out a dead neighbour.
                detector.beat(rank)
                report = detector.report_of(source)
                if report is not None:
                    raise RankDeathError(
                        source,
                        TimeoutError(
                            f"rank {rank}: peer {source} died while "
                            f"this rank waited in {op}"
                        ),
                        report=report,
                    ) from None
                if detector.is_departed(source):
                    # Secondary casualty: the peer exited after some
                    # other rank's death collapsed its epoch.  Cite the
                    # primary report so the cascade stays attributed to
                    # its root cause.
                    primary = detector.primary_report()
                    raise RankDeathError(
                        source,
                        TimeoutError(
                            f"rank {rank}: peer {source} departed "
                            f"mid-run while this rank waited in {op}"
                        ),
                        report=primary,
                    ) from None
                continue
            detector.beat(rank)
            return data

    def waitall(self, requests: list, timeout: float | None = None) -> list:
        return [req.wait(timeout) for req in requests]

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        self._detector.beat(self._comm.rank)
        return self._comm.barrier()

    def allreduce(self, value, op: str = "sum"):
        self._detector.beat(self._comm.rank)
        return self._comm.allreduce(value, op)

    def gather(self, value, root: int = 0):
        self._detector.beat(self._comm.rank)
        return self._comm.gather(value, root)
