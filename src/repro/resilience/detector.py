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
  when a rank program terminates abnormally.  Stopping the peers of a
  dead rank is not the detector's job: a failed rank cancels its run
  (:meth:`~repro.parallel.comm.VirtualCluster.run`), detector or not.
* :class:`RankDeathReport` — the emitted evidence: who died, how it was
  detected (``crash`` = confirmed abnormal termination, ``unresponsive``
  = recv-deadline escalation on a heartbeat-silent peer), and how stale
  the peer's last heartbeat was.

Dead-versus-straggler escalation: when a receive deadline expires, the
detector arbitrates by heartbeat age.  A peer whose last heartbeat is
older than ``suspect_after_s`` is declared ``unresponsive`` (dead for
recovery purposes — a hung rank holds the whole run hostage either
way); a peer with recent traffic is a straggler, and the receive fails
with the ordinary :class:`~repro.parallel.errors.RankTimeoutError` that
the campaign retry policy already classifies as transient.  A rank
blocked in a receive is waiting on someone else, not hung: it counts as
alive until the receive ends (:meth:`FailureDetector.waiting`), so an
escalation never files it.

Where the detector sits relative to fault injection and the comm
sanitizer is set out once, in the :mod:`repro.parallel.comm` module
docstring.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

__all__ = ["RankDeathReport", "FailureDetector"]

#: Detector verdicts for :meth:`FailureDetector.status`.
RANK_STATES = ("alive", "suspect", "dead")


@dataclass
class RankDeathReport:
    """Evidence for one detected rank death.

    ``kind`` is ``"crash"`` when the rank's program terminated with an
    exception (confirmed by the cluster runner; the expiry of its own
    receive on a live peer is no such exception) and ``"unresponsive"``
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
    lock because ranks and the cluster runner file into it concurrently.
    """

    #: Default heartbeat-staleness threshold for the escalation path.
    DEFAULT_SUSPECT_AFTER_S = 5.0

    def __init__(
        self, size: int, suspect_after_s: float = DEFAULT_SUSPECT_AFTER_S
    ):
        if size < 1:
            raise ValueError(f"detector world size must be >= 1, got {size}")
        if suspect_after_s <= 0:
            raise ValueError("suspect_after_s must be positive")
        self.size = size
        self.suspect_after_s = float(suspect_after_s)
        self._started_at = time.monotonic()
        # Per-rank last-heartbeat timestamps; a rank that has not yet
        # performed any communicator operation counts from detector start.
        self._last_beat = [self._started_at] * size
        self._lock = threading.Lock()
        self._reports: dict[int, RankDeathReport] = {}

    # -- heartbeats ----------------------------------------------------------

    def beat(self, rank: int) -> None:
        """Record liveness of ``rank`` (piggybacked on its traffic)."""
        self._last_beat[rank] = time.monotonic()

    def waiting(self, rank: int) -> None:
        """Record that ``rank`` is blocked in a receive: alive until its
        next :meth:`beat`, which ends the receive."""
        self._last_beat[rank] = math.inf

    def heartbeat_age_s(self, rank: int) -> float:
        """Seconds since ``rank`` last showed communicator activity
        (``-inf`` while it waits in a receive)."""
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

        Called by the communicator when the deadline on a receive from
        ``source`` has expired.  A heartbeat-silent peer is declared
        ``unresponsive`` and a report is returned; a peer with recent
        traffic, or one itself waiting in a receive, is not, and ``None``
        is returned (the caller re-raises the ordinary timeout).
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
