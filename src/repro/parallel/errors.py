"""Typed failure classes of the virtual-MPI layer.

These live in their own module (rather than in :mod:`.launcher`) so the
communicator itself can raise them without a circular import: a receive
that never completes raises :class:`RankTimeoutError` from inside
:meth:`~repro.parallel.comm.VirtualComm.recv`, and the campaign retry
policy (:mod:`repro.campaign.queue`) treats both classes as transient.
They remain re-exported from :mod:`repro.parallel.launcher` for
backwards compatibility.
"""

from __future__ import annotations

__all__ = [
    "RankFailedError",
    "RankTimeoutError",
    "RankDeathError",
    "RunCancelledError",
]


class RankFailedError(RuntimeError):
    """One (virtual) MPI rank died during a distributed run.

    Typed so a campaign retry policy can treat a rank failure as
    transient and re-submit the job; ``rank`` is the failing rank (-1 if
    unknown) and ``cause`` the original exception.
    """

    def __init__(self, rank: int, cause: BaseException):
        super().__init__(f"rank {rank} failed: {cause}")
        self.rank = rank
        self.cause = cause


class RankTimeoutError(RankFailedError, TimeoutError):
    """A rank exceeded a wall limit (a hung or lost peer).

    Raised both for a whole-program timeout in
    :meth:`~repro.parallel.comm.VirtualCluster.run` and for a single
    receive that outlives the cluster's per-receive deadline.  Also a
    :class:`TimeoutError` so callers matching on the builtin still work.
    """


class RankDeathError(RankFailedError):
    """A peer rank was declared dead while this rank waited on it.

    Raised by a receive whose deadline expired on a heartbeat-silent
    peer, which the failure detector files as ``unresponsive``
    (:meth:`~repro.resilience.detector.FailureDetector.escalate_timeout`)
    — as opposed to :class:`RankTimeoutError`, which means the peer
    merely failed to answer within the deadline (a straggler or a lost
    message).  ``rank`` is the *dead peer*, not the raising rank;
    ``report`` carries the detector's
    :class:`~repro.resilience.detector.RankDeathReport`.

    In :meth:`~repro.parallel.comm.VirtualCluster.run`'s error triage
    this comes after a rank's own failure: a crashed rank's exception is
    the root cause and wins.
    """

    def __init__(self, rank: int, cause: BaseException, report=None):
        super().__init__(rank, cause)
        self.report = report


class RunCancelledError(RuntimeError):
    """The cluster run was cancelled while this rank was parked.

    Raised inside a rank at its blocking point (mailbox wait, barrier,
    collective, run-slot queue or injected stall) when
    :meth:`~repro.parallel.comm.VirtualCluster.run` cancels the run:
    because another rank's program raised, or because the run's deadline
    expired.  It never leaves ``run``, which raises the failing rank's
    own exception, or :class:`TimeoutError` for the deadline, and it is
    not a rank death: the failure detector does not file it.
    """
