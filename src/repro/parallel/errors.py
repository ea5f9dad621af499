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

__all__ = ["RankFailedError", "RankTimeoutError", "RankDeathError"]


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
    """A peer rank was *confirmed* dead while this rank waited on it.

    Raised by a receive probing the failure detector
    (:meth:`~repro.resilience.detector.FailureDetector.probe`, or its
    deadline escalation) when the wait can be attributed to a peer that
    has already crashed — as opposed to :class:`RankTimeoutError`,
    which means the peer merely failed to answer within the deadline
    (a straggler or a lost message).  ``rank`` is the *dead peer*, not
    the raising rank; ``report`` carries the detector's
    :class:`~repro.resilience.detector.RankDeathReport`.

    In :meth:`~repro.parallel.comm.VirtualCluster.run`'s error triage
    this is a *secondary* failure (like a broken barrier): the dead
    rank's own exception is the root cause and wins.
    """

    def __init__(self, rank: int, cause: BaseException, report=None):
        super().__init__(rank, cause)
        self.report = report
